"""Tests for the benchmark's own arithmetic and output checks.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import types
from pathlib import Path

import numpy as np
import pytest

import invariants as inv
import tracer as tr

ROOT = Path(__file__).resolve().parent.parent


# --- tail percentile rule ---------------------------------------------------

@pytest.mark.parametrize("n, p", [(9, None), (19, None), (20, 50), (39, 50),
                                  (40, 75), (99, 75), (100, 90), (999, 90),
                                  (1000, 99), (9999, 99), (10000, 99.9)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert inv.tail_percentile(n) == p
    if p is not None:
        assert inv.beyond(n, p) >= 10


@pytest.mark.parametrize("p, n", [(50, 20), (75, 40), (90, 100), (99, 1000)])
def test_min_samples_is_the_smallest_count(p, n):
    assert inv.min_samples(p) == n
    assert inv.beyond(n - 1, p) < 10


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))   # 1..100, unsorted
    assert inv.percentile(values, 90) == 90
    assert inv.percentile(values, 50) == 50
    assert inv.percentile([7.0], 99) == 7.0


def test_latency_summary():
    ops, p50, tail = inv.latency_summary([0.1, 0.2, 0.3, 0.4], 75)
    assert ops == pytest.approx(4 / 1.0)
    assert p50 == pytest.approx(250.0)
    assert tail == pytest.approx(300.0)


# --- spans and self time -----------------------------------------------------

def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    t = tr.Tracer(clock=scripted_clock([0, 1, 2, 4, 6, 7, 9, 10]))
    with t.op_span(0):               # 0 .. 10
        a = t.begin("a")             # 1 .. 6
        b = t.begin("b")             # 2 .. 4
        t.end(b)
        t.end(a)
        c = t.begin("c")             # 7 .. 9
        t.end(c)
    assert [s.parent for s in t.spans] == [None, 0, 1, 0]
    assert tr.self_times(t.spans) == [3, 3, 2, 2]


def test_covered_time_is_a_clipped_union():
    assert tr._covered([(1, 4), (2, 3), (3, 6), (8, 12)], 0, 10) == 7
    assert tr._covered([], 0, 10) == 0


def test_excluded_bookkeeping_leaves_self_time():
    t = tr.Tracer(clock=scripted_clock([0, 1, 2, 10]))
    with t.op_span(0):
        s = t.begin("a")
        t.end(s)
        t.exclude(0.5)
    assert tr.self_times(t.spans) == [8.5, 1]


def fake_modules():
    """A 'dwt' layer and a caller module that imported dwt2 by name."""
    dwt = types.ModuleType("fake_dwt")
    dwt.dwt2 = lambda img, levels: np.asarray(img) * 2
    dwt.idwt2 = lambda pyr: pyr
    user = types.ModuleType("fake_user")
    user.dwt2 = dwt.dwt2
    return dwt, user


def test_instrumented_wraps_importers_and_counts_only_inside_ops():
    dwt, user = fake_modules()
    original = dwt.dwt2
    t = tr.Tracer()
    img = np.arange(16.0).reshape(4, 4)
    with tr.instrumented(t, {"dwt": dwt, "user": user},
                         layers={"dwt": ("dwt2", "idwt2")}):
        assert user.dwt2 is not original and dwt.dwt2 is user.dwt2
        user.dwt2(img, 1)                    # set-up call: no span
        with t.op_span(0):
            user.dwt2(img, 1)
            user.dwt2(img.copy(), 1)         # same content: a repeat
            user.dwt2(img + 1, 1)
        with t.op_span(1):
            dwt.dwt2(img, 1)                 # new op: not a repeat
    assert dwt.dwt2 is original and user.dwt2 is original
    names = [s.name for s in t.spans]
    assert names == ["op", "dwt.dwt2", "dwt.dwt2", "dwt.dwt2", "op", "dwt.dwt2"]
    values = tr.layer_metrics(t.spans, n_ops=2)
    assert values["dwt.dwt2.calls"] == 2.0
    assert values["dwt.dwt2.repeat_ratio"] == 0.25
    assert values["dwt.dwt2.mpix"] == pytest.approx(4 * 16 / 1e6 / 2)
    assert values["dwt.idwt2.calls"] == 0.0


def test_layer_metrics_split_attack_time_by_kind():
    t = tr.Tracer(clock=scripted_clock([0, 1, 3, 4, 7, 10]))
    with t.op_span(0):
        for kind in ("jpeg", "median"):
            s = t.begin("attacks.apply_attack")
            t.end(s)
            s.attrs = {"kind": kind}
    values = tr.layer_metrics(t.spans, n_ops=1)
    assert values["attacks.apply_attack.calls"] == 2
    assert values["attacks.apply_attack.self_ms"] == pytest.approx(5000)
    assert values["attacks.apply_attack.jpeg.self_ms"] == pytest.approx(2000)
    assert values["attacks.apply_attack.median.self_ms"] == pytest.approx(3000)


def test_benchmark_json_lists_every_metric_with_its_unit():
    import run
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tr.metric_units()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)


# --- output invariants --------------------------------------------------------

def test_check_extract():
    assert inv.check_extract("ber=0.0 ncc=1.0\n", clean=True) == []
    assert inv.check_extract("ber=0.25 ncc=0.5\n", clean=False) == []
    assert inv.check_extract("ber=0.25 ncc=0.6\n", clean=False)
    assert inv.check_extract("ber=0.011719 ncc=0.976562\n", clean=True)
    assert inv.check_extract("ber=-inf ncc=-inf\n", clean=False)
    assert inv.check_extract("", clean=False)


def test_check_embed():
    assert inv.check_embed("psnr_db=41.2 modified_coefficients=900\n") == []
    assert inv.check_embed("psnr_db=-inf modified_coefficients=900\n")
    assert inv.check_embed("psnr_db=nan modified_coefficients=900\n")
    assert inv.check_embed("psnr_db=41.2 modified_coefficients=0\n")
    assert inv.check_embed("error: bad\n")


def good_report():
    entry = {"ber": 0.011719, "ncc": 0.976562}
    return {"transparency": {"psnr_db": 41.0, "ssim": 0.99},
            "attacks": [{"spec": s, "seed": 0,
                         "detectors": {"I": dict(entry), "II": dict(entry)}}
                        for s in ("median", "lpf")]}


@pytest.mark.parametrize("breakage", [
    lambda r: r["attacks"][1].update(error="bad value"),
    lambda r: r["attacks"][0]["detectors"]["I"].update(ber="-inf"),
    lambda r: r["transparency"].update(ssim="nan"),
    lambda r: r["transparency"].update(psnr_db=float("nan")),
    lambda r: r["attacks"][0]["detectors"]["II"].update(ncc=0.5),
    lambda r: r["attacks"][1]["detectors"].pop("II"),
    lambda r: r["attacks"].pop(),
])
def test_check_bench_report_rejects_each_broken_report(breakage):
    assert inv.check_bench_report(good_report(), rows=2) == []
    report = good_report()
    breakage(report)
    assert inv.check_bench_report(report, rows=2)


GOOD_SWEEP = "quality,detector,ber,ncc\n10,I,0.5,0.0\n10,II,0.0,1.0\n"


@pytest.mark.parametrize("bad", [
    "q,detector,ber,ncc\n10,I,0.5,0.0\n10,II,0.0,1.0\n",
    "quality,detector,ber,ncc\n10,I,0.5,0.1\n10,II,0.0,1.0\n",
    "quality,detector,ber,ncc\n10,I,-inf,-inf\n10,II,0.0,1.0\n",
    "quality,detector,ber,ncc\n10,I,nan,nan\n10,II,0.0,1.0\n",
    "quality,detector,ber,ncc\n10,I,0.5,0.0\n",
    "quality,detector,ber,ncc\n10,I,0.5\n10,II,0.0,1.0\n",
])
def test_check_sweep_csv_rejects_each_broken_sweep(bad):
    assert inv.check_sweep_csv(GOOD_SWEEP, rows=2) == []
    assert inv.check_sweep_csv(bad, rows=2)


def test_checks_pass_on_a_real_bench_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tests"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import synth
    from dwtmark import cli
    from workloads import MARK_FILE, write_pbm, write_pgm
    monkeypatch.chdir(tmp_path)
    write_pgm(synth.benchmark_image(5), "cover.pgm")
    write_pbm(synth.benchmark_mark(), MARK_FILE)
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["bench", "cover.pgm", MARK_FILE, "--jpeg-sweep",
                         "10..90", "--out", "report.json"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    sweep = (tmp_path / "report_sweep.csv").read_text()
    assert inv.check_bench_report(report, rows=14) == []
    assert inv.check_sweep_csv(sweep, rows=18) == []
    report["attacks"][3]["detectors"]["I"]["ncc"] += 0.25
    assert inv.check_bench_report(report, rows=14)
