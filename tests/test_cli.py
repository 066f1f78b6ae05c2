import csv
import hashlib
import json
import math
from types import SimpleNamespace

import pytest

from dwtmark import attacks, cli
from dwtmark.cli import _round6, main
from dwtmark.pixmap import read_image, read_watermark, write_image, write_watermark
from dwtmark.watermarker import DETECTOR_I, DETECTOR_II, EmbedConfig

from conftest import random_mark


@pytest.fixture()
def workdir(tmp_path, lena_like, mark):
    write_image(lena_like, tmp_path / "cover.pgm")
    write_watermark(mark, tmp_path / "mark.pbm")
    return tmp_path


def test_embed_reports_psnr_and_count(workdir, capsys):
    rc = main(["embed", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
               str(workdir / "marked.pgm")])
    assert rc == 0
    err = capsys.readouterr().err
    assert "psnr_db=" in err and "modified_coefficients=" in err
    psnr = float(err.split("psnr_db=")[1].split()[0])
    assert 33 <= psnr <= 41
    assert (workdir / "marked.pgm").exists()


def test_embed_alpha_near_zero_transparent(workdir):
    main(["embed", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
          str(workdir / "marked.pgm"), "--alpha", "1e-9"])
    cover = read_image(workdir / "cover.pgm")
    marked = read_image(workdir / "marked.pgm")
    assert (cover == marked).all()


def test_embed_checks_alpha_before_reading(workdir, capsys):
    # the cover does not exist: the alpha error comes first, nothing is written
    out = workdir / "o.pgm"
    assert main(["embed", str(workdir / "missing.pgm"),
                 str(workdir / "mark.pbm"), str(out), "--alpha", "1.5"]) == 1
    assert "alpha must be in (0,1), got 1.5" in capsys.readouterr().err
    assert not out.exists()


def test_missing_watermark_file_fails(workdir, capsys):
    rc = main(["embed", str(workdir / "cover.pgm"),
               str(workdir / "nope.pbm"), str(workdir / "out.pgm")])
    assert rc != 0
    assert "nope.pbm" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["0.4", "0.25"])
def test_extract_clean_roundtrip(workdir, capsys, mark, alpha):
    # extraction reads only signs: it takes no flag, whatever alpha marked
    main(["embed", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
          str(workdir / "marked.pgm"), "--alpha", alpha])
    rc = main(["extract", str(workdir / "cover.pgm"),
               str(workdir / "marked.pgm"), str(workdir / "rec.pbm"),
               "--detector", "I", "--truth", str(workdir / "mark.pbm")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ber=0.0" in out and "ncc=1.0" in out
    assert (read_watermark(workdir / "rec.pbm") == mark).all()


def test_custom_detector_matches_builtin(workdir):
    main(["embed", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
          str(workdir / "marked.pgm")])
    main(["extract", str(workdir / "cover.pgm"), str(workdir / "marked.pgm"),
          str(workdir / "a.pbm"), "--detector", "II"])
    main(["extract", str(workdir / "cover.pgm"), str(workdir / "marked.pgm"),
          str(workdir / "b.pbm"), "--detector", "h2,v2,v3"])
    assert (read_watermark(workdir / "a.pbm")
            == read_watermark(workdir / "b.pbm")).all()


def test_each_call_parses_with_its_own_defaults(workdir, monkeypatch):
    # main() reuses one parser; no flag of one call may leak into the next
    seen = []

    def record_embed(cover, wm, cfg):
        seen.append(cfg)
        return cover, SimpleNamespace(psnr=math.inf, total_modified=0)

    def record_extract(cover, received, detector):
        seen.append(detector)
        return read_watermark(workdir / "mark.pbm")

    monkeypatch.setattr(cli, "embed_image", record_embed)
    monkeypatch.setattr(cli, "extract_image", record_extract)
    embed = ["embed", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
             str(workdir / "marked.pgm")]
    extract = ["extract", *[str(workdir / "cover.pgm")] * 2,
               str(workdir / "rec.pbm")]
    assert main([*embed, "--alpha", "0.3"]) == 0
    assert main([*extract, "--detector", "II"]) == 0
    assert main(embed) == 0
    assert main(extract) == 0
    assert seen == [EmbedConfig(alpha=0.3), DETECTOR_II,
                    EmbedConfig(), DETECTOR_I]
    assert cli._parser() is cli._parser()


Q_FLAG_COMMANDS = (["embed", "c.pgm", "m.pbm", "o.pgm"],
                   ["extract", "c.pgm", "r.pgm", "o.pbm"],
                   ["bench", "c.pgm", "m.pbm"])


@pytest.mark.parametrize("argv", [
    ["embed", "c.pgm", "m.pbm", "o.pgm", "--levels", "3"],
    ["extract", "c.pgm", "r.pgm", "o.pbm", "--levels", "3"],
    ["bench", "c.pgm", "m.pbm", "--levels", "3"],
    ["extract", "c.pgm", "r.pgm", "o.pbm", "--alpha", "0.4"],
    ["embed", "c.pgm", "m.pbm", "o.pgm", "--modulation", "negative"],
    ["extract", "c.pgm", "r.pgm", "o.pbm", "--modulation", "negative"],
    ["bench", "c.pgm", "m.pbm", "--modulation", "negative"],
    ["bench", "c.pgm", "m.pbm", "--repeat", "2"],
    ["bench", "c.pgm", "m.pbm", "--jpeg-sweep", "10..90",
     "--sweep-out", "s.csv"],
    ["bench", "c.pgm", "m.pbm", "--jpeg-sweep", "10..90",
     "--jpeg-sweep-step", "20"],
    ["attack", "i.pgm", "o.pgm", "add_noise", "--seed", "7"],
    *([*command, f"--q{level}", "0.05"]
      for command in Q_FLAG_COMMANDS for level in (1, 2, 3)),
], ids=["embed_levels", "extract_levels", "bench_levels", "extract_alpha",
        "embed_modulation", "extract_modulation", "bench_modulation",
        "bench_repeat", "bench_sweep_out", "bench_sweep_step", "attack_seed",
        *(f"{command[0]}_q{level}"
          for command in Q_FLAG_COMMANDS for level in (1, 2, 3))])
def test_removed_config_flags_are_usage_errors(argv, capsys, tmp_path,
                                               monkeypatch):
    # the depth is the number of q factors, and the CLI's q factors are
    # EmbedConfig's, so embed, extract and bench share one significance
    # map; extract's analysis reads no alpha; the polarity is fixed, a +1
    # bit scales c by 1 - alpha; a bench row is one trial at --seed; an
    # attack's seed is its spec's; a JPEG sweep steps by 10 into
    # <out stem>_sweep.csv
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in (
        capsys.readouterr().err)
    assert not any(tmp_path.iterdir())


def test_main_runs_the_command_bound_at_call_time(monkeypatch):
    # the parser is built once, but a rebound cmd_* (a wrapper, a test
    # double) must still be the one that runs
    assert main(["attack", "in.pgm", "out.pgm", "nope"]) == 1
    monkeypatch.setattr(cli, "cmd_attack", lambda args: 7)
    assert main(["attack", "in.pgm", "out.pgm", "nope"]) == 7


def test_extract_from_cover_near_chance(workdir, capsys, tmp_path):
    truth = tmp_path / "random.pbm"
    write_watermark(random_mark(77), truth)
    rc = main(["extract", str(workdir / "cover.pgm"), str(workdir / "cover.pgm"),
               str(workdir / "rec.pbm"), "--truth", str(truth)])
    assert rc == 0
    ber = float(capsys.readouterr().out.split("ber=")[1].split()[0])
    assert 0.3 <= ber <= 0.7


@pytest.fixture()
def small_cover(workdir, lena_like):
    """A 24x24 cover, too small to carry the 16x16 mark."""
    write_image(lena_like[:24, :24], workdir / "small.pgm")
    return workdir / "small.pgm"


def test_embed_rejects_cover_too_small_for_the_mark(workdir, small_cover,
                                                    capsys):
    rc = main(["embed", str(small_cover), str(workdir / "mark.pbm"),
               str(workdir / "small_marked.pgm")])
    assert rc == 1
    assert "cannot carry the mark: 112 of 256" in capsys.readouterr().err
    assert not (workdir / "small_marked.pgm").exists()


def test_extract_rejects_cover_too_small_for_the_mark(workdir, small_cover,
                                                      capsys):
    # the check looks only at the cover, so the unmarked cover serves as
    # the received image: embed refuses to mark it
    rc = main(["extract", str(small_cover), str(small_cover),
               str(workdir / "rec.pbm"), "--truth", str(workdir / "mark.pbm")])
    assert rc == 1
    assert "cannot carry the mark: 112 of 256" in capsys.readouterr().err
    assert not (workdir / "rec.pbm").exists()


def test_bench_rejects_cover_too_small_for_the_mark(workdir, small_cover,
                                                    capsys):
    rc = main(["bench", str(small_cover), str(workdir / "mark.pbm"),
               "--attacks", "median", "--detectors", "II",
               "--out", str(workdir / "r.json")])
    assert rc == 1
    assert "cannot carry the mark: 112 of 256" in capsys.readouterr().err
    assert not (workdir / "r.json").exists()


@pytest.mark.parametrize("truth, message", [
    ("missing.pbm", "missing.pbm"),
    ("small.pbm", "watermark must be 16x16, got 3x3"),
], ids=["missing", "malformed"])
def test_extract_reads_the_truth_mark_before_writing(workdir, capsys, truth,
                                                     message):
    (workdir / "small.pbm").write_text("P1\n3 3\n010\n101\n010\n")
    out = workdir / "rec.pbm"
    rc = main(["extract", str(workdir / "cover.pgm"), str(workdir / "cover.pgm"),
               str(out), "--truth", str(workdir / truth)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_extract_dimension_mismatch(workdir, lena_like):
    write_image(lena_like[:128, :128], workdir / "small.pgm")
    rc = main(["extract", str(workdir / "cover.pgm"), str(workdir / "small.pgm"),
               str(workdir / "rec.pbm")])
    assert rc != 0


def test_attack_command_writes_output(workdir):
    rc = main(["attack", str(workdir / "cover.pgm"), str(workdir / "att.pgm"),
               "jpeg:q=50"])
    assert rc == 0
    out = read_image(workdir / "att.pgm")
    assert out.shape == (256, 256)


def test_attack_gamma_identity(workdir):
    main(["attack", str(workdir / "cover.pgm"), str(workdir / "att.pgm"),
          "gamma:g=1.0"])
    assert (read_image(workdir / "att.pgm")
            == read_image(workdir / "cover.pgm")).all()


def test_attack_unknown_kind_lists_valid(workdir, capsys):
    rc = main(["attack", str(workdir / "cover.pgm"), str(workdir / "att.pgm"),
               "vortex"])
    assert rc != 0
    assert "valid kinds" in capsys.readouterr().err


def test_attack_seeded_determinism(workdir):
    args = ["attack", str(workdir / "cover.pgm"), None,
            "awgn:snr_db=11.4,seed=7"]
    args[2] = str(workdir / "a1.pgm")
    main(args)
    args[2] = str(workdir / "a2.pgm")
    main(args)
    assert (workdir / "a1.pgm").read_bytes() == (workdir / "a2.pgm").read_bytes()


NON_FINITE_SPECS = pytest.mark.parametrize(
    "spec", ["awgn:snr_db=-4000", "add_noise:amount=1e308"],
    ids=["awgn_overflow", "add_noise_nan"])


@NON_FINITE_SPECS
def test_attack_non_finite_result_fails(workdir, capsys, spec):
    out = workdir / "att.pgm"
    assert main(["attack", str(workdir / "cover.pgm"), str(out), spec]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@NON_FINITE_SPECS
def test_bench_non_finite_result_is_error_row(workdir, spec):
    rc = main(["bench", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
               "--attacks", f"median;{spec}", "--out", str(workdir / "r.json")])
    assert rc == 0
    rows = json.loads((workdir / "r.json").read_text())["attacks"]
    assert "detectors" in rows[0]
    assert "non-finite" in rows[1]["error"]
    assert "detectors" not in rows[1]


def test_bench_full_report_structure(workdir):
    rc = main(["bench", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
               "--seed", "3", "--out", str(workdir / "report.json")])
    assert rc == 0
    report = json.loads((workdir / "report.json").read_text())
    assert report["format_version"] == 1
    assert report["config"]["seed"] == 3
    assert len(report["attacks"]) == 14
    for row in report["attacks"]:
        assert row["seed"] == 3
        assert "spec" in row
        assert set(row["detectors"]) == {"I", "II"}
        for entry in row["detectors"].values():
            assert 0 <= entry["ber"] <= 1
            assert -1 <= entry["ncc"] <= 1
    tr = report["transparency"]
    assert 33 <= tr["psnr_db"] <= 41
    assert tr["modified_coefficients"] > 0


def test_bench_single_attack_row(workdir):
    main(["bench", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
          "--attacks", "median", "--out", str(workdir / "r.json")])
    report = json.loads((workdir / "r.json").read_text())
    assert len(report["attacks"]) == 1
    assert report["attacks"][0]["spec"] == "median"


def test_bench_bad_row_recorded_not_fatal(workdir):
    rc = main(["bench", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
               "--attacks", "median;warp:x=1", "--out", str(workdir / "r.json")])
    assert rc == 0
    report = json.loads((workdir / "r.json").read_text())
    assert "error" in report["attacks"][1]
    assert "detectors" in report["attacks"][0]


def test_bench_jpeg_sweep_csv(workdir):
    main(["bench", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
          "--attacks", "gamma", "--jpeg-sweep", "30..90",
          "--out", str(workdir / "r.json")])
    lines = (workdir / "r_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "quality,detector,ber,ncc"
    assert len(lines) == 1 + 7 * 2  # qualities 30,40,...,90 x detectors I,II
    rows = [ln.split(",") for ln in lines[1:]]
    by_det = {}
    for q, det, ber, ncc in rows:
        by_det.setdefault(det, []).append((int(q), float(ber)))
    for det, vals in by_det.items():
        vals.sort()
        bers = [b for _, b in vals]
        assert bers[0] >= bers[-1]  # higher quality never hurts


def test_bench_sweep_point_equals_its_attack_row(workdir, monkeypatch):
    monkeypatch.setattr(attacks._dct_memo, "slot", None)
    dcts = []
    block_dct = attacks._block_dct
    monkeypatch.setattr(attacks, "_block_dct",
                        lambda img: dcts.append(img.shape) or block_dct(img))
    main(["bench", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
          "--attacks", "jpeg:q=50", "--jpeg-sweep", "40..60",
          "--out", str(workdir / "r.json")])
    row = json.loads((workdir / "r.json").read_text())["attacks"][0]
    with open(workdir / "r_sweep.csv", newline="") as fh:
        sweep = list(csv.DictReader(fh))
    assert len(sweep) == 3 * 2
    at_50 = {s["detector"]: s for s in sweep if s["quality"] == "50"}
    assert sorted(at_50) == ["I", "II"]
    for name, entry in row["detectors"].items():
        assert (float(at_50[name]["ber"]), float(at_50[name]["ncc"])) == (
            entry["ber"], entry["ncc"])
    # the row transforms the transmitted image; every sweep point reuses it
    assert len(dcts) == 1


def fail_jpeg(monkeypatch):
    """Make cli.apply_attack fail on every jpeg spec, as no sweep quality
    fails on a cover of the right size; returns the specs it is given."""
    attacked = []
    apply_attack = cli.apply_attack

    def failing(img, spec, **kw):
        attacked.append(str(spec))
        if spec.kind == "jpeg":
            raise ValueError(f"{spec} failed")
        return apply_attack(img, spec, **kw)

    monkeypatch.setattr(cli, "apply_attack", failing)
    return attacked


def test_bench_failing_row_is_recorded_failing_sweep_point_stops(
        workdir, capsys, monkeypatch):
    bench = ["bench", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
             "--detectors", "h1,v1,d1", "--seed", "5"]
    message = "jpeg quality must be in [1,100], got 0"
    assert main([*bench, "--attacks", "median;jpeg:q=0",
                 "--out", str(workdir / "r.json")]) == 0
    rows = json.loads((workdir / "r.json").read_text())["attacks"]
    assert set(rows[0]["detectors"]) == {"h1,v1,d1"}
    assert rows[1] == {"spec": "jpeg:q=0", "seed": 5, "error": message}
    capsys.readouterr()
    fail_jpeg(monkeypatch)
    message = "jpeg:q=10 failed"
    assert main([*bench, "--attacks", "median", "--jpeg-sweep", "10..20",
                 "--out", str(workdir / "s.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workdir / "s.json").exists()
    assert not (workdir / "s_sweep.csv").exists()


def test_bench_failing_sweep_stops_before_the_attack_rows(
        workdir, monkeypatch, capsys):
    attacked = fail_jpeg(monkeypatch)
    assert main(["bench", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
                 "--jpeg-sweep", "10..20",
                 "--out", str(workdir / "s.json")]) == 1
    assert capsys.readouterr().err == "error: jpeg:q=10 failed\n"
    assert attacked == ["jpeg:q=10"]
    assert not (workdir / "s.json").exists()


def test_bench_deterministic_byte_identical(workdir):
    for name in ("r1", "r2"):
        main(["bench", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
              "--attacks", "median;add_noise;jpeg:q=50", "--seed", "11",
              "--jpeg-sweep", "40..80",
              "--out", str(workdir / f"{name}.json")])
    assert (workdir / "r1.json").read_bytes() == (workdir / "r2.json").read_bytes()
    assert ((workdir / "r1_sweep.csv").read_bytes()
            == (workdir / "r2_sweep.csv").read_bytes())


def test_bench_row_equals_standalone_composition(workdir, capsys):
    main(["embed", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
          str(workdir / "marked.pgm")])
    main(["attack", str(workdir / "marked.pgm"), str(workdir / "att.pgm"),
          "add_noise:seed=21"])
    main(["extract", str(workdir / "cover.pgm"), str(workdir / "att.pgm"),
          str(workdir / "rec.pbm"), "--detector", "I",
          "--truth", str(workdir / "mark.pbm")])
    standalone = capsys.readouterr().out
    ber = float(standalone.split("ber=")[1].split()[0])
    main(["bench", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
          "--attacks", "add_noise", "--seed", "21",
          "--out", str(workdir / "r.json")])
    report = json.loads((workdir / "r.json").read_text())
    assert report["attacks"][0]["detectors"]["I"]["ber"] == pytest.approx(ber)


def test_bench_row_seed_is_the_seed_it_drew_at(workdir):
    # a spec's seed= overrides --seed for its row, and the row says so; a
    # spec that fails to parse keeps --seed
    def bench(seed, attacks, name):
        main(["bench", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
              "--attacks", attacks, "--seed", seed,
              "--out", str(workdir / name)])
        return json.loads((workdir / name).read_text())["attacks"]

    rows = bench("9", "add_noise:seed=2;median;add_noise:seed=-5", "r9.json")
    assert [row["seed"] for row in rows] == [2, 9, 9]
    assert "error" in rows[2]
    [at_2] = bench("2", "add_noise", "r2.json")
    assert at_2["seed"] == 2 and at_2["detectors"] == rows[0]["detectors"]


def test_bench_detectors_are_semicolon_separated(workdir, capsys):
    # a comma belongs to a custom structure, as in extract --detector
    main(["embed", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
          str(workdir / "marked.pgm")])
    main(["attack", str(workdir / "marked.pgm"), str(workdir / "att.pgm"),
          "jpeg:q=20"])
    main(["extract", str(workdir / "cover.pgm"), str(workdir / "att.pgm"),
          str(workdir / "rec.pbm"), "--detector", "h2,v2,v3",
          "--truth", str(workdir / "mark.pbm")])
    standalone = capsys.readouterr().out
    ber = float(standalone.split("ber=")[1].split()[0])
    ncc = float(standalone.split("ncc=")[1].split()[0])
    rc = main(["bench", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
               "--attacks", "jpeg:q=20", "--detectors", "I;h2,v2,v3",
               "--out", str(workdir / "r.json")])
    assert rc == 0
    report = json.loads((workdir / "r.json").read_text())
    assert report["config"]["detectors"] == ["I", "h2,v2,v3"]
    entries = report["attacks"][0]["detectors"]
    assert set(entries) == {"I", "h2,v2,v3"}
    assert ber > 0 and entries["I"]["ber"] != ber
    assert entries["h2,v2,v3"] == {"ber": ber, "ncc": ncc}


def test_bench_detector_entries_do_not_depend_on_the_others(workdir):
    # each attacked image is decomposed into the union of the detectors'
    # subbands: II alone (3 subbands) must decode as II beside I (all nine)
    reports = {}
    for detectors in ("II", "I;II"):
        out = workdir / f"r_{detectors.replace(';', '_')}.json"
        assert main(["bench", str(workdir / "cover.pgm"),
                     str(workdir / "mark.pbm"), "--detectors", detectors,
                     "--attacks", "median;jpeg:q=30;add_noise;crop_half",
                     "--jpeg-sweep", "20..60", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        sweep = out.with_name(out.stem + "_sweep.csv").read_text().splitlines()
        reports[detectors] = (
            [row["detectors"]["II"] for row in report["attacks"]],
            [line for line in sweep if ",II," in line],
            report["transparency"])
    assert reports["II"] == reports["I;II"]
    assert len(reports["II"][1]) == 5


# sha256 of the files the golden bench run below writes; a change to
# embedding, attacks, extraction or report formatting shows up here
GOLDEN_SHA256 = {
    "report.json":
        "76dea6fbefd47d803e1a0355bcff17c212187f31fabb8548a9ba70b297a54fda",
    "report_sweep.csv":
        "96d9b0286fe01bfe1a623c013e226cbc0e65333e56497c710245c428b92a3b73",
}
# the header and the q = 40, 60, 80 lines of report_sweep.csv, pinned
# when the sweep of this run stepped by 20
GOLDEN_SWEEP_EVERY_20_SHA256 = (
    "5580d6358a9aa920ac90761962e076b637ef35707ffeb5fa9097fa15968ec065")


def test_bench_golden_bytes(tmp_path, monkeypatch, lena_like, mark):
    # the report echoes its input paths, so run on bare names
    monkeypatch.chdir(tmp_path)
    write_image(lena_like, "cover.pgm")
    write_watermark(mark, "mark.pbm")
    rc = main(["bench", "cover.pgm", "mark.pbm",
               "--attacks", "median;add_noise;jpeg:q=50", "--seed", "11",
               "--jpeg-sweep", "40..80"])
    assert rc == 0
    for name, digest in GOLDEN_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
    lines = (tmp_path / "report_sweep.csv").read_bytes().splitlines(True)
    every_20 = b"".join(line for line in lines
                        if not line.startswith((b"50,", b"70,")))
    assert hashlib.sha256(every_20).hexdigest() == GOLDEN_SWEEP_EVERY_20_SHA256


# the same for every DEFAULT_BENCH row and a nine-point JPEG sweep,
# recorded before median/erode/dilate and the vote tally were rewritten
GOLDEN_FULL_SHA256 = {
    "report.json":
        "d9d514430c9b5350805cd7c27918c1d37a57c824e59d8d936b675cbbfa612747",
    "report_sweep.csv":
        "35b9fcb41f68436a303befb7d4cacbf30bcdf4438fa2ad00a32b2f6209e613b9",
}


def test_full_default_bench_golden_bytes(tmp_path, monkeypatch, lena_like,
                                         mark):
    monkeypatch.chdir(tmp_path)
    write_image(lena_like, "cover.pgm")
    write_watermark(mark, "mark.pbm")
    rc = main(["bench", "cover.pgm", "mark.pbm", "--seed", "5",
               "--jpeg-sweep", "10..90"])
    assert rc == 0
    for name, digest in GOLDEN_FULL_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("flags, message", [
    (["--jpeg-sweep", ""], "bad sweep range: ''"),
    (["--jpeg-sweep", "0..10"], "1 <= LO <= HI <= 100"),
    (["--jpeg-sweep", "90..101"], "1 <= LO <= HI <= 100"),
    (["--seed", "-1"], "seed must be >= 0"),
    (["--detectors", "I;d9"], "d9 is deeper than the 3-level pyramid"),
    (["--detectors", "h0"], "levels start at 1"),
    (["--detectors", "I; I"], "--detectors names 'I' twice"),
    (["--detectors", "I;i"], "--detectors names 'i' twice"),
    (["--detectors", "II;h2,v2,v3"], "--detectors names 'h2,v2,v3' twice"),
    (["--detectors", "h1,v2;v2,h1"], "--detectors names 'v2,h1' twice"),
], ids=["sweep_empty", "sweep_low", "sweep_high", "seed",
        "detector_level", "detector_level_zero", "detector_twice",
        "detector_twice_spelt_otherwise", "detector_ii_as_a_list",
        "detector_list_reordered"])
def test_bench_rejects_bad_flags_before_work(workdir, capsys, monkeypatch,
                                             flags, message):
    def no_work(*_):
        raise AssertionError("bench read its inputs before checking flags")
    monkeypatch.setattr(cli, "read_raster", no_work)
    rc = main(["bench", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
               "--attacks", "median", "--out", str(workdir / "r.json"), *flags])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (workdir / "r.json").exists()


# output flags are checked with the others: neither a report nor a sweep
# CSV is written when one of them is bad
@pytest.mark.parametrize("flags, message", [
    (["--out", "{d}/nodir/r.json", "--jpeg-sweep", "10..20"],
     "output '{d}/nodir/r.json': no such directory"),
    (["--jpeg-sweep", "10..20"], "output '{d}/r_sweep.csv' is a directory"),
    (["--out", "{d}/s.json", "--jpeg-sweep", "10..20"],
     "sweep CSV '{d}/s_sweep.csv' is also --out"),
    (["--out", "{d}/nodir/r.json"],
     "output '{d}/nodir/r.json': no such directory"),
    (["--out", "{d}"], "output '{d}' is a directory"),
], ids=["sweep_dir_missing", "sweep_is_dir", "sweep_is_out_linked",
        "out_dir_missing", "out_is_dir"])
def test_bench_checks_its_outputs_before_work(workdir, capsys, monkeypatch,
                                              flags, message):
    def no_work(*_):
        raise AssertionError("bench read its inputs before checking flags")
    monkeypatch.setattr(cli, "read_raster", no_work)
    # the sweep CSVs of --out r.json and s.json: a directory, and a link
    # to the report; only a sweep refuses them
    (workdir / "r_sweep.csv").mkdir()
    (workdir / "s_sweep.csv").symlink_to(workdir / "s.json")
    before = sorted(workdir.iterdir())
    rc = main(["bench", str(workdir / "cover.pgm"), str(workdir / "mark.pbm"),
               "--out", str(workdir / "r.json"),
               *(flag.format(d=workdir) for flag in flags)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.format(d=workdir) in err
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("flags, message", [
    (["--detector", "h4"], "h4 is deeper than the 3-level pyramid"),
    (["--detector", "h2,h2,v3"], "twice"),
])
def test_extract_rejects_bad_detector_before_work(workdir, capsys, monkeypatch,
                                                  flags, message):
    def no_work(*_):
        raise AssertionError("extract read its inputs before checking flags")
    monkeypatch.setattr(cli, "read_raster", no_work)
    rc = main(["extract", str(workdir / "cover.pgm"), str(workdir / "cover.pgm"),
               str(workdir / "est.pbm"), *flags])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (workdir / "est.pbm").exists()


def test_round6_rejects_nan():
    assert _round6(float("inf")) == "inf"
    assert _round6(0.1234567) == 0.123457
    with pytest.raises(ValueError, match="NaN"):
        _round6(float("nan"))
    with pytest.raises(ValueError, match="-inf"):
        _round6(float("-inf"))


def test_attack_rejects_negative_seed_before_work(workdir, capsys,
                                                  monkeypatch):
    def no_work(*_):
        raise AssertionError("read an input before checking the seed")
    monkeypatch.setattr(cli, "read_raster", no_work)
    out = workdir / "out"
    assert main(["attack", str(workdir / "cover.pgm"), str(out),
                 "add_noise:seed=-5"]) == 1
    assert "bad value '-5' for add_noise.seed" in capsys.readouterr().err
    assert not out.exists()
