"""Per-layer timings of dwtmark, and the benchmark's end-to-end results.

    python benchmarks/layers.py [SIZE ...] [--root [NAME=]DIR ...]
        [--rounds R] [--repeats N] [--perfbench-seconds S] [--out FILE]

Times each layer of the north star on square synthetic covers of the given
sizes (default 256 512 1024): PGM write, PGM raster read, dwt2, idwt2,
compute_thresholds, embed, vote_reference, tally_votes, tally_image
(Detector I's subbands of the uint8 suspect), decode, embed_image,
extract_image (the same cover again, two covers in turn, and the same
uint8 cover with a uint8 suspect under Detector II), every catalog
attack, the JPEG sweep (the nine qualities 10..90 of `bench --jpeg-sweep`
on one uint8 image, two images taking turns across calls), psnr, ssim,
kl_security and mutual_information; at 256 also the default `dwtmark
bench --jpeg-sweep 10..90`, two covers taking turns.  A layer's figure is the median of N
perf_counter timings after one warm-up call.

Each checkout (--root, default the one holding this script; it needs
src/dwtmark and tests/synth.py) is timed in its own process.  With several
checkouts the processes take turns for R rounds, so that a host whose
speed drifts slows them alike, and each layer reports the median over the
rounds.  Then each checkout's perfbench/run.py runs every workload R times
at the held-out seed of its perfbench/expected.json, the checkouts again
taking turns, and each metric reports the median over the runs (skip
with --perfbench-seconds 0).

Also recorded: the commit and whether the tree had uncommitted changes,
the src/dwtmark line count, the CPU count and the numpy/scipy versions.
The JSON goes to --out, or to stdout.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import itertools
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mark", "verify", "robustness")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("sizes", nargs="*", type=int, default=[256, 512, 1024])
    p.add_argument("--root", action="append", default=[],
                   metavar="[NAME=]DIR", help="checkout to time (repeatable)")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--repeats", type=int, default=11)
    p.add_argument("--perfbench-seconds", type=float, default=20.0)
    p.add_argument("--out", default=None)
    p.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if (min(args.sizes) < 64 or args.rounds < 1 or args.repeats < 1
            or args.perfbench_seconds < 0):
        p.error("sizes must be >= 64, --rounds and --repeats >= 1 and "
                "--perfbench-seconds >= 0")
    return args


def median_ms(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1e3, 4)


def time_layers(root, sizes, repeats):
    """Layer -> median ms per size, importing dwtmark from root/src."""
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import synth
    from dwtmark import attacks, cli, dwt, metrics, pixmap, watermarker as wmk

    cfg = wmk.EmbedConfig()
    wm = synth.benchmark_mark()
    results = {}
    sweep = [attacks.parse_spec(f"jpeg:q={q}") for q in range(10, 100, 10)]

    def jpeg_sweep(img):
        for spec in sweep:
            attacks.apply_attack(img, spec)

    def bench(cover_path, out):
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(["bench", str(cover_path), str(mark_path),
                      "--jpeg-sweep", "10..90", "--out", str(out)])

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "image.pgm"
        mark_path = Path(tmp) / "mark.pbm"
        pixmap.write_watermark(wm, mark_path)
        for n in sizes:
            cover = synth.benchmark_image(1, n)
            other = synth.benchmark_image(2, n)
            pyr = dwt.dwt2(cover, cfg.levels)
            marked, _ = wmk.embed_image(cover, wm, cfg)
            sent = pixmap.quantize(marked)
            received = dwt.dwt2(sent, cfg.levels)
            reference = wmk.vote_reference(pyr, cfg)
            tallies = wmk.tally_votes(reference, received)
            turns = itertools.cycle([other, cover])
            cover_u8, sent_u8 = (pixmap.quantize(x).astype("uint8")
                                 for x in (cover, sent))
            sent_turns = itertools.cycle(
                [sent_u8, pixmap.quantize(other).astype("uint8")])
            layers = {
                "pixmap.write_image": lambda: pixmap.write_image(marked, path),
                "pixmap.read_raster": lambda: pixmap.read_raster(path),
                "dwt.dwt2": lambda: dwt.dwt2(cover, cfg.levels),
                "dwt.idwt2": lambda: dwt.idwt2(pyr),
                "watermarker.compute_thresholds":
                    lambda: wmk.compute_thresholds(pyr, cfg),
                "watermarker.embed": lambda: wmk.embed(pyr, wm, cfg),
                "watermarker.vote_reference":
                    lambda: wmk.vote_reference(pyr, cfg),
                "watermarker.tally_votes":
                    lambda: wmk.tally_votes(reference, received),
                "watermarker.tally_image":
                    lambda: wmk.tally_image(reference, sent_u8, wmk.DETECTOR_I),
                "watermarker.decode":
                    lambda: wmk.decode(tallies, wmk.DETECTOR_I),
                "watermarker.embed_image":
                    lambda: wmk.embed_image(cover, wm, cfg),
                "watermarker.extract_image":
                    lambda: wmk.extract_image(cover, sent, cfg),
                "watermarker.extract_image.covers_in_turn":
                    lambda: wmk.extract_image(next(turns), sent, cfg),
                "watermarker.extract_image.uint8_detector_ii":
                    lambda: wmk.extract_image(cover_u8, sent_u8, cfg,
                                              wmk.DETECTOR_II),
                "metrics.psnr": lambda: metrics.psnr(cover, marked),
                "metrics.ssim": lambda: metrics.ssim(cover, marked),
                "metrics.kl_security": lambda: metrics.kl_security(cover, marked),
                "metrics.mutual_information":
                    lambda: metrics.mutual_information(cover, marked),
            }
            for kind in sorted(attacks.CATALOG):
                spec = attacks.parse_spec(kind)
                layers[f"attacks.apply_attack.{kind}"] = (
                    lambda spec=spec: attacks.apply_attack(sent, spec))
            layers["attacks.jpeg_sweep"] = lambda: jpeg_sweep(next(sent_turns))
            if n == 256:
                covers = [Path(tmp) / f"cover_{i}.pgm" for i in (1, 2)]
                for img, cover_path in zip((cover, other), covers):
                    pixmap.write_image(img, cover_path)
                cover_turns = itertools.cycle(covers)
                layers["cli.bench.jpeg_sweep"] = lambda: bench(
                    next(cover_turns), Path(tmp) / "report.json")
            results[str(n)] = {name: median_ms(fn, repeats)
                               for name, fn in layers.items()}
    return results


def describe(root):
    """Commit, uncommitted-change flag and src/dwtmark line count."""
    def git(*cmd):
        return subprocess.run(["git", "-C", str(root), *cmd], text=True,
                              capture_output=True).stdout.strip()
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((root / "src" / "dwtmark").glob("*.py")))
    return {"commit": git("rev-parse", "HEAD") or None,
            "uncommitted_changes": bool(git("status", "--porcelain",
                                            "--untracked-files=no")),
            "src_lines": lines}


def last_json_line(cmd, root):
    """Run cmd in root; its last stdout line parsed as JSON."""
    done = subprocess.run(cmd, cwd=root, text=True, capture_output=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:3])} failed in {root}:\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_child(root, args):
    return last_json_line(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(root),
         "--repeats", str(args.repeats), *map(str, args.sizes)], root)


def run_perfbench(root, workload, seconds):
    seed = json.loads((root / "perfbench" / "expected.json").read_text())[
        "held_out_seed"]
    return last_json_line(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"], root)


def medians(results):
    """Key -> median over a list of {key: number} dicts."""
    return {key: statistics.median(r[key] for r in results)
            for key in results[0]}


def summarize_perfbench(runs):
    return {"runs": len(runs),
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "median": medians([{k: v["value"] for k, v in r["metrics"].items()}
                               for r in runs])}


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        json.dump(time_layers(Path(args.child), args.sizes, args.repeats),
                  sys.stdout)
        return 0
    roots = {}
    for item in args.root or [str(HERE.parent)]:
        name, _, path = item.rpartition("=")
        root = Path(path).resolve()
        roots[name or describe(root)["commit"] or root.name] = root
    # each round the checkouts take turns, the first one alternating
    turns = [list(roots.items())[::1 - 2 * (i % 2)] for i in range(args.rounds)]

    layer_runs = {name: [] for name in roots}
    for turn in turns:
        for name, root in turn:
            layer_runs[name].append(run_child(root, args))
    checkouts = {name: {**describe(root), "layers_ms": {
        size: medians([r[size] for r in layer_runs[name]])
        for size in layer_runs[name][0]}} for name, root in roots.items()}
    if args.perfbench_seconds:
        bench_runs = {name: {w: [] for w in WORKLOADS} for name in roots}
        for turn in turns:
            for workload in WORKLOADS:
                for name, root in turn:
                    bench_runs[name][workload].append(
                        run_perfbench(root, workload, args.perfbench_seconds))
        for name in roots:
            checkouts[name]["perfbench"] = {
                w: summarize_perfbench(runs)
                for w, runs in bench_runs[name].items()}

    import numpy
    import scipy
    report = {
        "host": {"cpu_count": os.cpu_count(),
                 "usable_cpus": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__, "scipy": scipy.__version__},
        "method": {"sizes": args.sizes, "rounds": args.rounds,
                   "repeats": args.repeats,
                   "perfbench_seconds": args.perfbench_seconds},
        "checkouts": checkouts,
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
