"""dwtmark benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload mark|verify|robustness \
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (src/dwtmark and tests/synth.py
must be there; nothing is installed).  Each op is one call of the public CLI
entry point `dwtmark.cli.main`, in this process, started only after the
previous one returned.  BLAS/OpenMP pools are capped at one thread.

Set-up (render scenes, write the mark, one warm-up op) runs three times and
`setup_s` is its median.  The timed loop then runs ops until their summed
time reaches --seconds and the op count leaves ten samples beyond the
workload's tail percentile.  Inputs for the next op are written, and the
outputs of the last op checked, between ops and outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every op twice,
untraced and traced in alternating order, and prints per-op layer metrics from spans recorded
around each public dwtmark function (see tracer.py); the spans are written
to perfbench/out/.  Outputs are checked in both modes; at the default seed
of expected.json the digests of the inputs and of the first outputs must
match the recorded ones.  The last stdout line is the JSON result.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import invariants
import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("mark", "verify", "robustness")
E2E_UNITS = {"ops_per_s": "1/s", "latency_ms.p50": "ms", "latency_ms.tail": "ms",
             "correct_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
WALL_LIMIT_S = 150   # stop the loop early so that a run ends within three minutes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_program():
    """Import dwtmark from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    if not (src / "dwtmark" / "cli.py").is_file() or not (ROOT / "tests" / "synth.py").is_file():
        raise SystemExit(f"error: no dwtmark sources under {ROOT} "
                         "(need src/dwtmark and tests/synth.py)")
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import dwtmark
    if Path(dwtmark.__file__).resolve().parent != src / "dwtmark":
        raise SystemExit(f"error: imported dwtmark from {dwtmark.__file__}")


def environment():
    import numpy
    import scipy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "src_lines": src_lines}


def run_op(main, argv, tracer, op_id):
    """One closed-loop op; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.op_span(op_id) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            with span:
                code = main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:   # the loop must go on; the op counts as failed
            code = "exception"
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


class Run:
    """Counts, durations and problems of one benchmark run."""

    def __init__(self, wl, expected):
        self.wl = wl
        self.expected = expected   # {"inputs": [...], "outputs": [...]} or None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.inputs = []
        self.outputs = []

    def note(self, problem):
        if len(self.problems) < 20:
            self.problems.append(problem)

    def record(self, i, code, stdout, stderr):
        """Check one finished op; counts it as failed on any problem."""
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()[-500:]}"]
        else:
            try:
                problems = self.wl.check(i, stdout, stderr)
            except (OSError, ValueError) as e:
                problems = [f"output check raised {e!r}"]
        if code == 0 and i < self.wl.digest_ops:
            d = self.wl.output_digest(stdout, stderr)
            if len(self.outputs) <= i:
                self.outputs.append(d)
            recorded = self.expected["outputs"] if self.expected else []
            want = recorded[i] if i < len(recorded) else None
            if want and d != want:
                problems.append(f"output digest {d} != recorded {want}")
        for p in problems:
            self.note(f"op {i}: {p}")
        self.failed += bool(problems)


def measure(wl, run, main, seconds, tracer, min_ops, started):
    """The closed loop; returns (untraced durations, traced durations)."""
    plain, traced = [], []
    i = 0
    while True:
        argv, in_digest = wl.prepare(i)
        if i < wl.digest_ops:
            run.inputs.append(in_digest)
        # traced and untraced runs of the same op, alternating which goes
        # first so that neither always finds the caches warm
        order = ((None, tracer) if i % 2 == 0 else (tracer, None)) if tracer else (None,)
        for t in order:
            code, out, err, dt = run_op(main, argv, t, i)
            (traced if t else plain).append(dt)
            run.record(i, code, out, err)
        i += 1
        if sum(plain) + sum(traced) >= seconds and i >= min_ops:
            break
        if time.monotonic() - started > WALL_LIMIT_S:
            print(f"warning: stopped after {i} ops at the wall-time limit",
                  file=sys.stderr)
            break
    return plain, traced


def main(argv=None):
    started = time.monotonic()
    args = parse_args(argv)
    load_program()
    from dwtmark import attacks, cli, dwt, metrics, pixmap, watermarker
    from workloads import WARMUP, WORKLOADS

    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)
    at_default = args.seed == expected["default_seed"]
    wl = WORKLOADS[args.workload](args.seed)
    run = Run(wl, expected["workloads"].get(wl.name) if at_default else None)
    env = environment()

    work = OUT / f"work-{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        setup_s, scene_digests = [], set()
        warm = Run(wl, None)
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            scene_digests.add(wl.setup())
            warm_argv, _ = wl.prepare(WARMUP)
            warm.record(WARMUP, *run_op(cli.main, warm_argv, None, WARMUP)[:3])
            setup_s.append(time.perf_counter() - t0)

        tracer = tr.Tracer() if args.trace else None
        p = wl.tail_percentile
        min_ops = 1 if args.trace else invariants.min_samples(p)
        modules = {"pixmap": pixmap, "dwt": dwt, "watermarker": watermarker,
                   "attacks": attacks, "metrics": metrics, "cli": cli}
        instrument = (tr.instrumented(tracer, modules) if tracer
                      else contextlib.nullcontext())
        with instrument:
            plain, traced = measure(wl, run, cli.main, args.seconds, tracer,
                                    min_ops, started)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    correct = run.failed == 0 and warm.failed == 0
    for problem in warm.problems:
        run.note(f"warm-up: {problem}")
    if len(scene_digests) != 1:
        correct = False
        run.note(f"set-up rendered different scenes across repeats: {scene_digests}")
    inputs = sorted(scene_digests)[:1] + run.inputs
    if run.expected and inputs != run.expected["inputs"][:len(inputs)]:
        correct = False
        run.note("generated inputs differ from expected.json: the input "
                 "generator changed, so times are not comparable")

    info = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "env": env, "ops": len(plain), "tail_percentile": p,
            "rule_percentile": invariants.tail_percentile(len(plain)),
            "setup_s_all": setup_s, "failed_ratio": run.failed / run.attempted,
            "digests": {"inputs": inputs, "outputs": run.outputs},
            "problems": run.problems}

    if tracer:
        tr.write_spans(tracer.spans, OUT / f"spans-{wl.name}-seed{args.seed}.jsonl",
                       info)
        values = tr.layer_metrics(tracer.spans, len(traced))
        values["trace.overhead_ratio"] = sum(traced) / sum(plain)
        units = tr.metric_units()
    else:
        values = dict(zip(("ops_per_s", "latency_ms.p50", "latency_ms.tail"),
                          invariants.latency_summary(plain, p)))
        values["correct_ratio"] = 1 - run.failed / run.attempted
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["setup_s"] = statistics.median(setup_s)
        units = E2E_UNITS
    metrics_out = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
