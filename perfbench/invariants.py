"""The benchmark's arithmetic and the paper invariants it checks outputs against.

Every check returns a list of problems; an empty list means the output
passed.  They take the text and files the CLI produced, so a hand-made bad
report can be fed to them directly (see test_perfbench.py).
"""

import csv
import io
import math
import re
import statistics
from fractions import Fraction

# conventional reporting percentiles; the tail is the highest of these with
# at least MIN_BEYOND samples above it
PERCENTILE_LADDER = (50, 75, 90, 99, 99.9)
MIN_BEYOND = 10
NCC_TOL = 2e-6   # ber and ncc are each rounded to 6 decimals
DETECTORS = ("I", "II")   # the bench default, which the workloads use


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples, in exact arithmetic."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def beyond(n, p):
    """Samples ranked above the nearest-rank p-th percentile of n samples."""
    return n - rank(n, p)


def tail_percentile(n, ladder=PERCENTILE_LADDER):
    """Highest ladder percentile with at least ten samples beyond it, or None."""
    ok = [p for p in ladder if beyond(n, p) >= MIN_BEYOND]
    return max(ok) if ok else None


def min_samples(p):
    """Fewest samples that leave ten beyond the p-th percentile."""
    n = 1
    while beyond(n, p) < MIN_BEYOND:
        n += 1
    return n


def percentile(values, p):
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[rank(len(ranked), p) - 1]


def latency_summary(durations, p):
    """(ops per second of timed wall time, p50 ms, p-th percentile ms)."""
    return (len(durations) / math.fsum(durations),
            statistics.median(durations) * 1e3,
            percentile(durations, p) * 1e3)


def _ncc_problem(where, ber, ncc):
    if not (isinstance(ber, (int, float)) and isinstance(ncc, (int, float))):
        return [f"{where}: non-numeric ber/ncc {ber!r}/{ncc!r}"]
    if not (math.isfinite(ber) and math.isfinite(ncc)):
        return [f"{where}: non-finite ber/ncc {ber!r}/{ncc!r}"]
    if abs(ncc - (1 - 2 * ber)) > NCC_TOL:
        return [f"{where}: ncc {ncc} != 1 - 2*ber ({1 - 2 * ber})"]
    return []


_EXTRACT_LINE = re.compile(r"^ber=(\S+) ncc=(\S+)$")
_EMBED_LINE = re.compile(r"^psnr_db=(\S+) modified_coefficients=(\d+)$")


def parse_extract(stdout):
    """(ber, ncc) from `dwtmark extract --truth` output, or None."""
    m = _EXTRACT_LINE.match(stdout.strip())
    if not m:
        return None
    try:
        return float(m.group(1)), float(m.group(2))
    except ValueError:
        return None


def check_extract(stdout, clean):
    """`extract --truth` prints ber and ncc = 1 - 2*ber; a clean copy has ber 0."""
    parsed = parse_extract(stdout)
    if parsed is None:
        return [f"extract: unparsable output {stdout!r}"]
    ber, ncc = parsed
    problems = _ncc_problem("extract", ber, ncc)
    if clean and ber != 0:
        problems.append(f"extract: clean suspect decoded with ber {ber}")
    return problems


def check_embed(stderr):
    """`embed` reports a finite PSNR and a positive modified-coefficient count."""
    m = _EMBED_LINE.match(stderr.strip())
    if not m:
        return [f"embed: unparsable output {stderr!r}"]
    try:
        psnr = float(m.group(1))
    except ValueError:
        return [f"embed: bad psnr {m.group(1)!r}"]
    problems = []
    if not math.isfinite(psnr):
        problems.append(f"embed: non-finite psnr {m.group(1)}")
    if int(m.group(2)) == 0:
        problems.append("embed: no coefficient modified")
    return problems


def _non_finite(obj, path="report"):
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{path}[{i}]")]
    if isinstance(obj, str) and obj in ("-inf", "nan"):
        return [f"{path}: encoded non-finite value {obj!r}"]
    if isinstance(obj, float) and math.isnan(obj):
        return [f"{path}: NaN"]
    return []


def check_bench_report(report, rows):
    """A bench report: `rows` attack rows, none with an error, every
    detector entry with ncc = 1 - 2*ber, and no '-inf'/'nan' anywhere."""
    problems = _non_finite(report)
    attacks = report.get("attacks")
    if not isinstance(attacks, list) or len(attacks) != rows:
        return problems + [f"bench: expected {rows} attack rows"]
    for i, row in enumerate(attacks):
        where = f"bench row {i} ({row.get('spec')})"
        if "error" in row:
            problems.append(f"{where}: error {row['error']!r}")
            continue
        entries = row.get("detectors", {})
        for name in DETECTORS:
            if name not in entries:
                problems.append(f"{where}: detector {name} missing")
                continue
            problems += _ncc_problem(f"{where} detector {name}",
                                     entries[name].get("ber"),
                                     entries[name].get("ncc"))
    return problems


def check_sweep_csv(text, rows):
    """The sweep CSV: header, `rows` rows, ncc = 1 - 2*ber on each."""
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or lines[0] != ["quality", "detector", "ber", "ncc"]:
        return ["sweep: bad header"]
    body = lines[1:]
    problems = [] if len(body) == rows else [f"sweep: {len(body)} rows, expected {rows}"]
    for i, row in enumerate(body):
        if len(row) != 4:
            problems.append(f"sweep row {i}: {len(row)} fields")
            continue
        quality, detector, ber, ncc = row
        where = f"sweep q={quality} detector {detector}"
        try:
            problems += _ncc_problem(where, float(ber), float(ncc))
        except ValueError:
            problems.append(f"{where}: non-numeric ber/ncc {ber!r}/{ncc!r}")
    return problems
