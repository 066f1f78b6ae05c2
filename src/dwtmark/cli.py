"""Command-line front end: embed, extract, attack, and a bench harness.

The bench command analyses the cover once: embedding returns the cover's
vote reference, its one significance map.  It runs the attack catalog
against the watermarked image, tallies each attacked image once against
that reference (`tally_image`), decodes every requested detector
(`--detectors`, ';'-separated) from that one tally and writes a JSON
report (plus a CSV when a JPEG quality sweep is requested).
Reports are deterministic for a given (inputs, flags, seed).

Every command runs EmbedConfig()'s q factors, so embed, extract and bench
derive one significance map from a cover; only --alpha, which extraction
never reads, is settable (on embed and bench).
"""

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import metrics
from .attacks import DEFAULT_BENCH, apply_attack, parse_spec
from .pixmap import (quantize, read_raster, read_watermark, write_image,
                     write_watermark)
from .watermarker import (EmbedConfig, decode, embed_image, extract_image,
                          parse_detector, tally_image)

REPORT_VERSION = 1


def _round6(x):
    x = float(x)
    if math.isnan(x) or x == -math.inf:
        raise ValueError("refusing to report a "
                         f"{'NaN' if math.isnan(x) else '-inf'} metric")
    return "inf" if x == math.inf else round(x, 6)


def _detector(text):
    """parse_detector(text), refusing a subband deeper than the pyramid."""
    detector = parse_detector(text)
    levels = EmbedConfig().levels
    for s, l in detector:
        if l > levels:
            raise ValueError(f"detector subband {s}{l} is deeper than the "
                             f"{levels}-level pyramid")
    return detector


def cmd_embed(args):
    cfg = EmbedConfig(alpha=args.alpha)   # first: a bad alpha writes nothing
    cover = read_raster(args.cover)
    wm = read_watermark(args.watermark)
    marked, report = embed_image(cover, wm, cfg)
    write_image(marked, args.out)
    print(f"psnr_db={_round6(report.psnr)} "
          f"modified_coefficients={report.total_modified}", file=sys.stderr)
    return 0


def cmd_extract(args):
    detector = _detector(args.detector)
    truth = read_watermark(args.truth) if args.truth else None
    cover = read_raster(args.cover)
    received = read_raster(args.received)
    est = extract_image(cover, received, detector=detector)
    write_watermark(est, args.out)
    if args.truth:
        print(f"ber={_round6(metrics.ber(truth, est))} "
              f"ncc={_round6(metrics.ncc(truth, est))}")
    return 0


def cmd_attack(args):
    spec = parse_spec(args.spec)   # first: a bad seed= fails before the read
    write_image(apply_attack(read_raster(args.input), spec), args.out)
    return 0


def _bench_rows(args):
    if args.attacks == "all":
        return list(DEFAULT_BENCH)
    return [s.strip() for s in args.attacks.split(";") if s.strip()]


def _sweep_qualities(args):
    """The JPEG qualities --jpeg-sweep asks for (none when it is unset)."""
    if args.jpeg_sweep_step < 1:
        raise ValueError(
            f"--jpeg-sweep-step must be >= 1, got {args.jpeg_sweep_step}")
    if not args.jpeg_sweep:
        return range(0)
    lo, _, hi = args.jpeg_sweep.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"bad sweep range: {args.jpeg_sweep!r}") from None
    if not 1 <= lo <= hi <= 100:
        raise ValueError(f"--jpeg-sweep needs 1 <= LO <= HI <= 100, "
                         f"got {args.jpeg_sweep!r}")
    return range(lo, hi + 1, args.jpeg_sweep_step)


def cmd_bench(args):
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    qualities = _sweep_qualities(args)
    if args.sweep_out and not qualities:
        raise ValueError("--sweep-out needs --jpeg-sweep")
    sweep_path = (args.sweep_out or os.path.splitext(args.out)[0]
                  + "_sweep.csv") if qualities else None
    if sweep_path and os.path.realpath(sweep_path) == os.path.realpath(args.out):
        raise ValueError(f"--sweep-out {sweep_path!r} is also --out")
    for path in filter(None, (args.out, sweep_path)):
        if os.path.isdir(path):
            raise ValueError(f"output {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"output {path!r}: no such directory")
    cfg = EmbedConfig(alpha=args.alpha)
    detectors = {}
    for name in map(str.strip, args.detectors.split(";")):
        structure = _detector(name)
        if set(structure) in map(set, detectors.values()):
            raise ValueError(f"--detectors names {name!r} twice: an earlier "
                             f"detector has the same subbands")
        detectors[name] = structure
    cover = read_raster(args.cover)
    wm = read_watermark(args.watermark)

    marked, embed_report = embed_image(cover, wm, cfg)
    used = [key for structure in detectors.values() for key in structure]
    transmitted = quantize(marked).astype(np.uint8)

    def row(spec_text):
        """The report row of spec_text: one attack trial, at --seed
        unless the spec sets its own seed=, and the row's "seed" is the
        one drawn at (--seed for a spec that fails to parse).

        The attacked image is tallied once against the cover reference,
        in the detectors' subbands; every detector decodes from that one
        tally.  The marks are +-1, so NCC is exactly 1 - 2*BER.
        """
        seed = args.seed
        try:
            spec = parse_spec(spec_text)
            seed = spec.params.get("seed", args.seed)
            attacked = apply_attack(transmitted, spec, default_seed=args.seed)
            tallies = tally_image(embed_report.reference, attacked, used)
            bers = {name: metrics.ber(wm, decode(tallies, detectors[name]))
                    for name in sorted(detectors)}
        except ValueError as e:
            return {"spec": spec_text, "seed": seed, "error": str(e)}
        return {"spec": spec_text, "seed": seed,
                "detectors": {name: {"ber": _round6(b),
                                     "ncc": _round6(1.0 - 2.0 * b)}
                              for name, b in bers.items()}}

    # a sweep point is the row jpeg:q=N; one that fails stops the run,
    # so the sweep runs before the transparency metrics and attack rows
    sweep_rows = []
    for quality in qualities:
        point = row(f"jpeg:q={quality}")
        if "error" in point:
            raise ValueError(point["error"])
        sweep_rows += [(quality, name, scores["ber"], scores["ncc"])
                       for name, scores in point["detectors"].items()]

    report = {
        "format_version": REPORT_VERSION,
        "config": {
            "cover": args.cover,
            "watermark": args.watermark,
            "alpha": cfg.alpha,
            "q": list(cfg.q),
            "levels": cfg.levels,
            "modulation": "negative",   # the one polarity: c * (1 - alpha*b)
            "seed": args.seed,
            "detectors": sorted(detectors),
            # a row is one trial; the key stays, always 1, because the
            # golden tests and perfbench's digests hash the report's bytes
            "repeat": 1,
        },
        "transparency": {
            "psnr_db": _round6(embed_report.psnr),
            "ssim": _round6(metrics.ssim(cover, marked)),
            "kl_security": _round6(metrics.kl_security(cover, marked)),
            "mutual_information": _round6(metrics.mutual_information(cover, marked)),
            "modified_coefficients": embed_report.total_modified,
        },
        "attacks": [row(spec_text) for spec_text in _bench_rows(args)],
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if sweep_rows:
        with open(sweep_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["quality", "detector", "ber", "ncc"])
            writer.writerows(sweep_rows)
    print(f"report written to {args.out}", file=sys.stderr)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dwtmark",
        description="Wavelet-domain image watermarking: embed, extract, "
                    "attack simulation and robustness benchmarking.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed a 16x16 mark into a PGM image")
    p.add_argument("cover")
    p.add_argument("watermark")
    p.add_argument("out")
    p.add_argument("--alpha", type=float, default=EmbedConfig.alpha,
                   help="watermark strength in (0,1)")

    p = sub.add_parser("extract", help="recover the mark from a received image")
    p.add_argument("cover")
    p.add_argument("received")
    p.add_argument("out")
    p.add_argument("--detector", default="I",
                   help="I, II, or a subband list like h2,v2,v3")
    p.add_argument("--truth", help="reference mark (PBM) for BER/NCC")

    p = sub.add_parser("attack", help="apply one attack to an image")
    p.add_argument("input")
    p.add_argument("out")
    p.add_argument("spec", help="e.g. jpeg:q=50 or awgn:snr_db=11.4,seed=7")

    p = sub.add_parser("bench", help="run the full attack/detector matrix")
    p.add_argument("cover")
    p.add_argument("watermark")
    p.add_argument("--attacks", default="all",
                   help="'all' or ';'-separated attack specs")
    p.add_argument("--detectors", default="I;II",
                   help="';'-separated detectors: I, II, or subband lists "
                        "like h2,v2,v3")
    p.add_argument("--jpeg-sweep", default=None, metavar="LO..HI",
                   help="also sweep JPEG quality, e.g. 10..90")
    p.add_argument("--jpeg-sweep-step", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="report.json")
    p.add_argument("--sweep-out", default=None)
    p.add_argument("--alpha", type=float, default=EmbedConfig.alpha,
                   help="watermark strength in (0,1)")
    return parser


# built on first use and reused: parsing leaves the parser unchanged
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        # the cmd_* global as bound now, not when the parser was built
        return globals()[f"cmd_{args.command}"](args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
