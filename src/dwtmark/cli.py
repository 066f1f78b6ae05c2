"""Command-line front end: embed, extract, attack, and a bench harness.

The bench command analyses the cover once: embedding returns the cover's
vote reference, its one significance map.  It runs the attack catalog
against the watermarked image, decomposes each attacked image once, into
the subbands the requested detectors use, and tallies it against that
reference, decodes every requested detector
(`--detectors`, ';'-separated) from that image's one vote tally and
writes a JSON report (plus a CSV when a JPEG quality sweep is requested).
Reports are deterministic for a given (inputs, flags, seed).
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
from .dwt import dwt2
from .pixmap import (quantize, read_image, read_raster, read_watermark,
                     write_image, write_watermark)
from .watermarker import (EmbedConfig, decode, embed_image, extract_image,
                          parse_detector, tally_votes)

REPORT_VERSION = 1
SEED_ENV = "DWTMARK_SEED"


def _round6(x):
    x = float(x)
    if math.isnan(x):
        raise ValueError("refusing to report a NaN metric")
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return round(x, 6)


def _config_from_args(args):
    return EmbedConfig(alpha=args.alpha, q=(args.q1, args.q2, args.q3),
                       levels=args.levels, modulation=args.modulation)


def _add_config_flags(p):
    p.add_argument("--alpha", type=float, default=0.4,
                   help="watermark strength in (0,1)")
    p.add_argument("--q1", type=float, default=0.06)
    p.add_argument("--q2", type=float, default=0.04)
    p.add_argument("--q3", type=float, default=0.02)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--modulation", choices=("negative", "positive"),
                   default="negative")


def _default_seed(args):
    """The attack seed: --seed, else $DWTMARK_SEED, else 0."""
    seed = args.seed if args.seed is not None else os.environ.get(SEED_ENV, "0")
    try:
        seed = int(seed)
    except ValueError:
        raise ValueError(f"bad {SEED_ENV} value: {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _detector(text, cfg):
    """parse_detector(text), refusing a subband deeper than cfg.levels."""
    detector = parse_detector(text)
    for s, l in detector:
        if l > cfg.levels:
            raise ValueError(f"detector subband {s}{l} is deeper than "
                             f"--levels {cfg.levels}")
    return detector


def cmd_embed(args):
    cover = read_image(args.cover)
    wm = read_watermark(args.watermark)
    cfg = _config_from_args(args)
    marked, report = embed_image(cover, wm, cfg)
    write_image(marked, args.out)
    print(f"psnr_db={_round6(report.psnr)} "
          f"modified_coefficients={report.total_modified}", file=sys.stderr)
    return 0


def cmd_extract(args):
    cfg = _config_from_args(args)
    detector = _detector(args.detector, cfg)
    cover = read_raster(args.cover)
    received = read_raster(args.received)
    est = extract_image(cover, received, cfg, detector)
    write_watermark(est, args.out)
    if args.truth:
        truth = read_watermark(args.truth)
        print(f"ber={_round6(metrics.ber(truth, est))} "
              f"ncc={_round6(metrics.ncc(truth, est))}")
    return 0


def cmd_attack(args):
    spec = parse_spec(args.spec)
    seed = _default_seed(args)
    out = apply_attack(read_image(args.input), spec, default_seed=seed)
    write_image(out, args.out)
    return 0


def _bench_rows(args):
    if args.attacks == "all":
        return list(DEFAULT_BENCH)
    return [s.strip() for s in args.attacks.split(";") if s.strip()]


def _sweep_qualities(args):
    """The JPEG qualities --jpeg-sweep asks for (none when it is unset)."""
    if not args.jpeg_sweep:
        return range(0)
    if args.jpeg_sweep_step < 1:
        raise ValueError(
            f"--jpeg-sweep-step must be >= 1, got {args.jpeg_sweep_step}")
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
    if args.repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
    qualities = _sweep_qualities(args)
    seed = _default_seed(args)
    cfg = _config_from_args(args)
    detectors = {name.strip(): _detector(name, cfg)
                 for name in args.detectors.split(";")}
    cover = read_image(args.cover)
    wm = read_watermark(args.watermark)

    marked, embed_report = embed_image(cover, wm, cfg)
    # the cover's map, restricted to the subbands some detector uses
    reference = {key: embed_report.reference[key]
                 for structure in detectors.values() for key in structure}
    transmitted = quantize(marked)

    def score(spec_text, repeat):
        """Detector name -> (BERs, NCCs) over `repeat` seeded trials.

        Each attacked image is decomposed into the detectors' subbands
        and tallied once against the cover reference; every detector
        decodes from that one tally.
        """
        spec = parse_spec(spec_text)
        runs = {name: ([], []) for name in sorted(detectors)}
        for rep_i in range(repeat):
            attacked = apply_attack(transmitted, spec, default_seed=seed + rep_i)
            tallies = tally_votes(reference, dwt2(attacked, cfg.levels,
                                                  subbands=reference))
            for name, (bers, nccs) in runs.items():
                est = decode(tallies, detectors[name])
                bers.append(metrics.ber(wm, est))
                nccs.append(metrics.ncc(wm, est))
        return runs

    report = {
        "format_version": REPORT_VERSION,
        "config": {
            "cover": args.cover,
            "watermark": args.watermark,
            "alpha": cfg.alpha,
            "q": list(cfg.q),
            "levels": cfg.levels,
            "modulation": cfg.modulation,
            "seed": seed,
            "detectors": sorted(detectors),
            "repeat": args.repeat,
        },
        "transparency": {
            "psnr_db": _round6(embed_report.psnr),
            "ssim": _round6(metrics.ssim(cover, marked)),
            "kl_security": _round6(metrics.kl_security(cover, marked)),
            "mutual_information": _round6(metrics.mutual_information(cover, marked)),
            "modified_coefficients": embed_report.total_modified,
        },
        "attacks": [],
    }

    for spec_text in _bench_rows(args):
        row = {"spec": spec_text, "seed": seed}
        try:
            runs = score(spec_text, args.repeat)
        except ValueError as e:
            row["error"] = str(e)
        else:
            row["detectors"] = {}
            for name, (bers, nccs) in runs.items():
                entry = {"ber": _round6(np.mean(bers)),
                         "ncc": _round6(np.mean(nccs))}
                if args.repeat > 1:
                    entry["ber_std"] = _round6(np.std(bers))
                row["detectors"][name] = entry
        report["attacks"].append(row)

    sweep_rows = []
    for quality in qualities:
        for name, (bers, nccs) in score(f"jpeg:q={quality}", 1).items():
            sweep_rows.append((quality, name, _round6(bers[0]), _round6(nccs[0])))

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if sweep_rows:
        sweep_path = args.sweep_out or (os.path.splitext(args.out)[0] + "_sweep.csv")
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
    _add_config_flags(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="recover the mark from a received image")
    p.add_argument("cover")
    p.add_argument("received")
    p.add_argument("out")
    p.add_argument("--detector", default="I",
                   help="I, II, or a subband list like h2,v2,v3")
    p.add_argument("--truth", help="reference mark (PBM) for BER/NCC")
    _add_config_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("attack", help="apply one attack to an image")
    p.add_argument("input")
    p.add_argument("out")
    p.add_argument("spec", help="e.g. jpeg:q=50 or awgn:snr_db=11.4,seed=7")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_attack)

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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--repeat", type=int, default=1,
                   help="trials per seeded attack (mean/std reported)")
    p.add_argument("--out", default="report.json")
    p.add_argument("--sweep-out", default=None)
    _add_config_flags(p)
    p.set_defaults(func=cmd_bench)
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
