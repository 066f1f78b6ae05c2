"""Threshold-gated multiplicative embedding and majority-vote extraction.

Embedding: the image is decomposed into L levels; in every detail subband
the coefficients whose magnitude exceeds a subband-adaptive threshold
T = q_l * max|c| are modulated by c * (1 -/+ alpha*b), where b is the
mark bit tiled periodically over the subband.  The LL band is never
touched.  Negative modulation (the default) subtracts for a +1 bit.

Extraction is non-blind: thresholds and reference coefficients come from
the original cover.  Each qualifying coefficient casts a sign vote for
its bit position; votes aggregate within each subband first, then the
chosen detector's subband verdicts are combined by a second majority.
Ties abstain at the subband stage and default to +1 at the final stage,
so decoding is deterministic.
"""

from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .dwt import ORIENTATIONS, WaveletPyramid, dwt2, idwt2
from .pixmap import WM_SIZE, finite_image, validate_watermark

# detector structures from the two best-performing decoders: all nine
# detail subbands, and the low-frequency trio {h@2, v@2, v@3}
DETECTOR_I = tuple((s, l) for l in (1, 2, 3) for s in ORIENTATIONS)
DETECTOR_II = (("h", 2), ("v", 2), ("v", 3))

DETECTORS = {"I": DETECTOR_I, "II": DETECTOR_II}


@dataclass(frozen=True)
class EmbedConfig:
    """Embedding parameters: strength, per-level threshold factors, depth."""
    alpha: float = 0.4
    q: tuple = (0.06, 0.04, 0.02)
    levels: int = 3
    modulation: str = "negative"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if len(self.q) < self.levels:
            raise ValueError(
                f"need a q factor per level: {len(self.q)} given for "
                f"{self.levels} levels")
        if not all(0.0 < qi < 1.0 for qi in self.q):
            raise ValueError(f"q factors must be in (0,1), got {self.q}")
        if self.modulation not in ("negative", "positive"):
            raise ValueError(f"modulation must be negative or positive, "
                             f"got {self.modulation!r}")

    @property
    def mod_sign(self):
        """-1 for negative modulation (factor 1 - alpha*b), else +1."""
        return -1.0 if self.modulation == "negative" else 1.0


@dataclass
class EmbedReport:
    modified: dict = field(default_factory=dict)   # (s, l) -> count
    psnr: float = 0.0

    @property
    def total_modified(self):
        return sum(self.modified.values())


def compute_thresholds(pyr, cfg):
    """Per-subband thresholds T = q_l * max|c| over the detail bands."""
    if pyr.levels < cfg.levels:
        raise ValueError(
            f"pyramid has {pyr.levels} levels, config needs {cfg.levels}")
    thresholds = {}
    for l in range(1, cfg.levels + 1):
        for s in ORIENTATIONS:
            band = pyr.detail[(s, l)]
            thresholds[(s, l)] = cfg.q[l - 1] * np.abs(band).max()
    return thresholds


def _bit_index(shape):
    """Flat mark position (m mod 16)*16 + (n mod 16) of each coefficient."""
    rows = np.arange(shape[0]) % WM_SIZE
    cols = np.arange(shape[1]) % WM_SIZE
    return rows[:, None] * WM_SIZE + cols[None, :]


def embed(pyr, wm, cfg):
    """Modulate significant detail coefficients with the tiled mark.

    Returns (new pyramid, EmbedReport with per-subband modified counts).
    """
    wm = validate_watermark(wm)
    thresholds = compute_thresholds(pyr, cfg)
    report = EmbedReport()
    detail = dict(pyr.detail)
    for key, t in thresholds.items():
        band = pyr.detail[key]
        mask = np.abs(band) > t
        b = wm.ravel()[_bit_index(band.shape)]
        factor = 1.0 + cfg.mod_sign * cfg.alpha * b
        detail[key] = np.where(mask, band * factor, band)
        report.modified[key] = int(mask.sum())
    out = WaveletPyramid(levels=pyr.levels, detail=detail, approx=pyr.approx)
    return out, report


def extract_votes(cover_pyr, received_pyr, cfg):
    """Tally per-subband sign votes for each of the 256 bit positions.

    Thresholds are recomputed from the cover.  A coefficient qualifies
    when |c| > T (c is then necessarily nonzero); its raw vote is
    sgn((c' - c) / c), sign-corrected for the modulation so that a clean
    roundtrip recovers the embedded bit.  Zero ratios abstain.

    Returns dict (s, l) -> int array of shape (2, 16, 16): [0] counts of
    +1 votes, [1] counts of -1 votes.
    """
    thresholds = compute_thresholds(cover_pyr, cfg)
    tallies = {}
    for key, t in thresholds.items():
        c = cover_pyr.detail[key]
        try:
            c_recv = received_pyr.detail[key]
        except KeyError:
            raise ValueError(f"received pyramid is missing subband {key}") from None
        if c_recv.shape != c.shape:
            raise ValueError(
                f"subband {key} shape mismatch: cover {c.shape}, "
                f"received {c_recv.shape}")
        qualifying = (np.abs(c) > t) & (c != 0.0)
        # sgn((c'-c)/c) == sgn(c'-c) * sgn(c); correct the sign so the
        # estimate equals b on a clean channel
        vote = cfg.mod_sign * np.sign(c_recv - c) * np.sign(c)
        idx = _bit_index(c.shape)
        counts = [np.bincount(idx[qualifying & side], minlength=WM_SIZE * WM_SIZE)
                  for side in (vote > 0, vote < 0)]
        tallies[key] = np.stack(counts).reshape(2, WM_SIZE, WM_SIZE)
    return tallies


def decode(tallies, detector):
    """Two-stage majority vote over the detector's subbands.

    Each subband contributes sign(plus - minus) per bit position
    (abstaining on a tie or empty tally); the final bit is the sign of
    the verdict sum, with ties resolved to +1.
    """
    if not detector:
        raise ValueError("detector structure must name at least one subband")
    verdict_sum = np.zeros((WM_SIZE, WM_SIZE), dtype=np.int64)
    for key in detector:
        if key not in tallies:
            raise ValueError(f"detector names subband {key} absent from tallies")
        tally = tallies[key]
        verdict_sum += np.sign(tally[0] - tally[1]).astype(np.int64)
    return np.where(verdict_sum >= 0, 1, -1).astype(np.int8)


def embed_image(cover, wm, cfg=EmbedConfig()):
    """Full pipeline: decompose, embed, reconstruct.

    Returns (watermarked image, EmbedReport); the report's psnr compares
    the real-valued reconstruction against the cover.
    """
    cover = finite_image(cover, "cover")
    pyr = dwt2(cover, cfg.levels)
    marked_pyr, report = embed(pyr, wm, cfg)
    marked = idwt2(marked_pyr)
    report.psnr = metrics.psnr(cover, marked)
    return marked, report


def extract_image(cover, received, cfg=EmbedConfig(), detector=DETECTOR_I):
    """Non-blind extraction: returns the decoded 16x16 {-1,+1} mark."""
    cover = finite_image(cover, "cover")
    received = finite_image(received, "received")
    if cover.shape != received.shape:
        raise ValueError(
            f"cover {cover.shape} and received {received.shape} differ in size")
    tallies = extract_votes(dwt2(cover, cfg.levels),
                            dwt2(received, cfg.levels), cfg)
    return decode(tallies, detector)


def parse_detector(text):
    """Resolve 'I', 'II', or a custom list like 'h2,v2,v3'."""
    name = text.strip()
    if name.upper() in DETECTORS:
        return DETECTORS[name.upper()]
    pairs = []
    for item in name.split(","):
        item = item.strip().lower()
        if len(item) < 2 or item[0] not in ORIENTATIONS or not item[1:].isdigit():
            raise ValueError(
                f"bad detector subband {item!r} (want e.g. h2, v3, or I/II)")
        pairs.append((item[0], int(item[1:])))
    if not pairs:
        raise ValueError("empty detector structure")
    return tuple(pairs)
