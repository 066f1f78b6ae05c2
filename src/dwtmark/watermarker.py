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

One significance map serves both sides: `vote_reference` alone selects
coefficients, `embed` writes through it and returns it in its report.
`extract_image` keeps the last cover it analysed with that map, so
checking many suspects against one original analyses the original once,
and decomposes each suspect only into the detector's subbands.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
        # a snapshot of plain floats: comparable, hashable and immutable
        # whatever sequence was passed
        object.__setattr__(self, "q", tuple(float(x) for x in self.q))
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
    reference: dict = field(default_factory=dict)  # vote_reference of the cover
    psnr: float = 0.0

    @property
    def modified(self):   # (s, l) -> count
        return {key: band.positions.size for key, band in self.reference.items()}

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
            # max|c| without a full-size |c| temporary; exactly equal
            thresholds[(s, l)] = cfg.q[l - 1] * max(band.max(), -band.min())
    return thresholds


def _bit_index(positions, shape):
    """Mark position (m mod 16)*16 + (n mod 16) of flat band positions."""
    # a gather from a uint8 map of the band; dividing every position by
    # the row length costs ten times more when most coefficients qualify
    rows, cols = shape
    bitmap = ((np.arange(rows) % WM_SIZE * WM_SIZE).astype(np.uint8)[:, None]
              + (np.arange(cols) % WM_SIZE).astype(np.uint8))
    return bitmap.ravel()[positions]


def embed(pyr, wm, cfg):
    """Modulate the coefficients vote_reference selects with the tiled mark.

    Returns (new pyramid, EmbedReport carrying that reference).
    """
    wm = validate_watermark(wm)
    reference = vote_reference(pyr, cfg)
    plane = (1.0 + cfg.mod_sign * cfg.alpha * wm).ravel()
    detail = dict(pyr.detail)
    for key, band in reference.items():
        # copy() gives C order, so ravel() is a view that takes the writes
        detail[key] = pyr.detail[key].copy()
        detail[key].ravel()[band.positions] = band.values * plane[band.bits]
    out = WaveletPyramid(levels=pyr.levels, detail=detail, approx=pyr.approx)
    return out, EmbedReport(reference)


class BandReference(NamedTuple):
    """One subband's qualifying cover coefficients (read-only arrays)."""
    shape: tuple
    positions: np.ndarray   # flat positions in the band
    values: np.ndarray      # cover coefficients c there
    signs: np.ndarray       # mod_sign * sgn(c), as +-1 integers
    bits: np.ndarray        # mark bit position of each


def vote_reference(cover_pyr, cfg):
    """The cover side of extraction, computed once per cover.

    Thresholds come from the cover.  A coefficient qualifies when |c| > T
    (c is then necessarily nonzero).  Returns dict (s, l) ->
    BandReference; its arrays are read-only, so one reference serves
    any number of received pyramids.
    """
    reference = {}
    for key, t in compute_thresholds(cover_pyr, cfg).items():
        c = cover_pyr.detail[key]
        positions = np.flatnonzero(np.abs(c) > t)
        values = c.ravel()[positions]
        signs = ((values > 0).astype(np.int8) * 2 - 1) * int(cfg.mod_sign)
        band = BandReference(c.shape, positions, values, signs,
                             _bit_index(positions, c.shape))
        for array in band[1:]:
            array.flags.writeable = False
        reference[key] = band
    return reference


def tally_votes(reference, received_pyr):
    """Tally per-subband sign votes for each of the 256 bit positions.

    Each qualifying coefficient's raw vote is sgn((c' - c) / c) ==
    sgn(c' - c) * sgn(c), sign-corrected for the modulation so that a
    clean roundtrip recovers the embedded bit.  Zero differences abstain.

    Returns dict (s, l) -> int array of shape (2, 16, 16): [0] counts of
    +1 votes, [1] counts of -1 votes.
    """
    n = WM_SIZE * WM_SIZE
    tallies = {}
    for key, band in reference.items():
        try:
            c_recv = received_pyr.detail[key]
        except KeyError:
            raise ValueError(f"received pyramid is missing subband {key}") from None
        if c_recv.shape != band.shape:
            raise ValueError(
                f"subband {key} shape mismatch: cover {band.shape}, "
                f"received {c_recv.shape}")
        diff = c_recv.ravel()[band.positions] - band.values
        vote = ((diff > 0).astype(np.intp) - (diff < 0)) * band.signs
        # planes 0, 1, 2 count the +1 votes, abstentions and -1 votes
        counts = np.bincount(band.bits + n * (1 - vote), minlength=3 * n)
        tallies[key] = counts.reshape(3, WM_SIZE, WM_SIZE)[::2]
    return tallies


def require_capacity(reference):
    """Raise ValueError unless every bit position has a qualifying coefficient.

    embed writes each bit into the qualifying coefficients at its tiled
    positions in every detail subband.  A position with none of them
    carries nothing, and any detector would silently decode it as +1.
    """
    covered = np.zeros(WM_SIZE * WM_SIZE, dtype=bool)
    for band in reference.values():
        covered[band.bits] = True
    uncovered = covered.size - np.count_nonzero(covered)
    if uncovered:
        raise ValueError(
            f"cover cannot carry the mark: {uncovered} of {covered.size} bit "
            f"positions have no qualifying coefficient in any of its "
            f"{len(reference)} detail subbands")


def extract_votes(cover_pyr, received_pyr, cfg):
    """Per-subband sign-vote tallies of received_pyr against the cover."""
    return tally_votes(vote_reference(cover_pyr, cfg), received_pyr)


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


def _embedding_psnr(reference, marked_pyr, pixels):
    """PSNR of an embedding, from the coefficients it changed.

    The db2 transform is orthonormal, so by Parseval the squared error
    of the real-valued reconstruction equals that of the coefficients.
    """
    sse = 0.0
    with np.errstate(over="ignore"):
        for key, band in reference.items():
            diff = marked_pyr.detail[key].ravel()[band.positions] - band.values
            sse += float(diff @ diff)
    if not math.isfinite(sse):
        raise ValueError("embedding squared error overflows: cover pixel "
                         "values are too large")
    if sse == 0.0:
        return math.inf
    return 10.0 * math.log10(metrics.DYNAMIC_RANGE ** 2 * pixels / sse)


def embed_image(cover, wm, cfg=EmbedConfig()):
    """Full pipeline: decompose, embed, reconstruct.

    Returns (watermarked image, EmbedReport); the report's psnr compares
    the real-valued reconstruction against the cover.  Raises ValueError
    when the cover cannot carry the mark (see require_capacity).
    """
    cover = finite_image(cover, "cover")
    pyr = dwt2(cover, cfg.levels)
    marked_pyr, report = embed(pyr, wm, cfg)
    require_capacity(report.reference)
    report.psnr = _embedding_psnr(report.reference, marked_pyr, cover.size)
    return idwt2(marked_pyr), report


# extract_image's last cover: (the reference's config fields, a read-only
# copy of the cover in the dtype it was passed, its vote_reference),
# replaced by one assignment so a racing thread reads the old slot or the
# new one, never a mix
_cover_memo = None


def _cover_reference(cover, cfg):
    """vote_reference of the cover, reused while cover and config repeat.

    The reference depends on the cover's pixels and on cfg's levels,
    modulation and q factors of those levels; a call that repeats all of
    them gets the stored reference (its arrays are read-only).  Pixels
    compare by value across dtypes, as dwt2 reads them.  A cover that
    fails require_capacity is never stored.
    """
    global _cover_memo
    key = (cfg.levels, cfg.modulation, cfg.q[:cfg.levels])
    memo = _cover_memo
    if memo is not None and memo[0] == key and np.array_equal(memo[1], cover):
        return memo[2]
    reference = vote_reference(dwt2(cover, cfg.levels), cfg)
    require_capacity(reference)
    held = cover.copy()
    held.flags.writeable = False
    _cover_memo = (key, held, reference)
    return reference


def _pixels(img, name):
    """An integer image as it is (always finite), else finite_image(img)."""
    img = np.asarray(img)
    return img if np.issubdtype(img.dtype, np.integer) else finite_image(img, name)


def extract_image(cover, received, cfg=EmbedConfig(), detector=DETECTOR_I):
    """Non-blind extraction: returns the decoded 16x16 {-1,+1} mark.

    Integer images (such as pixmap.read_raster's uint8) are used as they
    are; any other image must be finite and is read as float64.  Raises
    ValueError when the cover cannot carry the mark (see
    require_capacity).  Repeated calls with an equal cover and config
    reuse the cover's analysis; one copy of the last cover, in its
    dtype, and its reference stay in memory.  The received image is
    decomposed only into the detector's subbands.
    """
    cover = _pixels(cover, "cover")
    received = _pixels(received, "received")
    if cover.shape != received.shape:
        raise ValueError(
            f"cover {cover.shape} and received {received.shape} differ in size")
    reference = _cover_reference(cover, cfg)
    # a subband the reference lacks is left to decode to report
    used = {key: reference[key] for key in detector if key in reference}
    return decode(tally_votes(used, dwt2(received, cfg.levels, subbands=used)),
                  detector)


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
        pair = (item[0], int(item[1:]))
        if pair[1] < 1:
            raise ValueError(f"bad detector subband {item!r} (levels start at 1)")
        if pair in pairs:
            raise ValueError(f"detector names subband {item!r} twice")
        pairs.append(pair)
    if not pairs:
        raise ValueError("empty detector structure")
    return tuple(pairs)
