"""Threshold-gated multiplicative embedding and majority-vote extraction.

Embedding: the image is decomposed into L levels; in every detail subband
the coefficients whose magnitude exceeds a subband-adaptive threshold
T = q_l * max|c| are modulated by c * (1 - alpha*b), where b is the
mark bit tiled periodically over the subband: a +1 bit scales c by
1 - alpha, a -1 bit by 1 + alpha.  The LL band is never touched.

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
and `tally_image` decomposes each suspect only into the detector's subbands.
"""

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from . import metrics
from .dwt import ORIENTATIONS, WaveletPyramid, dwt2, idwt2
from .pixmap import WM_SIZE, ImageMemo, input_image, validate_watermark

# detector structures from the two best-performing decoders: all nine
# detail subbands, and the low-frequency trio {h@2, v@2, v@3}
DETECTOR_I = tuple((s, l) for l in (1, 2, 3) for s in ORIENTATIONS)
DETECTOR_II = (("h", 2), ("v", 2), ("v", 3))

DETECTORS = {"I": DETECTOR_I, "II": DETECTOR_II}


@dataclass(frozen=True)
class EmbedConfig:
    """The embedding strength; the q factors, one per level, are constants
    because extraction recomputes the thresholds from the cover."""
    alpha: float = 0.4
    q: ClassVar[tuple] = (0.06, 0.04, 0.02)
    levels: ClassVar[int] = len(q)   # the pyramid depth

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")


@dataclass(frozen=True)
class EmbedReport:
    reference: dict  # vote_reference of the cover
    psnr: float      # of the real-valued reconstruction against the cover

    @property
    def modified(self):   # (s, l) -> count
        return {key: band.positions.size for key, band in self.reference.items()}

    @property
    def total_modified(self):
        return sum(self.modified.values())


def compute_thresholds(pyr):
    """Per-subband thresholds T = q_l * max|c| over the detail bands."""
    if pyr.levels < EmbedConfig.levels:
        raise ValueError(f"pyramid has {pyr.levels} levels, the scheme "
                         f"needs {EmbedConfig.levels}")
    thresholds = {}
    for l, q in enumerate(EmbedConfig.q, 1):
        for s in ORIENTATIONS:
            band = pyr.detail[(s, l)]
            # max|c| without a full-size |c| temporary; exactly equal
            thresholds[(s, l)] = q * max(band.max(), -band.min())
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

    Returns (new pyramid, EmbedReport carrying that reference and the
    PSNR).  db2 is orthonormal, so by Parseval the reconstruction's squared
    error is that of the coefficients, summed here as they are written.
    """
    wm = validate_watermark(wm)
    reference = vote_reference(pyr)
    plane = (1.0 - cfg.alpha * wm).ravel()
    detail = dict(pyr.detail)
    sse = 0.0
    with np.errstate(over="ignore"):
        for key, band in reference.items():
            new = band.values * plane[band.bits]
            # copy() gives C order, so ravel() is a view that takes the writes
            detail[key] = pyr.detail[key].copy()
            detail[key].ravel()[band.positions] = new
            diff = new - band.values
            sse += float(diff @ diff)
    if not math.isfinite(sse):
        raise ValueError("embedding squared error overflows: cover pixel "
                         "values are too large")
    pixels = 4 * pyr.detail[("h", 1)].size   # a level-1 band is 1/4 image
    psnr = (10.0 * math.log10(metrics.DYNAMIC_RANGE ** 2 * pixels / sse)
            if sse else math.inf)
    out = WaveletPyramid(levels=pyr.levels, detail=detail, approx=pyr.approx)
    return out, EmbedReport(reference, psnr)


class BandReference(NamedTuple):
    """One subband's qualifying cover coefficients (read-only arrays)."""
    shape: tuple
    positions: np.ndarray   # flat positions in the band
    values: np.ndarray      # cover coefficients c there
    signs: np.ndarray       # -sgn(c), as +-1 integers
    bits: np.ndarray        # mark bit position of each


def vote_reference(cover_pyr):
    """The cover side of extraction, computed once per cover.

    Thresholds come from the cover.  A coefficient qualifies when |c| > T
    (c is then necessarily nonzero).  Returns dict (s, l) ->
    BandReference; its arrays are read-only, so one reference serves
    any number of received pyramids.
    """
    reference = {}
    for key, t in compute_thresholds(cover_pyr).items():
        c = cover_pyr.detail[key]
        positions = np.flatnonzero(np.abs(c) > t)
        values = c.ravel()[positions]
        signs = (values < 0).astype(np.int8) * 2 - 1
        band = BandReference(c.shape, positions, values, signs,
                             _bit_index(positions, c.shape))
        for array in band[1:]:
            array.flags.writeable = False
        reference[key] = band
    return reference


def tally_votes(reference, received_pyr):
    """Tally per-subband sign votes for each of the 256 bit positions.

    Each qualifying coefficient's raw vote is sgn((c' - c) / c) ==
    sgn(c' - c) * sgn(c), negated because a +1 bit shrinks |c|, so that
    a clean roundtrip recovers the embedded bit.  Zero differences abstain.

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


def tally_image(reference, img, keys):
    """tally_votes of img in the reference's pyramid, decomposed only into
    the subbands `keys` names (decode reports one the reference lacks)."""
    used = {key: reference[key] for key in keys if key in reference}
    levels = max(l for _, l in reference)
    return tally_votes(used, dwt2(img, levels, subbands=used))


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


def extract_votes(cover_pyr, received_pyr, cfg=None):
    """Per-subband sign-vote tallies of received_pyr against the cover;
    cfg is not read, as extraction has no setting."""
    return tally_votes(vote_reference(cover_pyr), received_pyr)


def decode(tallies, detector):
    """Two-stage majority vote over the detector's subbands.

    Each subband contributes sign(plus - minus) per bit position
    (abstaining on a tie or empty tally); the final bit is the sign of
    the verdict sum, with ties resolved to +1.
    """
    if not detector:
        raise ValueError("detector structure must name at least one subband")
    for i, key in enumerate(detector):
        if key not in tallies:
            raise ValueError(f"detector names subband {key} absent from tallies")
        if key in detector[:i]:   # its verdict would count twice
            raise ValueError(f"detector names subband {key} twice")
    verdicts = sum(np.sign(tallies[key][0] - tallies[key][1]) for key in detector)
    return np.where(verdicts >= 0, 1, -1).astype(np.int8)


def embed_image(cover, wm, cfg=EmbedConfig()):
    """Full pipeline: decompose, embed, reconstruct.

    Returns (watermarked image, EmbedReport); the report's psnr compares
    the real-valued reconstruction against the cover.  Raises ValueError
    when the cover cannot carry the mark (see require_capacity).
    """
    cover = input_image(cover, "cover")
    pyr = dwt2(cover, EmbedConfig.levels)
    marked_pyr, report = embed(pyr, wm, cfg)
    require_capacity(report.reference)
    return idwt2(marked_pyr), report


# extract_image's last cover, in the dtype it was passed, and its
# vote_reference; the key is None, as the reference reads no setting
_cover_memo = ImageMemo()


def _cover_reference(cover):
    """vote_reference of the cover, if it passes require_capacity."""
    reference = vote_reference(dwt2(cover, EmbedConfig.levels))
    require_capacity(reference)
    return reference


def extract_image(cover, received, *, detector=DETECTOR_I):
    """Non-blind extraction: returns the decoded 16x16 {-1,+1} mark.

    Both images pass pixmap.input_image.  Raises ValueError when the
    cover cannot carry the mark (see require_capacity).  Repeated calls
    with an equal cover reuse the cover's analysis; one copy of the last
    cover, in its dtype, and its reference stay in memory.  The received
    image is decomposed only into the detector's subbands.
    """
    cover = input_image(cover, "cover")
    received = input_image(received, "received")
    if cover.shape != received.shape:
        raise ValueError(
            f"cover {cover.shape} and received {received.shape} differ in size")
    reference = _cover_memo.get(cover, None, _cover_reference)
    return decode(tally_image(reference, received, detector), detector)


def parse_detector(text):
    """Resolve 'I', 'II', or a custom list like 'h2,v2,v3' of at most
    EmbedConfig.levels levels."""
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
    for s, l in pairs:
        if l > EmbedConfig.levels:
            raise ValueError(f"detector subband {s}{l} is deeper than the "
                             f"{EmbedConfig.levels}-level pyramid")
    return tuple(pairs)
