"""Daubechies 4-tap orthogonal 2-D wavelet transform (analysis + synthesis).

Boundary handling is periodic (circular), which keeps every subband at
exactly half the parent size and gives perfect reconstruction with the
orthogonal filter pair.  Downsampling keeps the even-indexed outputs;
synthesis mirrors that phase.

Orientation convention (fixed):
    'h' = low-pass along rows, high-pass along columns  (horizontal edges)
    'v' = high-pass along rows, low-pass along columns  (vertical edges)
    'd' = high-pass along both axes                     (diagonal detail)
Level 1 is the finest scale; the recursion descends through the
approximation band.
"""

import math
from dataclasses import dataclass

import numpy as np

ORIENTATIONS = ("h", "v", "d")


def db2_filters():
    """Return (lowpass, highpass) 4-tap analysis filters.

    lowpass = [1+sqrt3, 3+sqrt3, 3-sqrt3, 1-sqrt3] / (4*sqrt2);
    highpass is its quadrature mirror: g[k] = (-1)^k * h[3-k].
    """
    s3 = math.sqrt(3.0)
    lo = np.array([1.0 + s3, 3.0 + s3, 3.0 - s3, 1.0 - s3]) / (4.0 * math.sqrt(2.0))
    hi = lo[::-1].copy()
    hi[1::2] *= -1.0
    return lo, hi


@dataclass(frozen=True)
class WaveletPyramid:
    """L-level detail subbands plus the coarsest approximation band.

    detail maps (orientation, level) -> coefficient matrix; approx is the
    level-L low-pass residue.
    """
    levels: int
    detail: dict
    approx: np.ndarray


def _analyze_axis(x, axis):
    """One analysis step along `axis`: returns (low, high), each half-size."""
    lo, hi = db2_filters()
    x = np.moveaxis(x, axis, -1)
    low = np.zeros((*x.shape[:-1], x.shape[-1] // 2))
    high = np.zeros_like(low)
    for k in range(4):
        shifted = np.roll(x, -k, axis=-1)[..., ::2]
        low += lo[k] * shifted
        high += hi[k] * shifted
    return np.moveaxis(low, -1, axis), np.moveaxis(high, -1, axis)


def _synthesize_axis(low, high, axis):
    """Adjoint of _analyze_axis: merge half-size (low, high) along `axis`."""
    lo, hi = db2_filters()
    low = np.moveaxis(low, axis, -1)
    high = np.moveaxis(high, axis, -1)
    n = 2 * low.shape[-1]
    up_lo = np.zeros((*low.shape[:-1], n))
    up_hi = np.zeros_like(up_lo)
    up_lo[..., ::2] = low
    up_hi[..., ::2] = high
    x = np.zeros_like(up_lo)
    for k in range(4):
        x += lo[k] * np.roll(up_lo, k, axis=-1)
        x += hi[k] * np.roll(up_hi, k, axis=-1)
    return np.moveaxis(x, -1, axis)


def dwt2(img, levels):
    """Decompose a 2-D image into a `levels`-deep wavelet pyramid.

    Width and height must be divisible by 2**levels.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {img.shape}")
    if levels < 1:
        raise ValueError(f"level count must be >= 1, got {levels}")
    h, w = img.shape
    div = 1 << levels
    if h % div or w % div:
        raise ValueError(
            f"image dimensions {h}x{w} not divisible by 2^{levels}")

    detail = {}
    approx = img
    for l in range(1, levels + 1):
        lo_x, hi_x = _analyze_axis(approx, axis=1)
        approx, detail[("h", l)] = _analyze_axis(lo_x, axis=0)
        detail[("v", l)], detail[("d", l)] = _analyze_axis(hi_x, axis=0)
    return WaveletPyramid(levels=levels, detail=detail, approx=approx)


def idwt2(pyr):
    """Reconstruct the image from a pyramid (inverse of dwt2)."""
    approx = pyr.approx
    for l in range(pyr.levels, 0, -1):
        try:
            h = pyr.detail[("h", l)]
            v = pyr.detail[("v", l)]
            d = pyr.detail[("d", l)]
        except KeyError as e:
            raise ValueError(f"pyramid is missing subband {e.args[0]}") from None
        if not (h.shape == v.shape == d.shape == approx.shape):
            raise ValueError(
                f"inconsistent subband shapes at level {l}: "
                f"approx {approx.shape}, h {h.shape}, v {v.shape}, d {d.shape}")
        lo_x = _synthesize_axis(approx, h, axis=0)
        hi_x = _synthesize_axis(v, d, axis=0)
        approx = _synthesize_axis(lo_x, hi_x, axis=1)
    return approx

