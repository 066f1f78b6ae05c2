"""Daubechies 4-tap orthogonal 2-D wavelet transform (analysis + synthesis).

Boundary handling is periodic (circular), which keeps every subband at
exactly half the parent size and gives perfect reconstruction with the
orthogonal filter pair.  Each 1-D step is polyphase: with e, o the even
and odd samples along the axis and S(e, o) both advanced one sample,
analysis is (low, high) = A0 @ (e, o) + A1 @ S(e, o), where
A0 = [[lo0, lo1], [hi0, hi1]] and A1 = [[lo2, lo3], [hi2, hi3]].  The bank
is orthogonal, so synthesis is the transposed step
(e, o) = A0.T @ (low, high) + A1.T @ S^-1(low, high), followed by
interleaving the two phases; no zero-filled upsampled array is built.

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
    hi = lo[::-1] * np.array([1.0, -1.0, 1.0, -1.0])
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


_A0, _A1 = np.hsplit(np.array(db2_filters()), 2)


def _step(a, b, m0, m1, shift):
    """m0 @ (a, b) + m1 @ roll((a, b), shift) on the last axis, summed term
    by term in that order so it rounds exactly like the direct 4-tap filter."""
    ra, rb = np.roll(a, shift, axis=-1), np.roll(b, shift, axis=-1)
    return [m0[r, 0] * a + m0[r, 1] * b + m1[r, 0] * ra + m1[r, 1] * rb
            for r in (0, 1)]


def _analyze_axis(x, axis):
    """One analysis step along `axis`: returns (low, high), each half-size."""
    x = np.moveaxis(x, axis, -1)
    low, high = _step(x[..., 0::2], x[..., 1::2], _A0, _A1, -1)
    return np.moveaxis(low, -1, axis), np.moveaxis(high, -1, axis)


def _synthesize_axis(low, high, axis):
    """Adjoint of _analyze_axis: merge half-size (low, high) along `axis`."""
    even, odd = _step(np.moveaxis(low, axis, -1), np.moveaxis(high, axis, -1),
                      _A0.T, _A1.T, 1)
    x = np.stack((even, odd), axis=-1).reshape(*even.shape[:-1], -1)
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
            h, v, d = (pyr.detail[(s, l)] for s in ORIENTATIONS)
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

