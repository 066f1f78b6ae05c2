"""Daubechies 4-tap orthogonal 2-D wavelet transform (analysis + synthesis).

Boundary handling is periodic (circular), which keeps every subband at
exactly half the parent size and gives perfect reconstruction with the
orthogonal filter pair.  Each 1-D step is polyphase: with e, o the even
and odd samples along the axis and S(e, o) both advanced one sample,
analysis is (low, high) = A0 @ (e, o) + A1 @ S(e, o), where
A0 = [[lo0, lo1], [hi0, hi1]] and A1 = [[lo2, lo3], [hi2, hi3]].  The bank
is orthogonal, so synthesis is the transposed step
(e, o) = A0.T @ (low, high) + A1.T @ S^-1(low, high), written straight
into the even and odd phase views of the next level's array; no
zero-filled upsampled array is built and nothing is interleaved after.

One kernel, _step, does every step of both directions along both axes.
It writes in place into preallocated outputs and works through the rows
in strips small enough that a strip's passes stay in L2 cache; no pass
streams a full-size temporary through memory.  Every output sample is
still ((c0*a + c1*b) + c2*S(a)) + c3*S(b), each product and sum one
rounded float operation in that order, so the coefficients are
bit-identical to the direct 4-tap filter whatever the strip size.

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


# weights (c0, c1, c2, c3) of _step, one row per output: analysis maps the
# phases (e, o) to (low, high) with the filter taps; the transposed
# synthesis maps (low, high) to phase r with (lo_r, hi_r, lo_r+2, hi_r+2)
_ANALYSIS = np.array(db2_filters())
_SYNTHESIS = np.array([_ANALYSIS[:, r::2].T.ravel() for r in (0, 1)])

# elements per strip: the passes over a strip's inputs, output and scratch
# buffers stay in L2 cache
_STRIP = 1 << 15


def _phases(x, axis):
    """(even, odd) sample views of a 2-D array along `axis`."""
    return (x[0::2], x[1::2]) if axis == 0 else (x[:, 0::2], x[:, 1::2])


def _step(a, b, weights, axis, shift, outs):
    """One polyphase step along `axis` of the 2-D arrays a, b, in place:

        outs[r] = ((c0*a + c1*b) + c2*S(a)) + c3*S(b),  (c0..c3) = weights[r]

    where S moves the samples cyclically, S(x)[i] = x[i - shift].  Each
    product and sum is one rounded float operation in that order, so the
    result is bit-identical to the direct 4-tap filter.

    Rows go in strips of about _STRIP elements.  A strip that is not
    contiguous (a phase view) is first copied into a contiguous buffer,
    and a strided output is filled from a contiguous accumulator, so every
    pass is one flat loop.  On the flat strip S is a shift by one row
    (axis 0) or one element (axis 1); that gets one edge wrong, the row
    that comes from outside the strip or the column that wraps within each
    row, and the edge is written after the shift.
    """
    rows, cols = a.shape
    height = max(1, _STRIP // cols)
    stage_a, stage_b, acc, scratch = (np.empty((min(height, rows), cols))
                                      for _ in range(4))
    d = cols if axis == 0 else 1
    src, dst = ((slice(d, None), slice(None, -d)) if shift < 0
                else (slice(None, -d), slice(d, None)))
    lead, tail = (0, -1) if shift < 0 else (-1, 0)
    for r0 in range(0, rows, height):
        r1 = min(r0 + height, rows)
        m = r1 - r0
        outside = (r1 if shift < 0 else r0 - 1) % rows
        sa = _contiguous(a[r0:r1], stage_a[:m])
        sb = _contiguous(b[r0:r1], stage_b[:m])
        t = scratch[:m]
        for out, (c0, c1, c2, c3) in zip(outs, weights):
            o = out[r0:r1]
            o_acc = o if o.flags.c_contiguous else acc[:m]
            np.multiply(sa, c0, out=o_acc)
            np.multiply(sb, c1, out=t)
            o_acc += t
            for x, sx, c in ((a, sa, c2), (b, sb, c3)):
                np.multiply(sx.ravel()[src], c, out=t.ravel()[dst])
                if axis == 0:
                    np.multiply(x[outside], c, out=t[tail])
                else:
                    np.multiply(sx[:, lead], c, out=t[:, tail])
                o_acc += t
            if o_acc is not o:
                o[...] = o_acc


def _contiguous(x, stage):
    """x itself if C-contiguous, else its copy in `stage`."""
    if x.flags.c_contiguous:
        return x
    stage[...] = x
    return stage


def _analysis(x, axis, outs):
    """Analysis step of x along `axis` into outs = (low, high), skipping
    an output that is None."""
    # a slice of the weight rows: a fancy index costs microseconds, and
    # this runs nine times a dwt2 call
    lo = 1 if outs[0] is None else 0
    hi = 1 if outs[1] is None else 2
    if lo < hi:
        _step(*_phases(x, axis), _ANALYSIS[lo:hi], axis, -1, outs[lo:hi])


def dwt2(img, levels, subbands=None):
    """Decompose a 2-D image into a `levels`-deep wavelet pyramid.

    Width and height must be divisible by 2**levels.  An integer image is
    read as it is: the kernel's staging copy converts it as astype(float64)
    would, so the result equals that of its float64 copy.  Any other image
    is converted to float64 first.

    `subbands`, an iterable of (orientation, level) keys, asks for only
    those detail subbands: the passes no other one needs are skipped, the
    pyramid's detail holds just them, each bit-identical to the full
    pyramid's, and its approx is None, so idwt2 refuses it.
    """
    img = np.asarray(img)
    if not np.issubdtype(img.dtype, np.integer):
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
    full = subbands is None
    every = {(s, l) for l in range(1, levels + 1) for s in ORIENTATIONS}
    wanted = every if full else set(subbands)
    if not wanted <= every:
        raise ValueError(f"no subband {min(wanted - every, key=repr)} "
                         f"in a {levels}-level pyramid")
    depth = max((l for _, l in wanted), default=0)

    detail = {}
    approx = img
    for l in range(1, depth + 1):
        h, w = approx.shape
        # which of approx, h, v, d this level computes
        need = (full or l < depth, *((s, l) in wanted for s in ORIENTATIONS))
        # the row pass's low half feeds (approx, h), its high half (v, d)
        halves = [np.empty((h, w // 2)) if any(pair) else None
                  for pair in (need[:2], need[2:])]
        _analysis(approx, 1, halves)
        approx, *bands = (np.empty((h // 2, w // 2)) if n else None
                          for n in need)
        _analysis(halves[0], 0, (approx, bands[0]))
        _analysis(halves[1], 0, bands[1:])
        detail.update(((s, l), band) for s, band in zip(ORIENTATIONS, bands)
                      if band is not None)
    return WaveletPyramid(levels=levels, detail=detail,
                          approx=approx if full else None)


def idwt2(pyr):
    """Reconstruct the image from a pyramid (inverse of dwt2)."""
    approx = pyr.approx
    if approx is None:
        raise ValueError("pyramid has no approximation band "
                         "(dwt2 was asked for selected subbands)")
    for l in range(pyr.levels, 0, -1):
        try:
            h, v, d = (pyr.detail[(s, l)] for s in ORIENTATIONS)
        except KeyError as e:
            raise ValueError(f"pyramid is missing subband {e.args[0]}") from None
        if not (h.shape == v.shape == d.shape == approx.shape):
            raise ValueError(
                f"inconsistent subband shapes at level {l}: "
                f"approx {approx.shape}, h {h.shape}, v {v.shape}, d {d.shape}")
        rows, cols = approx.shape
        lo_x, hi_x = np.empty((2 * rows, cols)), np.empty((2 * rows, cols))
        _step(approx, h, _SYNTHESIS, 0, 1, _phases(lo_x, 0))
        _step(v, d, _SYNTHESIS, 0, 1, _phases(hi_x, 0))
        approx = np.empty((2 * rows, 2 * cols))
        _step(lo_x, hi_x, _SYNTHESIS, 1, 1, _phases(approx, 1))
    return approx

