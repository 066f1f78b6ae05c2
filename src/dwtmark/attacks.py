"""Channel attack catalog: deterministic image impairments.

Every attack takes an image that passes pixmap.input_image and models
it as saved and transmitted: a uint8 image is used as it is, any other
is quantized to 8 bits first.  It returns an 8-bit-valued image of the
same size.  The 3x3 median, erosion and dilation are min/max networks on
those 8-bit values, so they are exact: there is no arithmetic to round.
Noise attacks draw from a seeded position-indexed generator, so a given
(spec, seed) is bit-reproducible.  A JPEG quality sweep of one image runs
its forward DCT once (see `_dct_memo`).

Specs serialize as ``kind:key=value,key=value`` strings, e.g. ``jpeg:q=50``
or ``awgn:snr_db=11.4,seed=7``.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import fft as sfft
from scipy import ndimage

from .pixmap import ImageMemo, input_image, quantize


class AttackSpecError(ValueError):
    """Unknown attack kind or invalid parameter."""


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __str__(self):
        if not self.params:
            return self.kind
        args = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}:{args}"


def parse_spec(text):
    """Parse a ``kind:key=value,...`` string into an AttackSpec."""
    kind, _, rest = text.strip().partition(":")
    kind = kind.strip()
    _, defaults = _catalog_entry(kind)
    params = {}
    for item in rest.split(",") if rest else ():
        key, _, value = (part.strip() for part in item.partition("="))
        if key in params:
            raise AttackSpecError(f"{kind} names parameter {key!r} twice")
        params[key] = _checked(kind, defaults, key, value)
    return AttackSpec(kind=kind, params=params)


def _catalog_entry(kind):
    """CATALOG[kind], else AttackSpecError naming the valid kinds."""
    if kind not in CATALOG:
        raise AttackSpecError(f"unknown attack {kind!r}; valid kinds: "
                              f"{', '.join(sorted(CATALOG))}")
    return CATALOG[kind]


def _checked(kind, defaults, key, value):
    """`value` as the type of `key`'s default, which must convert it (or
    parse it, from a spec string) without loss; AttackSpecError unless
    the key is known, and the value finite and, for a seed, >= 0."""
    if key not in defaults:
        raise AttackSpecError(f"bad parameter {key!r} for {kind} "
                              f"(valid: {', '.join(defaults) or 'none'})")
    try:
        cast = type(defaults[key])(value)
        exact = isinstance(value, str) or cast == value
    except (TypeError, ValueError, OverflowError):
        exact = False
    if (not exact or not -math.inf < cast < math.inf
            or (key == "seed" and cast < 0)):
        raise AttackSpecError(f"bad value {value!r} for {kind}.{key}")
    return cast


def apply_attack(img, spec, default_seed=0):
    """Run one attack; returns the impaired 8-bit-valued image."""
    impl, defaults = _catalog_entry(spec.kind)
    params = dict(defaults)
    if "seed" in params:
        params["seed"] = default_seed
    params.update(spec.params)
    params = {key: _checked(spec.kind, defaults, key, value)
              for key, value in params.items()}
    img = input_image(img, "input")
    img = img.astype(np.float64) if img.dtype == np.uint8 else quantize(img)
    # an overflow or NaN on the way shows in the result, checked below
    with np.errstate(all="ignore"):
        out = impl(img, **params)
    if not np.isfinite(out).all():
        raise AttackSpecError(
            f"attack {spec.kind} gives non-finite pixels with {params}: "
            "a parameter is out of range")
    out = quantize(out)
    if out.shape != img.shape:
        raise ValueError(f"attack {spec.kind} changed the image shape "
                         f"from {img.shape} to {out.shape}")
    return out


# --- pixel-domain attacks ---------------------------------------------------

def _rank3x3(img, kernel):
    """Run a 3x3 rank kernel over an 8-bit-valued image, edge-replicated.

    The image is padded by one replicated row or column on each side, as
    uint8 (min and max do no arithmetic, so uint8 gives the same values
    as float64 on integers in [0, 255]).  Flattened, the padded rows
    above, at and below the image are three contiguous slices;
    `kernel(above, centre, below, out)` combines them and fills `out`,
    whose element k is the window centred on flat element k + 1 of the
    centre slice, so the padding columns' outputs are dropped.
    """
    h, w = img.shape
    stride = w + 2
    flat = np.pad(img.astype(np.uint8), 1, mode="edge").ravel()
    res = np.empty(h * stride, dtype=np.uint8)
    kernel(flat[:h * stride], flat[stride:(h + 1) * stride],
           flat[2 * stride:], res[:-2])
    return res.reshape(h, stride)[:, :w].astype(np.float64)


def _across(op, x, out=None):
    """op over each element of a flat array and its next two neighbours."""
    out = op(x[:-2], x[1:-1], out=out)
    return op(out, x[2:], out=out)


def _med3(a, b, c, out=None):
    """Elementwise median of three: max(min(a, b), min(max(a, b), c))."""
    low = np.minimum(a, b, out=out)
    return np.maximum(low, np.minimum(np.maximum(a, b), c), out=low)


def _median9(above, centre, below, out):
    """3x3 median by Paeth's 19-exchange median-of-9 network.

    The network's first nine exchanges sort the window's three column
    triples; each triple is shared by three neighbouring windows, so it
    is sorted once here.  The median is then the median of the largest
    low, the median of the middles and the smallest high of the window's
    three columns.
    """
    lo = np.minimum(above, centre)
    hi = np.maximum(above, centre)
    mid = np.minimum(hi, below)
    np.maximum(hi, below, out=hi)
    lo, mid = np.minimum(lo, mid), np.maximum(lo, mid)
    _med3(_across(np.maximum, lo), _med3(mid[:-2], mid[1:-1], mid[2:]),
          _across(np.minimum, hi), out)


def _extreme9(op, above, centre, below, out):
    """3x3 minimum or maximum (op), separably: columns, then rows."""
    _across(op, op(op(above, centre), below), out)


def _median(img):
    return _rank3x3(img, _median9)


def _lpf(img):
    return ndimage.correlate(img, np.full((3, 3), 1.0 / 9.0), mode="nearest")


def _gaussian_kernel3(sigma):
    x2 = np.arange(-1, 2, dtype=np.float64) ** 2
    # in numpy, so a sigma whose 2 * sigma**2 overflows gives the 3x3 box
    k = np.exp(-(x2[:, None] + x2[None, :]) / (2.0 * np.float64(sigma) ** 2))
    return k / k.sum()


def _gaussian_filter(img, sigma):
    if sigma <= 0:
        raise AttackSpecError(f"gaussian sigma must be > 0, got {sigma}")
    return ndimage.correlate(img, _gaussian_kernel3(sigma), mode="nearest")


def _histogram_eq(img):
    values = img.astype(np.int64)
    hist = np.bincount(values.ravel(), minlength=256)
    cdf = np.cumsum(hist)
    nonzero = cdf[cdf > 0]
    cdf_min = nonzero[0]
    total = values.size
    if total == cdf_min:          # constant image: nothing to equalize
        return img
    lut = np.floor((cdf - cdf_min) / (total - cdf_min) * 255.0 + 0.5)
    return lut[values]


def _crop_half(img):
    h, w = img.shape
    kh = int(h / math.sqrt(2.0))
    kw = int(w / math.sqrt(2.0))
    top = (h - kh) // 2
    left = (w - kw) // 2
    out = np.full_like(img, 128.0)
    out[top:top + kh, left:left + kw] = img[top:top + kh, left:left + kw]
    return out


def _invert(img):
    return 255.0 - img


def _range_map(img, low, up):
    if not 0 <= low < up <= 255:
        raise AttackSpecError(f"need 0 <= low < up <= 255, got [{low}, {up}]")
    return low + img * (up - low) / 255.0


def _add_noise(img, pixels, amount, seed):
    if not 0.0 < pixels <= 1.0:
        raise AttackSpecError(f"pixel fraction must be in (0,1], got {pixels}")
    rng = np.random.default_rng(seed)
    hit = rng.random(img.shape) < pixels
    noise = np.where(rng.random(img.shape) < 0.5, -1.0, 1.0)
    noise *= hit
    noise *= amount * 255.0
    noise += img
    return noise


def _bilinear_resize(img, out_h, out_w):
    h, w = img.shape
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    gy, gx = 1 - fy, 1 - fx
    # top[x0]*gy*gx + top[x1]*gy*fx + bottom[x0]*fy*gx + bottom[x1]*fy*fx
    # with each product and sum in that order (so the bytes match the plain
    # formula), built in two output-sized buffers instead of a dozen
    top, bottom = img[y0], img[y1]
    acc = np.take(top, x0, axis=1)
    acc *= gy
    acc *= gx
    term = np.empty_like(acc)
    for rows, cols, wy, wx in ((top, x1, gy, fx), (bottom, x0, fy, gx),
                               (bottom, x1, fy, fx)):
        # mode="clip" is not buffered as the default "raise" is with out=;
        # the indices are in range, so it clips nothing
        np.take(rows, cols, axis=1, out=term, mode="clip")
        term *= wy
        term *= wx
        acc += term
    return acc


def _rescale(img):
    h, w = img.shape
    small = _bilinear_resize(img, max(h // 2, 1), max(w // 2, 1))
    return _bilinear_resize(small, h, w)


def _erode(img):
    return _rank3x3(img, partial(_extreme9, np.minimum))


def _dilate(img):
    return _rank3x3(img, partial(_extreme9, np.maximum))


def _gamma(img, g):
    if g <= 0:
        raise AttackSpecError(f"gamma must be > 0, got {g}")
    out = img / 255.0
    out **= g
    out *= 255.0
    return out


def _sharpen(img, lam):
    out = _lpf(img)
    np.subtract(img, out, out=out)
    out *= lam
    out += img
    return out


def _awgn(img, snr_db, seed):
    # in numpy, a noise scale too large for a float overflows to inf
    power = np.mean(img ** 2)
    sigma = np.sqrt(power * np.float64(10.0) ** (-snr_db / 10.0))
    return img + np.random.default_rng(seed).standard_normal(img.shape) * sigma


def _intensity_adjust(img):
    lo = img.min()
    hi = img.max()
    if hi == lo:
        return img
    return (img - lo) * 255.0 / (hi - lo)


# --- JPEG round-trip --------------------------------------------------------

# ITU-T81 Annex K.1 luminance quantization table
BASE_LUMA_QT = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)


def quality_table(quality):
    """Scale the base luminance table by the conventional quality rule."""
    if not 1 <= quality <= 100:
        raise AttackSpecError(f"jpeg quality must be in [1,100], got {quality}")
    scale = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    return np.maximum(1.0, np.floor(BASE_LUMA_QT * scale / 100.0 + 0.5))


# the last image the codec transformed, held as uint8, and its read-only
# blockwise DCT: a JPEG quality sweep transforms one image once
_dct_memo = ImageMemo(np.uint8)


def _block_dct(img):
    """The image's read-only 8x8 blockwise DCT, level-shifted by 128."""
    h, w = img.shape
    blocks = img.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3) - 128.0
    coefs = sfft.dctn(blocks, type=2, norm="ortho", axes=(2, 3),
                      overwrite_x=True)
    coefs.flags.writeable = False
    return coefs


def _jpeg(img, q):
    """Baseline JPEG distortion model: blockwise DCT quantization round-trip.

    Level-shift by 128, 8x8 orthonormal DCT-II, divide by the scaled
    luminance table rounding half away from zero, dequantize, inverse
    DCT, unshift; apply_attack then clamps.  Entropy coding is lossless
    and therefore omitted; all the damage comes from coefficient
    quantization.
    """
    h, w = img.shape
    if h % 8 or w % 8:
        raise AttackSpecError(f"jpeg needs dimensions divisible by 8, got {h}x{w}")
    qt = quality_table(int(q))
    coefs = _dct_memo.get(img, None, _block_dct)
    # sign(c) * floor(|c| / qt + 0.5) * qt, in place: the same rounded
    # operations with fewer full-size temporaries
    levels = np.abs(coefs)
    levels /= qt
    levels += 0.5
    np.floor(levels, out=levels)
    levels *= np.sign(coefs)
    levels *= qt
    rec = sfft.idctn(levels, type=2, norm="ortho", axes=(2, 3),
                     overwrite_x=True)
    rec += 128.0
    return rec.transpose(0, 2, 1, 3).reshape(h, w)


# kind -> (implementation, default params); a "seed" default marks an
# attack as randomized
CATALOG = {
    "median": (_median, {}),
    "lpf": (_lpf, {}),
    "gaussian_filter": (_gaussian_filter, {"sigma": 0.8}),
    "histogram_eq": (_histogram_eq, {}),
    "crop_half": (_crop_half, {}),
    "invert": (_invert, {}),
    "range_map": (_range_map, {"low": 25, "up": 215}),
    "add_noise": (_add_noise, {"pixels": 0.10, "amount": 0.20, "seed": 0}),
    "rescale": (_rescale, {}),
    "erode": (_erode, {}),
    "dilate": (_dilate, {}),
    "gamma": (_gamma, {"g": 0.8}),
    "sharpen": (_sharpen, {"lam": 1.0}),
    "awgn": (_awgn, {"snr_db": 11.4, "seed": 0}),
    "jpeg": (_jpeg, {"q": 50}),
    "intensity_adjust": (_intensity_adjust, {}),
}

# benchmark rows in table order; sharpen at full strength is the "edge"
# row, at half strength the "edge encoder" row
DEFAULT_BENCH = (
    "median",
    "lpf",
    "histogram_eq",
    "crop_half",
    "invert",
    "sharpen:lam=0.5",
    "range_map",
    "gaussian_filter",
    "add_noise",
    "rescale",
    "erode",
    "dilate",
    "gamma",
    "sharpen:lam=1.0",
)
