"""Channel attack catalog: deterministic image impairments.

Every attack quantizes its input to 8-bit first (it models an image that
was saved and transmitted) and returns an 8-bit-valued image of the same
size.  Noise attacks draw from a seeded position-indexed generator, so a
given (spec, seed) is bit-reproducible.

Specs serialize as ``kind:key=value,key=value`` strings, e.g. ``jpeg:q=50``
or ``awgn:snr_db=11.4,seed=7``.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sfft
from scipy import ndimage

from .pixmap import quantize


class AttackSpecError(ValueError):
    """Unknown attack kind or invalid parameter."""


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __str__(self):
        if not self.params:
            return self.kind
        args = ",".join(f"{k}={_fmt(v)}" for k, v in sorted(self.params.items()))
        return f"{self.kind}:{args}"


def _fmt(v):
    if isinstance(v, float) and v == int(v):
        return f"{v:.1f}"
    return str(v)


def parse_spec(text):
    """Parse a ``kind:key=value,...`` string into an AttackSpec."""
    kind, _, rest = text.strip().partition(":")
    kind = kind.strip()
    if kind not in CATALOG:
        raise AttackSpecError(
            f"unknown attack {kind!r}; valid kinds: {', '.join(sorted(CATALOG))}")
    _, defaults = CATALOG[kind]
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in defaults:
                raise AttackSpecError(
                    f"bad parameter {item!r} for {kind} "
                    f"(valid: {', '.join(defaults) or 'none'})")
            caster = type(defaults[key])
            try:
                params[key] = _checked(kind, key, caster(value))
            except ValueError:
                raise AttackSpecError(
                    f"bad value {value!r} for {kind}.{key}") from None
    return AttackSpec(kind=kind, params=params)


def _checked(kind, key, value):
    """`value` if it is finite (and, for a seed, non-negative)."""
    if not -math.inf < value < math.inf or (key == "seed" and value < 0):
        raise AttackSpecError(f"bad value {value!r} for {kind}.{key}")
    return value


def apply_attack(img, spec, default_seed=0):
    """Run one attack; returns the impaired 8-bit-valued image."""
    if spec.kind not in CATALOG:
        raise AttackSpecError(
            f"unknown attack {spec.kind!r}; valid kinds: "
            f"{', '.join(sorted(CATALOG))}")
    impl, defaults = CATALOG[spec.kind]
    params = dict(defaults)
    if "seed" in params:
        params["seed"] = default_seed
    params.update(spec.params)
    for key, value in params.items():
        _checked(spec.kind, key, value)
    img = quantize(np.asarray(img, dtype=np.float64))
    out = quantize(impl(img, **params))
    if out.shape != img.shape:
        raise ValueError(f"attack {spec.kind} changed the image shape "
                         f"from {img.shape} to {out.shape}")
    return out


# --- pixel-domain attacks ---------------------------------------------------

def _median(img):
    return ndimage.median_filter(img, size=3, mode="nearest")


def _lpf(img):
    return ndimage.correlate(img, np.full((3, 3), 1.0 / 9.0), mode="nearest")


def _gaussian_kernel3(sigma):
    x = np.arange(-1, 2, dtype=np.float64)
    k = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / (2.0 * sigma ** 2))
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
    sign = np.where(rng.random(img.shape) < 0.5, -1.0, 1.0)
    return img + hit * sign * (amount * 255.0)


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
    tl = img[np.ix_(y0, x0)]
    tr = img[np.ix_(y0, x1)]
    bl = img[np.ix_(y1, x0)]
    br = img[np.ix_(y1, x1)]
    return (tl * (1 - fy) * (1 - fx) + tr * (1 - fy) * fx
            + bl * fy * (1 - fx) + br * fy * fx)


def _rescale(img):
    h, w = img.shape
    small = _bilinear_resize(img, max(h // 2, 1), max(w // 2, 1))
    return _bilinear_resize(small, h, w)


def _erode(img):
    return ndimage.grey_erosion(img, size=(3, 3), mode="nearest")


def _dilate(img):
    return ndimage.grey_dilation(img, size=(3, 3), mode="nearest")


def _gamma(img, g):
    if g <= 0:
        raise AttackSpecError(f"gamma must be > 0, got {g}")
    return 255.0 * (img / 255.0) ** g


def _sharpen(img, lam):
    return img + lam * (img - _lpf(img))


def _awgn(img, snr_db, seed):
    rng = np.random.default_rng(seed)
    power = np.mean(img ** 2)
    sigma = math.sqrt(power * 10.0 ** (-snr_db / 10.0))
    return img + rng.standard_normal(img.shape) * sigma


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


def jpeg_codec(img, quality):
    """Baseline JPEG distortion model: blockwise DCT quantization round-trip.

    Level-shift by 128, 8x8 orthonormal DCT-II, divide by the scaled
    luminance table rounding half away from zero, dequantize, inverse
    DCT, unshift, clamp.  Entropy coding is lossless and therefore
    omitted; all the damage comes from coefficient quantization.
    """
    img = quantize(np.asarray(img, dtype=np.float64))
    h, w = img.shape
    if h % 8 or w % 8:
        raise AttackSpecError(f"jpeg needs dimensions divisible by 8, got {h}x{w}")
    qt = quality_table(int(quality))
    blocks = img.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3) - 128.0
    coefs = sfft.dctn(blocks, type=2, norm="ortho", axes=(2, 3))
    levels = np.sign(coefs) * np.floor(np.abs(coefs) / qt + 0.5)
    rec = sfft.idctn(levels * qt, type=2, norm="ortho", axes=(2, 3)) + 128.0
    out = rec.transpose(0, 2, 1, 3).reshape(h, w)
    return quantize(out)


def _jpeg(img, q):
    return jpeg_codec(img, int(q))


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
