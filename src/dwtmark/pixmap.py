"""Grayscale image and watermark I/O (netpbm PGM/PBM formats).

Images are 2-D float64 numpy arrays in row-major order, nominal range
[0, 255].  Intensities stay real-valued through the whole pipeline;
quantization to 8 bits happens only when a file is written (and at the
entry of each attack, which models a transmitted 8-bit image).
`read_raster` returns a PGM's stored 8-bit pixels as uint8, for callers
that take integer images as they are (extraction does); `read_image` is
its float64 copy.

Watermarks are 16x16 int arrays with entries in {-1, +1}.  The file
mapping is fixed: PBM bit 1 -> +1, bit 0 -> -1.

Header and P2 pixel numbers are plain ASCII decimal ('+7' and '1_0' are
refused).  A '#' comment runs to the end of its line; it may stand
before or between header tokens and anywhere in an ASCII (P1/P2) raster.
A binary (P4/P5) raster starts after exactly one whitespace byte
following the last header token, so no comment may come between them.
"""

import re

import numpy as np

WM_SIZE = 16


class FormatError(ValueError):
    """Raised when a PGM/PBM file violates the expected format."""


def quantize(img):
    """Clamp to [0, 255] and round half-up to the nearest integer."""
    # one new array, updated in place: a second full-size temporary
    # costs more than the arithmetic
    out = np.asarray(np.clip(img, 0.0, 255.0))
    out += 0.5
    return np.floor(out, out=out)


# a header token: skip whitespace and '#' comments, then take the bytes up
# to the next whitespace or '#'; a comment must end at '\n' or the end of
# the file, so backtracking cannot take a comment's tail for a token
_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]+)")
_COMMENT = re.compile(rb"#[^\n]*")


def _decimal(tok, field, lo=1, hi=float("inf")):
    """Parse a token of ASCII digits that must lie in [lo, hi]."""
    try:
        if not tok.isdigit():  # int() alone also takes '+7' and '1_0'
            raise ValueError
        v = int(tok)
    except ValueError:
        raise FormatError(f"bad {field}: {tok!r}") from None
    if not lo <= v <= hi:
        raise FormatError(f"bad {field}: {v}")
    return v


def _read_netpbm(path, magics, fields):
    """Read a netpbm file and parse its header.

    Returns (magic, the decimal header `fields`, the file's bytes, the
    offset just past the last header token).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    while len(tokens) <= len(fields) and (m := _TOKEN.match(data, pos)):
        tokens.append(m[1])
        pos = m.end()
    if not tokens:
        raise FormatError("empty file, missing magic")
    if tokens[0] not in magics:
        want = " or ".join(k.decode() for k in magics)
        raise FormatError(f"unsupported magic: {tokens[0]!r} (want {want})")
    if len(tokens) <= len(fields):
        raise FormatError(f"truncated header (need {', '.join(fields)})")
    values = [_decimal(tok, field) for tok, field in zip(tokens[1:], fields)]
    return tokens[0], values, data, pos


def _binary_raster(data, pos, size):
    """The `size` raster bytes after the one whitespace byte at `pos`."""
    sep = data[pos:pos + 1]
    if sep and not sep.isspace():
        raise FormatError(
            f"binary raster must follow one whitespace byte, got {sep!r}")
    # a writeable copy, not a view into `data` at an offset: the view saved
    # 0.07 ms per 1024^2 read but raised the mark benchmark's peak RSS by
    # 4-8 MB
    raster = bytearray(memoryview(data)[pos + 1:pos + 1 + size])
    if len(raster) < size:
        raise FormatError(
            f"truncated pixel data: got {len(raster)} of {size} bytes")
    return np.frombuffer(raster, np.uint8)


def _ascii_raster(data, pos):
    """The whitespace-separated raster tokens after `pos`, comments dropped."""
    return _COMMENT.sub(b"", data[pos:]).split()


def finite_image(img, name):
    """`img` as float64; ValueError if any pixel is NaN or infinite."""
    img = np.asarray(img, dtype=np.float64)
    if not np.isfinite(img).all():
        raise ValueError(f"{name} image has non-finite pixel values")
    return img


def read_raster(path):
    """Read a P2 (ASCII) or P5 (binary) PGM with maxval 255.

    Returns its pixels as a uint8 array of shape (height, width).
    """
    magic, (width, height, maxval), data, pos = _read_netpbm(
        path, (b"P2", b"P5"), ("width", "height", "maxval"))
    if maxval != 255:
        raise FormatError(f"unsupported maxval: {maxval}")

    count = width * height
    if magic == b"P5":
        pixels = _binary_raster(data, pos, count)
    else:
        pixels = [_decimal(tok, "pixel", 0, 255)
                  for tok in _ascii_raster(data, pos)[:count]]
        if len(pixels) < count:
            raise FormatError(
                f"truncated pixel data: got {len(pixels)} of {count} samples")
        pixels = np.array(pixels, np.uint8)
    return pixels.reshape(height, width)


def read_image(path):
    """read_raster(path) as a float64 array of shape (height, width)."""
    return read_raster(path).astype(np.float64)


def write_image(img, path):
    """Write a binary P5 PGM (maxval 255), quantizing samples half-up."""
    img = finite_image(img, "output")
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {img.shape}")
    h, w = img.shape
    payload = quantize(img).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(payload.tobytes())


def read_watermark(path):
    """Read a 16x16 P1/P4 PBM; bit 1 -> +1, bit 0 -> -1."""
    magic, (width, height), data, pos = _read_netpbm(
        path, (b"P1", b"P4"), ("width", "height"))
    if (width, height) != (WM_SIZE, WM_SIZE):
        raise FormatError(
            f"watermark must be {WM_SIZE}x{WM_SIZE}, got {width}x{height}")

    count = width * height
    if magic == b"P4":
        stride = (width + 7) // 8
        rows = _binary_raster(data, pos, stride * height).reshape(height, stride)
        bits = np.unpackbits(rows, axis=1)[:, :width]
    else:
        # P1 digits may or may not be whitespace-separated
        digits = b"".join(_ascii_raster(data, pos))[:count]
        bad = digits.translate(None, b"01")
        if bad:
            raise FormatError(f"bad pixel: {chr(bad[0])!r}")
        if len(digits) < count:
            raise FormatError(
                f"truncated pixel data: got {len(digits)} of {count} bits")
        bits = np.frombuffer(digits, np.uint8).reshape(height, width) == ord("1")

    return np.where(bits, 1, -1).astype(np.int8)


def write_watermark(wm, path):
    """Write an ASCII P1 PBM; +1 -> 1, -1 -> 0."""
    wm = validate_watermark(wm)
    # one line a row: the digits at even offsets, separated by spaces
    raster = np.full((WM_SIZE, 2 * WM_SIZE), ord(" "), np.uint8)
    raster[:, 0::2] = np.where(wm > 0, ord("1"), ord("0"))
    raster[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(b"P1\n%d %d\n" % (WM_SIZE, WM_SIZE) + raster.tobytes())


def validate_watermark(wm):
    """Check a 16x16 {-1,+1} mark; returns it as int8."""
    wm = np.asarray(wm)
    if wm.shape != (WM_SIZE, WM_SIZE):
        raise ValueError(f"watermark must be {WM_SIZE}x{WM_SIZE}, got {wm.shape}")
    if not np.isin(wm, (-1, 1)).all():
        raise ValueError("watermark entries must be -1 or +1")
    return wm.astype(np.int8)
