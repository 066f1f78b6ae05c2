"""Grayscale image and watermark I/O (netpbm PGM/PBM formats).

Images are 2-D float64 numpy arrays in row-major order, nominal range
[0, 255].  Intensities stay real-valued through the whole pipeline;
quantization to 8 bits happens only when a file is written (and at the
entry of each attack, which models a transmitted 8-bit image).

Watermarks are 16x16 int arrays with entries in {-1, +1}.  The file
mapping is fixed: PBM bit 1 -> +1, bit 0 -> -1.
"""

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


def _tokens(data):
    """Yield whitespace-separated header tokens, skipping '#' comments."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i:i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            j = data.find(b"\n", i)
            i = n if j < 0 else j + 1
        else:
            j = i
            while j < n and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            yield i, data[i:j]
            i = j


def _parse_int(tok, field, lo=1, hi=float("inf")):
    """Parse a decimal token that must lie in [lo, hi]."""
    try:
        v = int(tok)
    except ValueError:
        raise FormatError(f"bad {field}: {tok!r}") from None
    if not lo <= v <= hi:
        raise FormatError(f"bad {field}: {v}")
    return v


def finite_image(img, name):
    """`img` as float64; ValueError if any pixel is NaN or infinite."""
    img = np.asarray(img, dtype=np.float64)
    if not np.isfinite(img).all():
        raise ValueError(f"{name} image has non-finite pixel values")
    return img


def read_image(path):
    """Read a P2 (ASCII) or P5 (binary) PGM with maxval 255.

    Returns a float64 array of shape (height, width).
    """
    with open(path, "rb") as fh:
        data = fh.read()

    toks = _tokens(data)
    try:
        _, magic = next(toks)
    except StopIteration:
        raise FormatError("empty file, missing magic") from None
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"unsupported magic: {magic!r} (want P2 or P5)")

    try:
        _, wtok = next(toks)
        _, htok = next(toks)
        mv_pos, mvtok = next(toks)
    except StopIteration:
        raise FormatError("truncated header (need width, height, maxval)") from None
    width = _parse_int(wtok, "width")
    height = _parse_int(htok, "height")
    maxval = _parse_int(mvtok, "maxval")
    if maxval != 255:
        raise FormatError(f"unsupported maxval: {maxval}")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the payload
        start = mv_pos + len(mvtok) + 1
        raster = data[start:start + count]
        if len(raster) < count:
            raise FormatError(
                f"truncated pixel data: got {len(raster)} of {count} samples")
        pixels = np.frombuffer(raster, dtype=np.uint8, count=count)
    else:
        vals = []
        for _, tok in toks:
            vals.append(_parse_int(tok, "pixel", 0, 255))
            if len(vals) == count:
                break
        if len(vals) < count:
            raise FormatError(
                f"truncated pixel data: got {len(vals)} of {count} samples")
        pixels = np.array(vals)

    return pixels.reshape(height, width).astype(np.float64)


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
    with open(path, "rb") as fh:
        data = fh.read()

    toks = _tokens(data)
    try:
        _, magic = next(toks)
    except StopIteration:
        raise FormatError("empty file, missing magic") from None
    if magic not in (b"P1", b"P4"):
        raise FormatError(f"unsupported magic: {magic!r} (want P1 or P4)")

    try:
        _, wtok = next(toks)
        hpos, htok = next(toks)
    except StopIteration:
        raise FormatError("truncated header (need width, height)") from None
    width = _parse_int(wtok, "width")
    height = _parse_int(htok, "height")
    if (width, height) != (WM_SIZE, WM_SIZE):
        raise FormatError(
            f"watermark must be {WM_SIZE}x{WM_SIZE}, got {width}x{height}")

    if magic == b"P4":
        start = hpos + len(htok) + 1
        stride = (width + 7) // 8
        raster = data[start:start + stride * height]
        if len(raster) < stride * height:
            raise FormatError("truncated pixel data")
        rows = np.frombuffer(raster, dtype=np.uint8).reshape(height, stride)
        bits = np.unpackbits(rows, axis=1)[:, :width]
    else:
        # P1 digits may or may not be whitespace-separated
        digits = []
        for _, tok in toks:
            for ch in tok:
                if ch == 0x30:
                    digits.append(0)
                elif ch == 0x31:
                    digits.append(1)
                else:
                    raise FormatError(f"bad pixel: {chr(ch)!r}")
            if len(digits) >= width * height:
                break
        if len(digits) < width * height:
            raise FormatError(
                f"truncated pixel data: got {len(digits)} of {width * height} bits")
        bits = np.array(digits[:width * height]).reshape(height, width)

    return np.where(bits == 1, 1, -1).astype(np.int8)


def write_watermark(wm, path):
    """Write an ASCII P1 PBM; +1 -> 1, -1 -> 0."""
    wm = validate_watermark(wm)
    bits = (wm > 0).astype(np.uint8)
    lines = [b"P1", b"%d %d" % (WM_SIZE, WM_SIZE)]
    for row in bits:
        lines.append(" ".join(str(b) for b in row).encode())
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")


def validate_watermark(wm):
    """Check a 16x16 {-1,+1} mark; returns it as int8."""
    wm = np.asarray(wm)
    if wm.shape != (WM_SIZE, WM_SIZE):
        raise ValueError(f"watermark must be {WM_SIZE}x{WM_SIZE}, got {wm.shape}")
    if not np.isin(wm, (-1, 1)).all():
        raise ValueError("watermark entries must be -1 or +1")
    return wm.astype(np.int8)
