import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwtmark.pixmap import (FormatError, quantize, read_image, read_raster,
                            read_watermark, write_image, write_watermark)


def test_read_p2_transcribes_pixels(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P2\n3 2\n255\n0 255 00\n128 64 0255\n")
    img = read_image(p)
    assert img.tolist() == [[0, 255, 0], [128, 64, 255]]


def test_read_p5_roundtrip_dimensions(tmp_path):
    p = tmp_path / "t.pgm"
    payload = bytes(range(256)) * 256
    p.write_bytes(b"P5\n256 256\n255\n" + payload)
    img = read_image(p)
    assert img.shape == (256, 256)
    assert img[0, 10] == 10


def test_read_p5_with_comments(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x05\x06")
    assert read_image(p).tolist() == [[5, 6]]


def test_unsupported_maxval(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P2\n1 1\n65535\n9\n")
    with pytest.raises(FormatError, match="unsupported maxval"):
        read_image(p)


def test_truncated_payload(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\nabc")
    with pytest.raises(FormatError, match="truncated"):
        read_image(p)


def test_bad_magic(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P7\n1 1\n255\nx")
    with pytest.raises(FormatError, match="magic"):
        read_image(p)


def test_write_clamps_negative(tmp_path):
    p = tmp_path / "t.pgm"
    write_image(np.array([[-3.0]]), p)
    assert read_image(p)[0, 0] == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_rejects_non_finite(tmp_path, bad):
    p = tmp_path / "t.pgm"
    with pytest.raises(ValueError, match="non-finite"):
        write_image(np.array([[1.0, bad]]), p)
    assert not p.exists()


def test_write_rounds_half_up(tmp_path):
    p = tmp_path / "t.pgm"
    write_image(np.array([[254.6, 127.5, 128.0]]), p)
    assert read_image(p).tolist() == [[255, 128, 128]]


def test_write_read_identity_on_integer_images(tmp_path):
    rng = np.random.default_rng(3)
    img = np.floor(rng.random((17, 23)) * 256)
    p = tmp_path / "t.pgm"
    write_image(img, p)
    assert (read_image(p) == img).all()


def test_read_watermark_polarity(tmp_path):
    ones = tmp_path / "ones.pbm"
    ones.write_bytes(b"P1\n16 16\n" + (b"1 " * 16 + b"\n") * 16)
    assert (read_watermark(ones) == 1).all()
    zeros = tmp_path / "zeros.pbm"
    zeros.write_bytes(b"P1\n16 16\n" + (b"0 " * 16 + b"\n") * 16)
    assert (read_watermark(zeros) == -1).all()


def test_read_watermark_p4(tmp_path):
    p = tmp_path / "t.pbm"
    # alternating-byte pattern: 0xF0 -> 11110000 per half-row
    p.write_bytes(b"P4\n16 16\n" + bytes([0xF0, 0x0F]) * 16)
    wm = read_watermark(p)
    assert wm[0, :4].tolist() == [1, 1, 1, 1]
    assert wm[0, 4:8].tolist() == [-1, -1, -1, -1]
    assert wm[0, 12:].tolist() == [1, 1, 1, 1]


def test_watermark_wrong_size_rejected(tmp_path):
    p = tmp_path / "t.pbm"
    p.write_bytes(b"P1\n8 8\n" + (b"1 " * 8 + b"\n") * 8)
    with pytest.raises(FormatError, match="16x16"):
        read_watermark(p)


def test_watermark_checkerboard_roundtrip(tmp_path):
    wm = np.fromfunction(lambda i, j: (i + j) % 2 * 2 - 1, (16, 16)).astype(np.int8)
    p = tmp_path / "t.pbm"
    write_watermark(wm, p)
    assert (read_watermark(p) == wm).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**256 - 1))
def test_watermark_roundtrip_property(tmp_path_factory, bits):
    wm = np.array([1 if bits >> k & 1 else -1 for k in range(256)],
                  dtype=np.int8).reshape(16, 16)
    p = tmp_path_factory.mktemp("wm") / "t.pbm"
    write_watermark(wm, p)
    assert (read_watermark(p) == wm).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**256 - 1))
def test_watermark_bytes_match_the_row_join_formula(tmp_path_factory, bits):
    wm = np.array([1 if bits >> k & 1 else -1 for k in range(256)],
                  dtype=np.int8).reshape(16, 16)
    p = tmp_path_factory.mktemp("wm") / "t.pbm"
    write_watermark(wm, p)
    # the reference formula: one str() per digit, rows joined
    lines = [b"P1", b"16 16"] + [" ".join(str(b) for b in row).encode()
                                 for row in (wm > 0).astype(np.uint8)]
    assert p.read_bytes() == b"\n".join(lines) + b"\n"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_raster_is_the_stored_bytes_of_read_image(tmp_path_factory, data):
    h, w = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    pixels = data.draw(st.lists(st.integers(0, 255), min_size=h * w,
                                max_size=h * w))
    d = tmp_path_factory.mktemp("pgm")
    (d / "a.pgm").write_bytes(b"P2\n%d %d\n255\n" % (w, h)
                              + b" ".join(b"%d" % v for v in pixels))
    (d / "b.pgm").write_bytes(b"P5\n%d %d\n255\n" % (w, h) + bytes(pixels))
    for p in (d / "a.pgm", d / "b.pgm"):
        raster = read_raster(p)
        assert raster.dtype == np.uint8 and raster.shape == (h, w)
        assert raster.tolist() == np.reshape(pixels, (h, w)).tolist()
        assert np.array_equal(raster.astype(float), read_image(p))
        raster[0, 0] = 7   # the caller's own array, not a read-only view


@pytest.mark.parametrize("data, field", [
    (b"P2\n+2 1\n255\n1 2\n", "width"),
    (b"P2\n2 1_0\n255\n" + b"1 " * 20, "height"),
    (b"P2\n2 1\n2_55\n1 2\n", "maxval"),
    (b"P2\n2 1\n255\n1_0 2\n", "pixel"),
    (b"P1\n+16 16\n" + b"0" * 256, "width"),
], ids=["width", "height", "maxval", "pgm_pixel", "pbm_width"])
def test_numbers_must_be_plain_decimal(tmp_path, data, field):
    # int() alone reads '+2' as 2 and '1_0' as 10
    p = tmp_path / "t.pnm"
    p.write_bytes(data)
    reader = read_watermark if data.startswith(b"P1") else read_image
    with pytest.raises(FormatError, match=f"bad {field}: b'"):
        reader(p)


@pytest.mark.parametrize("data, reader", [
    (b"P5\n2 1\n255#c\n\x05\x06", read_image),
    (b"P4\n16 16#x\n" + bytes(range(32)), read_watermark),
], ids=["p5", "p4"])
def test_binary_raster_follows_one_whitespace_byte(tmp_path, data, reader):
    # a comment after the last header token would be read as raster bytes
    p = tmp_path / "t.pnm"
    p.write_bytes(data)
    with pytest.raises(FormatError, match="one whitespace byte, got b'#'"):
        reader(p)


def test_read_p1_digits_without_separators(tmp_path):
    p = tmp_path / "t.pbm"
    p.write_bytes(b"P1\n16 16\n" + b"01" * 128)
    wm = read_watermark(p)
    assert (wm[:, 0::2] == -1).all() and (wm[:, 1::2] == 1).all()


def test_read_p1_rejects_a_digit_other_than_0_or_1(tmp_path):
    p = tmp_path / "t.pbm"
    p.write_bytes(b"P1\n16 16\n" + b"01" * 100 + b"2" + b"0" * 55)
    with pytest.raises(FormatError, match="bad pixel: '2'"):
        read_watermark(p)


def test_read_p2_comments_in_raster(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P2\n3 1\n255\n1 # 9 9\n2#x\n3\n# 7")
    assert read_image(p).tolist() == [[1, 2, 3]]


def test_read_p1_comments_in_raster(tmp_path):
    p = tmp_path / "t.pbm"
    p.write_bytes(b"P1\n16 16\n" + (b"0" * 16 + b" # 1111\n") * 16)
    assert (read_watermark(p) == -1).all()


@pytest.mark.parametrize("reader", [read_image, read_watermark])
@pytest.mark.parametrize("data", [b"", b" \n# only a comment"],
                         ids=["empty", "comment_only"])
def test_file_without_magic(tmp_path, reader, data):
    p = tmp_path / "t.pnm"
    p.write_bytes(data)
    with pytest.raises(FormatError, match="empty file, missing magic"):
        reader(p)


@pytest.mark.parametrize("data, need", [
    (b"P2\n4\n", "width, height, maxval"),
    (b"P5 4 # 4 255\n", "width, height, maxval"),
    (b"P1\n16", "width, height"),
    (b"P4 16 #16", "width, height"),
], ids=["p2", "p5_comment", "p1", "p4_comment"])
def test_header_stops_after_width(tmp_path, data, need):
    p = tmp_path / "t.pnm"
    p.write_bytes(data)
    reader = read_watermark if data[:2] in (b"P1", b"P4") else read_image
    with pytest.raises(FormatError, match=rf"truncated header \(need {need}\)"):
        reader(p)


_space = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
# a '#' comment runs to the end of its line and may hold any other byte
_comment = st.binary(max_size=12).map(
    lambda body: b"#" + body.replace(b"\n", b"") + b"\n")
# what may stand between two tokens: whitespace and comments
_gap = st.lists(st.one_of(_space, _comment), min_size=1, max_size=3).map(
    b"".join)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ascii_and_binary_pgm_read_equal(tmp_path_factory, data):
    h, w = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    pixels = data.draw(st.lists(st.integers(0, 255), min_size=h * w,
                                max_size=h * w))
    gaps = data.draw(st.lists(_gap, min_size=3 + h * w, max_size=3 + h * w))

    def header(magic):
        return (magic + gaps[0] + b"%d" % w + gaps[1] + b"%d" % h + gaps[2]
                + b"255")

    d = tmp_path_factory.mktemp("pgm")
    (d / "a.pgm").write_bytes(header(b"P2") + b"".join(
        gap + b"%d" % v for gap, v in zip(gaps[3:], pixels)))
    (d / "b.pgm").write_bytes(header(b"P5") + data.draw(_space) + bytes(pixels))
    expected = np.reshape(pixels, (h, w)).tolist()
    assert read_image(d / "a.pgm").tolist() == expected
    assert read_image(d / "b.pgm").tolist() == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ascii_and_binary_pbm_read_equal(tmp_path_factory, data):
    n = data.draw(st.integers(min_value=0, max_value=2**256 - 1))
    bits = np.array([n >> k & 1 for k in range(256)], dtype=np.uint8)
    gaps = data.draw(st.lists(_gap, min_size=2, max_size=2))
    # P1 digits need no separator, except from the height before them
    digit_gaps = dict.fromkeys(range(256), b"")
    digit_gaps.update(data.draw(st.dictionaries(st.integers(1, 255), _gap,
                                                max_size=8)))
    digit_gaps[0] = data.draw(_gap)

    def header(magic):
        return magic + gaps[0] + b"16" + gaps[1] + b"16"

    d = tmp_path_factory.mktemp("pbm")
    (d / "a.pbm").write_bytes(header(b"P1") + b"".join(
        digit_gaps[k] + b"%d" % b for k, b in enumerate(bits)))
    (d / "b.pbm").write_bytes(header(b"P4") + data.draw(_space)
                              + np.packbits(bits.reshape(16, 16), axis=1).tobytes())
    expected = np.where(bits == 1, 1, -1).reshape(16, 16)
    assert (read_watermark(d / "a.pbm") == expected).all()
    assert (read_watermark(d / "b.pbm") == expected).all()


def test_quantize_idempotent():
    rng = np.random.default_rng(0)
    v = rng.uniform(-50, 310, 100)
    once = quantize(v)
    assert (quantize(once) == once).all()
