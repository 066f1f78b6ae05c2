import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwtmark.pixmap import (FormatError, quantize, read_image, read_watermark,
                            write_image, write_watermark)


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


def test_quantize_idempotent():
    rng = np.random.default_rng(0)
    v = rng.uniform(-50, 310, 100)
    once = quantize(v)
    assert (quantize(once) == once).all()
