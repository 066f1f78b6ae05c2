import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwtmark import dwt
from dwtmark.dwt import ORIENTATIONS, WaveletPyramid, db2_filters, dwt2, idwt2


def brute_force_level1(img):
    """Independent oracle: circular correlation + downsample, O(N^2) loops."""
    lo, hi = db2_filters()
    h, w = img.shape

    def analyze_rows(x, taps):
        rows, cols = x.shape
        out = np.zeros((rows, cols // 2))
        for r in range(rows):
            for i in range(cols // 2):
                acc = 0.0
                for k in range(4):
                    acc += taps[k] * x[r, (2 * i + k) % cols]
                out[r, i] = acc
        return out

    lo_x = analyze_rows(img, lo)
    hi_x = analyze_rows(img, hi)
    ll = analyze_rows(lo_x.T, lo).T
    hband = analyze_rows(lo_x.T, hi).T
    vband = analyze_rows(hi_x.T, lo).T
    dband = analyze_rows(hi_x.T, hi).T
    return ll, hband, vband, dband


def test_filter_normalization():
    lo, hi = db2_filters()
    assert math.isclose(lo.sum(), math.sqrt(2), abs_tol=1e-12)
    assert math.isclose((lo ** 2).sum(), 1.0, abs_tol=1e-12)


def test_filter_double_shift_orthogonality():
    lo, _ = db2_filters()
    assert abs(lo[0] * lo[2] + lo[1] * lo[3]) < 1e-12


def test_quadrature_mirror_rule():
    lo, hi = db2_filters()
    for k in range(4):
        assert math.isclose(hi[k], (-1) ** k * lo[3 - k], abs_tol=1e-15)


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_constant_image_detail_vanishes(levels):
    img = np.full((64, 64), 9.25)
    pyr = dwt2(img, levels)
    for band in pyr.detail.values():
        assert np.abs(band).max() < 1e-10
    assert np.allclose(pyr.approx, 9.25 * 2 ** levels, atol=1e-9)


@pytest.mark.parametrize("shape", [(8, 8), (8, 12), (12, 8)],
                         ids=["8x8", "8x12", "12x8"])
def test_level1_matches_brute_force_oracle(shape):
    rng = np.random.default_rng(11)
    img = rng.uniform(0, 255, shape)
    pyr = dwt2(img, 1)
    ll, hband, vband, dband = brute_force_level1(img)
    assert np.abs(pyr.approx - ll).max() < 1e-12
    assert np.abs(pyr.detail[("h", 1)] - hband).max() < 1e-12
    assert np.abs(pyr.detail[("v", 1)] - vband).max() < 1e-12
    assert np.abs(pyr.detail[("d", 1)] - dband).max() < 1e-12


def band_bytes(pyr):
    """The dwt2 coefficient bytes: approx, then each detail band by level
    and orientation."""
    parts = [pyr.approx.tobytes()]
    for l in range(1, pyr.levels + 1):
        for s in ORIENTATIONS:
            parts.append(pyr.detail[(s, l)].tobytes())
    return b"".join(parts)


# sha256 of band_bytes and of the idwt2 output for fixed inputs at 3 levels,
# recorded from the direct 4-tap filters; any change in float rounding shows
# up here.  512x384 spans several row strips of the DWT kernel, 64x48 one.
@pytest.mark.parametrize("shape, golden_dwt2, golden_idwt2", [
    ((64, 48),
     "a1f6d8c6dc32a9af0fd89f61c85a8d692940887be15dc8112a9f8f1cb9d56a98",
     "9bade406fd169f51cfe22ab8c76b38fa4fc4042da4f7bf0c44005d077aa51432"),
    ((512, 384),
     "738aeedbba932fd99c7c1fafc3423da92c0bafa335a391111aa18e1b8e8a8b47",
     "b57daafc764cb0ccafa77ca2723244075d9aa9a557767fc22dc4e0003478af8b"),
], ids=["64x48", "512x384"])
def test_golden_bytes(shape, golden_dwt2, golden_idwt2):
    img = np.random.default_rng(2012).uniform(0, 255, shape)
    pyr = dwt2(img, 3)
    assert hashlib.sha256(band_bytes(pyr)).hexdigest() == golden_dwt2
    assert hashlib.sha256(idwt2(pyr).tobytes()).hexdigest() == golden_idwt2


# one row per strip; strips of 1000 elements, which leave a ragged last
# strip along both axes of both shapes; one strip for the whole image
@pytest.mark.parametrize("strip", [1, 1000, 1 << 30],
                         ids=["one_row", "ragged", "whole"])
@pytest.mark.parametrize("shape", [(96, 80), (1024, 64)],
                         ids=["96x80", "1024x64"])
def test_strip_size_invariance(monkeypatch, shape, strip):
    img = np.random.default_rng(17).uniform(0, 255, shape)
    pyr = dwt2(img, 3)
    expected = band_bytes(pyr), idwt2(pyr).tobytes()
    monkeypatch.setattr(dwt, "_STRIP", strip)
    pyr = dwt2(img, 3)
    assert band_bytes(pyr) == expected[0]
    assert idwt2(pyr).tobytes() == expected[1]


def test_pyramid_structure_256():
    rng = np.random.default_rng(0)
    pyr = dwt2(rng.uniform(0, 255, (256, 256)), 3)
    assert pyr.detail[("h", 1)].shape == (128, 128)
    assert pyr.detail[("d", 2)].shape == (64, 64)
    assert pyr.detail[("v", 3)].shape == (32, 32)
    assert pyr.approx.shape == (32, 32)
    assert pyr.approx.size + sum(b.size for b in pyr.detail.values()) == 65536
    assert len(pyr.detail) == 9


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_perfect_reconstruction(levels):
    rng = np.random.default_rng(levels)
    img = rng.uniform(0, 255, (128, 96))
    assert np.abs(idwt2(dwt2(img, levels)) - img).max() < 1e-8


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_parseval(levels):
    rng = np.random.default_rng(levels + 10)
    img = rng.uniform(0, 255, (64, 64))
    pyr = dwt2(img, levels)
    e_img = (img ** 2).sum()
    e_pyr = (pyr.approx ** 2).sum() + sum((b ** 2).sum()
                                          for b in pyr.detail.values())
    assert abs(e_pyr - e_img) / e_img < 1e-9


def test_linearity():
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 255, (32, 32))
    b = rng.uniform(0, 255, (32, 32))
    p_sum = dwt2(2.0 * a - 0.5 * b, 2)
    pa = dwt2(a, 2)
    pb = dwt2(b, 2)
    for key in p_sum.detail:
        combo = 2.0 * pa.detail[key] - 0.5 * pb.detail[key]
        assert np.abs(p_sum.detail[key] - combo).max() < 1e-9


def test_zero_pyramid_and_scaling():
    rng = np.random.default_rng(5)
    img = rng.uniform(0, 255, (32, 32))
    pyr = dwt2(img, 2)
    zero = WaveletPyramid(levels=2,
                          detail={k: np.zeros_like(v) for k, v in pyr.detail.items()},
                          approx=np.zeros_like(pyr.approx))
    assert np.abs(idwt2(zero)).max() == 0.0
    doubled = WaveletPyramid(levels=2,
                             detail={k: 2 * v for k, v in pyr.detail.items()},
                             approx=2 * pyr.approx)
    assert np.abs(idwt2(doubled) - 2 * img).max() < 1e-8


def test_dimension_errors():
    with pytest.raises(ValueError, match="divisible"):
        dwt2(np.zeros((30, 32)), 3)
    with pytest.raises(ValueError, match="2-D"):
        dwt2(np.zeros(64), 1)


def test_inconsistent_pyramid_rejected():
    pyr = dwt2(np.random.default_rng(0).uniform(0, 255, (32, 32)), 1)
    bad = WaveletPyramid(levels=1,
                         detail={("h", 1): pyr.detail[("h", 1)][:8],
                                 ("v", 1): pyr.detail[("v", 1)],
                                 ("d", 1): pyr.detail[("d", 1)]},
                         approx=pyr.approx)
    with pytest.raises(ValueError, match="subband"):
        idwt2(bad)


# an image shape that `levels` levels divide, small enough for many draws
def _shape(data, levels):
    return tuple(data.draw(st.integers(1, 5)) << levels for _ in range(2))


@pytest.mark.parametrize("dtype, lo, hi", [
    (np.uint8, 0, 255),
    (np.int16, -2**15, 2**15 - 1),
    # past 2**53 the float64 conversion rounds; both paths round alike
    (np.int64, -2**62, -1),
], ids=["uint8", "int16", "negative_int64"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_integer_image_equals_its_float64_copy(dtype, lo, hi, data):
    levels = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    img = np.random.default_rng(seed).integers(lo, hi, _shape(data, levels),
                                               dtype=dtype, endpoint=True)
    got, want = dwt2(img, levels), dwt2(img.astype(np.float64), levels)
    assert band_bytes(got) == band_bytes(want)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_selected_subbands_equal_the_full_pyramids(data):
    levels = data.draw(st.integers(1, 3))
    keys = [(s, l) for l in range(1, levels + 1) for s in ORIENTATIONS]
    subbands = data.draw(st.sets(st.sampled_from(keys)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    img = np.random.default_rng(seed).uniform(0, 255, _shape(data, levels))
    full = dwt2(img, levels)
    part = dwt2(img, levels, subbands=subbands)
    assert set(part.detail) == subbands
    for key in subbands:
        assert part.detail[key].tobytes() == full.detail[key].tobytes()
    assert part.approx is None and part.levels == levels
    with pytest.raises(ValueError, match="no approximation band"):
        idwt2(part)


@pytest.mark.parametrize("subbands, message", [
    ([("h", 4)], r"no subband \('h', 4\) in a 3-level pyramid"),
    ([("h", 0), ("v", 1)], r"no subband \('h', 0\)"),
    ([("x", 1)], r"no subband \('x', 1\)"),
], ids=["too_deep", "level_zero", "orientation"])
def test_unknown_subband_rejected(subbands, message):
    with pytest.raises(ValueError, match=message):
        dwt2(np.zeros((32, 32)), 3, subbands=subbands)
