import hashlib
import math

import numpy as np
import pytest

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


# sha256 of the dwt2 coefficient bytes (approx, then each detail band by
# level and orientation) and of the idwt2 output for a fixed 64x48 input
# at 3 levels; any change in float rounding shows up here
GOLDEN_DWT2 = "a1f6d8c6dc32a9af0fd89f61c85a8d692940887be15dc8112a9f8f1cb9d56a98"
GOLDEN_IDWT2 = "9bade406fd169f51cfe22ab8c76b38fa4fc4042da4f7bf0c44005d077aa51432"


def test_golden_bytes():
    img = np.random.default_rng(2012).uniform(0, 255, (64, 48))
    pyr = dwt2(img, 3)
    digest = hashlib.sha256(pyr.approx.tobytes())
    for l in (1, 2, 3):
        for s in ORIENTATIONS:
            digest.update(pyr.detail[(s, l)].tobytes())
    assert digest.hexdigest() == GOLDEN_DWT2
    assert hashlib.sha256(idwt2(pyr).tobytes()).hexdigest() == GOLDEN_IDWT2


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
