import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwtmark import metrics
from conftest import random_mark


class TestPsnr:
    def test_identical_is_infinite(self, lena_like):
        assert metrics.psnr(lena_like, lena_like) == math.inf

    def test_unit_offset(self):
        a = np.zeros((32, 32))
        got = metrics.psnr(a, a + 1.0)
        assert got == pytest.approx(10 * math.log10(255 ** 2), abs=1e-9)
        assert got == pytest.approx(48.13, abs=0.01)

    def test_symmetry(self, lena_like):
        rng = np.random.default_rng(0)
        other = np.clip(lena_like + rng.normal(0, 5, lena_like.shape), 0, 255)
        assert metrics.psnr(lena_like, other) == metrics.psnr(other, lena_like)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            metrics.psnr(np.zeros((4, 4)), np.zeros((5, 5)))


@pytest.mark.parametrize("measure", [metrics.psnr, metrics.ssim,
                                     metrics.kl_security,
                                     metrics.mutual_information])
def test_non_finite_images_rejected(measure):
    a = np.zeros((16, 16))
    b = a.copy()
    b[3, 4] = np.nan
    with pytest.raises(ValueError, match="finite"):
        measure(a, b)
    with pytest.raises(ValueError, match="finite"):
        measure(b, a)


class TestSsim:
    def test_self_similarity(self, lena_like):
        assert metrics.ssim(lena_like, lena_like) == pytest.approx(1.0)

    def test_inversion_reduces_similarity(self, lena_like):
        assert metrics.ssim(lena_like, 255 - lena_like) < 0.2

    def test_noise_reduces_similarity_monotonically(self, lena_like):
        rng = np.random.default_rng(1)
        noise = rng.standard_normal(lena_like.shape)
        s = [metrics.ssim(lena_like, np.clip(lena_like + sig * noise, 0, 255))
             for sig in (2, 8, 25)]
        assert 1 > s[0] > s[1] > s[2]

    def test_undersized_rejected(self):
        with pytest.raises(ValueError, match="11"):
            metrics.ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_range(self, lena_like):
        rng = np.random.default_rng(2)
        noisy = np.floor(rng.random(lena_like.shape) * 256)
        assert -1.0 <= metrics.ssim(lena_like, noisy) <= 1.0


class TestBerNcc:
    def test_exact_cases(self, mark):
        assert metrics.ber(mark, mark) == 0.0
        assert metrics.ber(mark, -mark) == 1.0
        assert metrics.ncc(mark, mark) == pytest.approx(1.0)
        assert metrics.ncc(mark, -mark) == pytest.approx(-1.0)

    def test_single_flip(self, mark):
        est = mark.copy()
        est[3, 7] *= -1
        assert metrics.ber(mark, est) == pytest.approx(1 / 256)
        assert metrics.ncc(mark, est) == pytest.approx(1 - 2 / 256)

    def test_ber_to_ncc_anchor(self, mark):
        # ~8% mismatched bits correspond to correlation ~0.84; with 256
        # bits the nearest achievable point is 20/256
        est = mark.copy().ravel()
        est[:20] *= -1
        ber = metrics.ber(mark, est.reshape(16, 16))
        ncc = metrics.ncc(mark, est.reshape(16, 16))
        assert ber == pytest.approx(20 / 256)
        assert ncc == pytest.approx(1 - 2 * ber)
        assert abs(ncc - 0.84) < 0.01

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_ncc_equals_one_minus_two_ber(self, s1, s2):
        t, e = random_mark(s1), random_mark(s2)
        assert metrics.ncc(t, e) == pytest.approx(1 - 2 * metrics.ber(t, e),
                                                  abs=1e-12)


class TestKlSecurity:
    def test_identical_is_zero(self, lena_like):
        assert metrics.kl_security(lena_like, lena_like) == 0.0

    def test_nonnegative(self, lena_like):
        rng = np.random.default_rng(3)
        other = np.floor(rng.random(lena_like.shape) * 256)
        assert metrics.kl_security(lena_like, other) >= 0.0
        assert metrics.kl_security(other, lena_like) >= 0.0

    def test_finite_under_disjoint_histograms(self):
        a = np.zeros((16, 16))
        b = np.full((16, 16), 255.0)
        assert math.isfinite(metrics.kl_security(a, b))

    def test_permutation_invariant(self, lena_like):
        rng = np.random.default_rng(4)
        perm = rng.permutation(lena_like.size)
        a = lena_like.ravel()[perm].reshape(lena_like.shape)
        rng2 = np.random.default_rng(5)
        stego = np.clip(lena_like + rng2.normal(0, 2, lena_like.shape), 0, 255)
        b = stego.ravel()[perm].reshape(stego.shape)
        assert metrics.kl_security(a, b) == pytest.approx(
            metrics.kl_security(lena_like, stego), abs=1e-12)


class TestMutualInformation:
    def test_identity_equals_histogram_entropy(self, lena_like):
        hist = np.bincount(lena_like.astype(int).ravel(), minlength=256)
        p = hist / hist.sum()
        entropy = -np.sum(p[p > 0] * np.log(p[p > 0]))
        got = metrics.mutual_information(lena_like, lena_like)
        assert got == pytest.approx(entropy, abs=1e-3)

    def test_independent_noise_plug_in_bias(self):
        # the finite-sample estimate for independent 256x256 uniform-noise
        # pairs is dominated by the plug-in bias of the dense joint
        # histogram; Monte-Carlo over 8 seeds gave 0.5694 +/- 0.003
        r = np.random.default_rng(1000)
        a = np.floor(r.random((256, 256)) * 256)
        b = np.floor(r.random((256, 256)) * 256)
        assert metrics.mutual_information(a, b) == pytest.approx(0.5694, abs=0.02)

    def test_nonnegative(self, lena_like):
        rng = np.random.default_rng(6)
        other = np.floor(rng.random(lena_like.shape) * 256)
        assert metrics.mutual_information(lena_like, other) >= 0.0
