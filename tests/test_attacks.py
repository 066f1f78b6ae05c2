import math

import numpy as np
import pytest

from dwtmark.attacks import (CATALOG, DEFAULT_BENCH, AttackSpec,
                             AttackSpecError, apply_attack, jpeg_codec,
                             parse_spec, quality_table)


def naive_dct2(block):
    out = np.zeros((8, 8))
    for u in range(8):
        for v in range(8):
            acc = 0.0
            for x in range(8):
                for y in range(8):
                    acc += (block[x, y]
                            * math.cos((2 * x + 1) * u * math.pi / 16)
                            * math.cos((2 * y + 1) * v * math.pi / 16))
            cu = math.sqrt(0.5) if u == 0 else 1.0
            cv = math.sqrt(0.5) if v == 0 else 1.0
            out[u, v] = 0.25 * cu * cv * acc
    return out


def naive_idct2(coefs):
    out = np.zeros((8, 8))
    for x in range(8):
        for y in range(8):
            acc = 0.0
            for u in range(8):
                for v in range(8):
                    cu = math.sqrt(0.5) if u == 0 else 1.0
                    cv = math.sqrt(0.5) if v == 0 else 1.0
                    acc += (cu * cv * coefs[u, v]
                            * math.cos((2 * x + 1) * u * math.pi / 16)
                            * math.cos((2 * y + 1) * v * math.pi / 16))
            out[x, y] = 0.25 * acc
    return out


class TestSpecParsing:
    def test_basic(self):
        spec = parse_spec("jpeg:q=50")
        assert spec.kind == "jpeg" and spec.params == {"q": 50}

    def test_multi_param_with_seed(self):
        spec = parse_spec("awgn:snr_db=11.4,seed=7")
        assert spec.params == {"snr_db": 11.4, "seed": 7}

    def test_unknown_kind_lists_valid(self):
        with pytest.raises(AttackSpecError, match="valid kinds"):
            parse_spec("sepia")

    def test_unknown_param(self):
        with pytest.raises(AttackSpecError, match="bad parameter"):
            parse_spec("gamma:zoom=2")

    def test_bad_value(self):
        with pytest.raises(AttackSpecError, match="bad value"):
            parse_spec("jpeg:q=high")

    def test_str_roundtrip(self):
        spec = parse_spec("range_map:low=10,up=200")
        assert parse_spec(str(spec)) == spec


# non-finite numbers would turn the image into NaN, and numpy's own
# error for a negative seed does not name the attack
@pytest.mark.parametrize("kind, key, value", [
    ("gamma", "g", "nan"),
    ("awgn", "snr_db", "nan"),
    ("add_noise", "amount", "nan"),
    ("sharpen", "lam", "inf"),
    ("gaussian_filter", "sigma", "-inf"),
    ("add_noise", "seed", "-1"),
    ("awgn", "seed", "-3"),
])
def test_bad_parameter_values_rejected(lena_like, kind, key, value):
    with pytest.raises(AttackSpecError, match=f"bad value .* for {kind}.{key}"):
        parse_spec(f"{kind}:{key}={value}")
    caster = type(CATALOG[kind][1][key])
    spec = AttackSpec(kind=kind, params={key: caster(float(value))})
    with pytest.raises(AttackSpecError, match=f"bad value .* for {kind}.{key}"):
        apply_attack(lena_like, spec)


def test_negative_default_seed_rejected(lena_like):
    with pytest.raises(AttackSpecError, match="add_noise.seed"):
        apply_attack(lena_like, parse_spec("add_noise"), default_seed=-1)


class TestCatalogSemantics:
    def test_gamma_identity(self, lena_like):
        out = apply_attack(lena_like, parse_spec("gamma:g=1.0"))
        assert (out == lena_like).all()

    def test_invert_definition_and_involution(self, lena_like):
        inv = apply_attack(lena_like, parse_spec("invert"))
        assert inv[0, 0] == 255 - lena_like[0, 0]
        assert (apply_attack(inv, parse_spec("invert")) == lena_like).all()

    def test_median_constant_fixed_point(self):
        img = np.full((16, 16), 77.0)
        assert (apply_attack(img, parse_spec("median")) == img).all()

    def test_median_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        img = np.floor(rng.random((8, 8)) * 256)
        out = apply_attack(img, parse_spec("median"))
        padded = np.pad(img, 1, mode="edge")
        for r in range(8):
            for c in range(8):
                assert out[r, c] == np.median(padded[r:r + 3, c:c + 3])

    def test_lpf_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        img = np.floor(rng.random((6, 6)) * 256)
        out = apply_attack(img, parse_spec("lpf"))
        padded = np.pad(img, 1, mode="edge")
        for r in range(6):
            for c in range(6):
                want = padded[r:r + 3, c:c + 3].mean()
                assert out[r, c] == np.floor(want + 0.5)

    def test_erode_dilate_order(self, lena_like):
        eroded = apply_attack(lena_like, parse_spec("erode"))
        dilated = apply_attack(lena_like, parse_spec("dilate"))
        assert (eroded <= lena_like).all()
        assert (lena_like <= dilated).all()

    def test_erode_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        img = np.floor(rng.random((6, 6)) * 256)
        out = apply_attack(img, parse_spec("erode"))
        padded = np.pad(img, 1, mode="edge")
        for r in range(6):
            for c in range(6):
                assert out[r, c] == padded[r:r + 3, c:c + 3].min()

    def test_range_map_default_bounds(self, lena_like):
        out = apply_attack(lena_like, parse_spec("range_map"))
        assert out.min() >= 25 and out.max() <= 215
        identity = apply_attack(lena_like, parse_spec("range_map:low=0,up=255"))
        assert (identity == lena_like).all()

    def test_range_map_validation(self, lena_like):
        with pytest.raises(AttackSpecError, match="low < up"):
            apply_attack(lena_like, parse_spec("range_map:low=200,up=100"))

    def test_crop_half_geometry(self):
        img = np.full((256, 256), 200.0)
        out = apply_attack(img, parse_spec("crop_half"))
        keep = int(256 / math.sqrt(2))
        start = (256 - keep) // 2
        assert (out[start:start + keep, start:start + keep] == 200).all()
        assert out[0, 0] == 128 and out[-1, -1] == 128
        assert (out == 200).sum() == keep * keep

    def test_add_noise_hits_and_amount(self):
        img = np.full((256, 256), 128.0)
        out = apply_attack(img, parse_spec("add_noise:seed=3"))
        delta = out - img
        hit_rate = (delta != 0).mean()
        assert 0.08 <= hit_rate <= 0.12
        assert set(np.unique(np.abs(delta))) <= {0.0, 51.0}

    def test_seeded_attacks_reproducible(self, lena_like):
        for spec_text in ("add_noise:seed=9", "awgn:snr_db=11.4,seed=9"):
            a = apply_attack(lena_like, parse_spec(spec_text))
            b = apply_attack(lena_like, parse_spec(spec_text))
            assert (a == b).all()

    def test_awgn_snr_level(self):
        rng = np.random.default_rng(4)
        img = np.floor(rng.uniform(100, 160, (256, 256)))
        out = apply_attack(img, parse_spec("awgn:snr_db=20,seed=1"))
        noise_power = ((out - img) ** 2).mean()
        want = (img ** 2).mean() * 10 ** (-2.0)
        # clamping and rounding perturb the realized power slightly
        assert want * 0.8 <= noise_power <= want * 1.2

    def test_intensity_adjust_stretches(self):
        img = np.clip(np.linspace(50, 180, 64 * 64).reshape(64, 64), 0, 255)
        out = apply_attack(img, parse_spec("intensity_adjust"))
        assert out.min() == 0 and out.max() == 255

    def test_sharpen_amplifies_contrast(self, lena_like):
        out = apply_attack(lena_like, parse_spec("sharpen"))
        assert out.std() > lena_like.std()

    def test_histogram_eq_flattens(self, lena_like):
        out = apply_attack(lena_like, parse_spec("histogram_eq"))
        # equalized cdf is close to linear
        hist = np.bincount(out.astype(int).ravel(), minlength=256)
        cdf = np.cumsum(hist) / out.size
        ideal = (np.arange(256) + 1) / 256
        assert np.abs(cdf - ideal).mean() < 0.05

    def test_histogram_eq_constant_unchanged(self):
        img = np.full((16, 16), 99.0)
        assert (apply_attack(img, parse_spec("histogram_eq")) == img).all()

    def test_rescale_preserves_smooth_images(self):
        yy, xx = np.mgrid[0:64, 0:64]
        img = np.floor(100 + 0.5 * yy + 0.3 * xx)
        out = apply_attack(img, parse_spec("rescale"))
        assert np.abs(out - img).mean() < 2.0

    def test_all_attacks_preserve_range_and_shape(self, lena_like):
        for spec_text in DEFAULT_BENCH + ("awgn", "jpeg", "intensity_adjust"):
            out = apply_attack(lena_like, parse_spec(spec_text))
            assert out.shape == lena_like.shape, spec_text
            assert out.min() >= 0 and out.max() <= 255, spec_text
            assert (out == np.floor(out)).all(), spec_text

    def test_unknown_kind_in_apply(self, lena_like):
        with pytest.raises(AttackSpecError, match="unknown attack"):
            apply_attack(lena_like, AttackSpec(kind="blur9000"))

    def test_shape_change_raises(self, lena_like, monkeypatch):
        # an explicit check, so it also holds under python -O
        monkeypatch.setitem(CATALOG, "crop_half", (lambda img: img[:-1], {}))
        with pytest.raises(ValueError, match="shape"):
            apply_attack(lena_like, AttackSpec(kind="crop_half"))


class TestJpeg:
    def test_quality_table_scaling(self):
        q50 = quality_table(50)
        assert q50[0, 0] == 16 and q50[7, 7] == 99
        q100 = quality_table(100)
        assert (q100 == 1).all()
        with pytest.raises(AttackSpecError, match="quality"):
            quality_table(0)

    def test_quality_100_near_lossless(self, lena_like):
        out = jpeg_codec(lena_like, 100)
        assert np.abs(out - lena_like).max() <= 2

    def test_constant_image_stays_constant(self):
        img = np.full((32, 32), 130.0)
        for q in (10, 50, 90):
            out = jpeg_codec(img, q)
            assert np.unique(out).size == 1
        # with a moderate DC step the level also survives exactly
        assert (jpeg_codec(img, 50) == img).all()

    def test_ramp_block_matches_hand_oracle(self):
        # one 8x8 ramp block, Q=50, every codec step run independently
        block = np.arange(64, dtype=float).reshape(8, 8) * 3.0
        qt = quality_table(50)
        coefs = naive_dct2(block - 128.0)
        levels = np.sign(coefs) * np.floor(np.abs(coefs) / qt + 0.5)
        rec = naive_idct2(levels * qt) + 128.0
        want = np.floor(np.clip(rec, 0, 255) + 0.5)
        got = jpeg_codec(block, 50)
        assert np.abs(got - want).max() < 1e-9

    def test_distortion_monotone_in_quality(self, lena_like):
        mses = [((jpeg_codec(lena_like, q) - lena_like) ** 2).mean()
                for q in (20, 50, 75)]
        assert mses[0] >= mses[1] >= mses[2]

    def test_dimension_requirement(self):
        with pytest.raises(AttackSpecError, match="divisible by 8"):
            jpeg_codec(np.zeros((20, 20)), 50)


def test_default_bench_has_fourteen_rows():
    assert len(DEFAULT_BENCH) == 14
    for spec_text in DEFAULT_BENCH:
        parse_spec(spec_text)


def test_every_catalog_kind_runs(lena_like):
    small = lena_like[:64, :64]
    for kind in CATALOG:
        out = apply_attack(small, AttackSpec(kind=kind))
        assert out.shape == small.shape
