import math

import numpy as np
import pytest
from scipy import fft as sfft
from scipy import ndimage

from dwtmark import attacks
from dwtmark.attacks import (CATALOG, DEFAULT_BENCH, AttackSpec,
                             AttackSpecError, apply_attack, parse_spec,
                             quality_table)
from dwtmark.pixmap import quantize


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

    def test_repeated_key(self):
        with pytest.raises(AttackSpecError,
                           match="awgn names parameter 'snr_db' twice"):
            parse_spec("awgn:snr_db=10,snr_db=20")

    def test_str_roundtrip(self):
        spec = parse_spec("range_map:low=10,up=200")
        assert parse_spec(str(spec)) == spec

    @pytest.mark.parametrize("text, want", [
        ("add_noise:amount=1e308", "add_noise:amount=1e+308"),
        ("awgn:snr_db=1e16", "awgn:snr_db=1e+16"),
        ("gamma:g=2", "gamma:g=2.0"),
        ("sharpen:lam=0.5", "sharpen:lam=0.5"),
        ("jpeg:q=50", "jpeg:q=50"),
    ])
    def test_str_stays_short_and_roundtrips(self, text, want):
        # a big float must not print as its full decimal expansion
        spec = parse_spec(text)
        assert str(spec) == want
        assert len(str(spec)) <= 32
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


# every float parameter of the catalog, pushed to the float limits: an
# overflow on the way is a non-finite result, refused by apply_attack's one
# check, so only an image or an AttackSpecError can come out
FLOAT_PARAMS = [(kind, key) for kind, (_, defaults) in sorted(CATALOG.items())
                for key, value in defaults.items() if isinstance(value, float)]


@pytest.mark.parametrize("kind, key", FLOAT_PARAMS,
                         ids=[f"{k}.{p}" for k, p in FLOAT_PARAMS])
@pytest.mark.parametrize("value", [1e308, -1e308, 5e-324, -5e-324])
def test_float_limits_give_an_image_or_an_attack_error(lena_like, kind, key,
                                                       value):
    small = lena_like[:64, :64]
    try:
        out = apply_attack(small, AttackSpec(kind, {key: value}))
    except AttackSpecError:
        return
    assert out.shape == small.shape and np.isfinite(out).all()


def test_awgn_overflow_is_the_non_finite_error(lena_like):
    with pytest.raises(AttackSpecError,
                       match=r"^attack awgn gives non-finite pixels with "
                             r"\{'snr_db': -4000.0, 'seed': 0\}"):
        apply_attack(lena_like, parse_spec("awgn:snr_db=-4000"))


@pytest.mark.parametrize("sigma", [1e154, 1e200, 1e308])
def test_gaussian_sigma_too_large_to_square_is_the_box(lena_like, sigma):
    # 2 * sigma**2 overflows to inf from sigma = 9.5e153 on; every weight
    # is then exp(-0) = 1, which normalized is lpf's 3x3 box
    spec = AttackSpec("gaussian_filter", {"sigma": sigma})
    got = apply_attack(lena_like, spec)
    assert got.tobytes() == apply_attack(lena_like, parse_spec("lpf")).tobytes()


def test_negative_default_seed_rejected(lena_like):
    with pytest.raises(AttackSpecError, match="add_noise.seed"):
        apply_attack(lena_like, parse_spec("add_noise"), default_seed=-1)


# a directly built spec and the default seed pass the check parse_spec uses
@pytest.mark.parametrize("spec, seed, match", [
    (AttackSpec("jpeg", {"qq": 50}), 0, "bad parameter 'qq' for jpeg"),
    (AttackSpec("gamma", {"sigma": 0.8}), 0, "bad parameter 'sigma' for gamma"),
    (AttackSpec("median", {"seed": 1}), 0, r"bad parameter 'seed' .*none"),
    (AttackSpec("jpeg", {"q": 50.7}), 0, "bad value 50.7 for jpeg.q"),
    (AttackSpec("jpeg", {"q": "fifty"}), 0, "bad value 'fifty' for jpeg.q"),
    (AttackSpec("jpeg", {"q": None}), 0, "bad value None for jpeg.q"),
    (AttackSpec("jpeg", {"q": math.inf}), 0, "bad value inf for jpeg.q"),
    (AttackSpec("awgn", {"seed": 2.5}), 0, "bad value 2.5 for awgn.seed"),
    (AttackSpec("awgn"), 1.5, "bad value 1.5 for awgn.seed"),
    (AttackSpec("add_noise"), math.nan, "bad value nan for add_noise.seed"),
], ids=["unknown_key", "other_kinds_key", "no_params", "lossy_int",
        "not_a_number", "none", "inf_int", "lossy_seed", "lossy_default_seed",
        "nan_default_seed"])
def test_apply_attack_checks_parameters_as_parse_spec_does(lena_like, spec,
                                                           seed, match):
    with pytest.raises(AttackSpecError, match=match):
        apply_attack(lena_like, spec, default_seed=seed)


@pytest.mark.parametrize("spec, same", [
    (AttackSpec("jpeg", {"q": 50.0}), "jpeg:q=50"),
    (AttackSpec("jpeg", {"q": np.int64(50)}), "jpeg:q=50"),
    (AttackSpec("gamma", {"g": 1}), "gamma:g=1.0"),
    (AttackSpec("awgn", {"seed": np.uint8(3)}), "awgn:seed=3"),
], ids=["float_q", "int64_q", "int_g", "uint8_seed"])
def test_lossless_parameter_values_run_as_parsed(lena_like, spec, same):
    want = apply_attack(lena_like, parse_spec(same))
    assert apply_attack(lena_like, spec).tobytes() == want.tobytes()


def test_parse_spec_item_without_value_is_a_bad_value():
    with pytest.raises(AttackSpecError, match="bad value '' for jpeg.q"):
        parse_spec("jpeg:q")


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

    def test_dilate_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        img = np.floor(rng.random((6, 7)) * 256)
        out = apply_attack(img, parse_spec("dilate"))
        padded = np.pad(img, 1, mode="edge")
        for r in range(6):
            for c in range(7):
                assert out[r, c] == padded[r:r + 3, c:c + 3].max()

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


# oracles: scipy's generic rank filters with the same edge handling
RANK_ORACLES = {
    "median": lambda img: ndimage.median_filter(img, size=3, mode="nearest"),
    "erode": lambda img: ndimage.grey_erosion(img, size=(3, 3), mode="nearest"),
    "dilate": lambda img: ndimage.grey_dilation(img, size=(3, 3),
                                                mode="nearest"),
}


@pytest.mark.parametrize("strip", ["default"])
@pytest.mark.parametrize("shape", [(1, 40), (50, 1), (2, 3), (37, 300),
                                   (301, 257)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("kind", sorted(RANK_ORACLES))
def test_rank_filters_match_scipy(kind, shape, strip):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    img = rng.integers(0, 256, shape).astype(np.float64)
    img.flat[:2] = (0.0, 255.0)
    impl, _ = CATALOG[kind]
    got = impl(img)
    want = RANK_ORACLES[kind](img)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# the attacks' plain formulas; the implementations build them in place,
# in the same per-element order, so the bytes must match
def _bilinear_formula(img, out_h, out_w):
    h, w = img.shape
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    return (img[np.ix_(y0, x0)] * (1 - fy) * (1 - fx)
            + img[np.ix_(y0, x1)] * (1 - fy) * fx
            + img[np.ix_(y1, x0)] * fy * (1 - fx)
            + img[np.ix_(y1, x1)] * fy * fx)


def _add_noise_formula(img, pixels, amount, seed):
    rng = np.random.default_rng(seed)
    hit = rng.random(img.shape) < pixels
    sign = np.where(rng.random(img.shape) < 0.5, -1.0, 1.0)
    return img + hit * sign * (amount * 255.0)


FORMULAS = {
    "rescale": (lambda img: _bilinear_formula(
        _bilinear_formula(img, max(img.shape[0] // 2, 1),
                          max(img.shape[1] // 2, 1)), *img.shape),
                [{}]),
    "sharpen": (lambda img, lam: img + lam * (img - attacks._lpf(img)),
                [{"lam": 1.0}, {"lam": 0.5}, {"lam": 2}, {"lam": -0.3}]),
    "gamma": (lambda img, g: 255.0 * (img / 255.0) ** g,
              [{"g": 0.8}, {"g": 0.5}, {"g": 1.0}, {"g": 2.0}, {"g": 3.0}]),
    "add_noise": (_add_noise_formula,
                  [{"pixels": 0.1, "amount": 0.2, "seed": 3},
                   {"pixels": 1.0, "amount": 3.7, "seed": 0}]),
}


@pytest.mark.parametrize("shape", [(1, 40), (50, 1), (2, 3), (37, 300),
                                   (301, 257)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("kind", sorted(FORMULAS))
def test_in_place_attacks_match_their_formulas(kind, shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    img = rng.integers(0, 256, shape).astype(np.float64)
    img.flat[:2] = (0.0, 255.0)
    formula, cases = FORMULAS[kind]
    impl, _ = CATALOG[kind]
    for params in cases:
        got = impl(img, **params)
        want = formula(img, **params)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), params


@pytest.mark.parametrize("size", [(5, 7), (74, 600), (3, 1), (1, 1)])
def test_bilinear_resize_matches_formula(size):
    img = np.random.default_rng(7).integers(0, 256, (37, 300)).astype(float)
    got = attacks._bilinear_resize(img, *size)
    assert got.tobytes() == _bilinear_formula(img, *size).tobytes()


def test_non_finite_input_rejected():
    img = np.full((16, 16), 100.0)
    img[3, 4] = np.nan
    for kind in ("median", "erode", "invert"):
        with pytest.raises(ValueError, match="non-finite"):
            apply_attack(img, parse_spec(kind))


class TestJpeg:
    def test_quality_table_scaling(self):
        q50 = quality_table(50)
        assert q50[0, 0] == 16 and q50[7, 7] == 99
        q100 = quality_table(100)
        assert (q100 == 1).all()
        with pytest.raises(AttackSpecError, match="quality"):
            quality_table(0)

    def test_quality_100_near_lossless(self, lena_like):
        out = apply_attack(lena_like, AttackSpec("jpeg", {"q": 100}))
        assert np.abs(out - lena_like).max() <= 2

    def test_constant_image_stays_constant(self):
        img = np.full((32, 32), 130.0)
        for q in (10, 50, 90):
            out = apply_attack(img, AttackSpec("jpeg", {"q": q}))
            assert np.unique(out).size == 1
        # with a moderate DC step the level also survives exactly
        assert (apply_attack(img, AttackSpec("jpeg", {"q": 50})) == img).all()

    def test_ramp_block_matches_hand_oracle(self):
        # one 8x8 ramp block, Q=50, every codec step run independently
        block = np.arange(64, dtype=float).reshape(8, 8) * 3.0
        qt = quality_table(50)
        coefs = naive_dct2(block - 128.0)
        levels = np.sign(coefs) * np.floor(np.abs(coefs) / qt + 0.5)
        rec = naive_idct2(levels * qt) + 128.0
        want = np.floor(np.clip(rec, 0, 255) + 0.5)
        got = apply_attack(block, AttackSpec("jpeg", {"q": 50}))
        assert np.abs(got - want).max() < 1e-9

    def test_distortion_monotone_in_quality(self, lena_like):
        mses = [((apply_attack(lena_like, AttackSpec("jpeg", {"q": q}))
                  - lena_like) ** 2).mean()
                for q in (20, 50, 75)]
        assert mses[0] >= mses[1] >= mses[2]

    def test_dimension_requirement(self):
        with pytest.raises(AttackSpecError, match="divisible by 8"):
            apply_attack(np.zeros((20, 20)), AttackSpec("jpeg", {"q": 50}))


def test_default_bench_has_fourteen_rows():
    assert len(DEFAULT_BENCH) == 14
    for spec_text in DEFAULT_BENCH:
        parse_spec(spec_text)


def test_every_catalog_kind_runs(lena_like):
    small = lena_like[:64, :64]
    for kind in CATALOG:
        out = apply_attack(small, AttackSpec(kind=kind))
        assert out.shape == small.shape


# --- the 8-bit input gate ---------------------------------------------------

@pytest.mark.parametrize("shape", [(16,), (2, 16, 16), (0, 0), (0, 8)],
                         ids=str)
@pytest.mark.parametrize("kind", sorted(CATALOG))
def test_non_image_input_rejected_before_the_attack(kind, shape):
    for dtype in (np.uint8, np.float64):
        with pytest.raises(ValueError, match="non-empty 2-D image"):
            apply_attack(np.zeros(shape, dtype), AttackSpec(kind=kind))


@pytest.mark.parametrize("kind", sorted(CATALOG))
def test_uint8_input_attacked_like_its_float_copy(lena_like, kind):
    u8 = quantize(lena_like[:64, :64]).astype(np.uint8)
    before = u8.copy()
    got = apply_attack(u8, AttackSpec(kind=kind), default_seed=5)
    want = apply_attack(u8.astype(np.float64), AttackSpec(kind=kind),
                        default_seed=5)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(u8, before)


def test_other_integer_images_are_clamped():
    img = np.full((16, 16), 100, dtype=np.int16)
    img[0, :2] = (300, -5)
    out = apply_attack(img, parse_spec("invert"))
    assert out[0, 0] == 0 and out[0, 1] == 255 and out[1, 1] == 155


# --- the codec's forward-DCT memo -------------------------------------------

def reference_jpeg(img, quality):
    """The jpeg attack without the DCT memo: the bytes it must match."""
    img = quantize(np.asarray(img, dtype=np.float64))
    h, w = img.shape
    qt = quality_table(int(quality))
    blocks = img.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3) - 128.0
    coefs = sfft.dctn(blocks, type=2, norm="ortho", axes=(2, 3),
                      overwrite_x=True)
    levels = np.abs(coefs)
    levels /= qt
    levels += 0.5
    np.floor(levels, out=levels)
    levels *= np.sign(coefs)
    levels *= qt
    rec = sfft.idctn(levels, type=2, norm="ortho", axes=(2, 3),
                     overwrite_x=True)
    rec += 128.0
    return quantize(rec.transpose(0, 2, 1, 3).reshape(h, w))


@pytest.fixture
def dct_calls(monkeypatch):
    """Empty the codec's DCT memo and count the forward DCTs it runs."""
    monkeypatch.setattr(attacks._dct_memo, "slot", None)
    calls = []
    block_dct = attacks._block_dct

    def counting(img):
        calls.append(img.shape)
        return block_dct(img)

    monkeypatch.setattr(attacks, "_block_dct", counting)
    return calls


class TestDctMemo:
    def test_matches_the_reference_through_hits_and_misses(self, dct_calls,
                                                           lena_like):
        a = lena_like[:64, :96]
        b = 255.0 - lena_like[64:128, :96]
        turns = [a, a, b, a, b, b, a[:, :64]]   # two images, then a new shape
        for q in range(1, 101):
            img = turns[q % len(turns)]
            got = apply_attack(img, AttackSpec("jpeg", {"q": q}))
            assert got.tobytes() == reference_jpeg(img, q).tobytes(), q
        assert 0 < len(dct_calls) < 100
        assert (64, 64) in dct_calls

    def test_writes_into_the_callers_image_are_seen(self, dct_calls,
                                                    lena_like):
        img = quantize(lena_like[:64, :64]).astype(np.uint8)
        for i, q in enumerate((50, 50, 70, 30)):
            if i < 3:
                img[3, 5 + i] ^= 0xFF   # same array, new pixels: a miss
            got = apply_attack(img, parse_spec(f"jpeg:q={q}"))
            assert got.tobytes() == reference_jpeg(img, q).tobytes()
        assert len(dct_calls) == 3   # the last call changed nothing: a hit

    def test_holds_a_uint8_key_and_read_only_coefficients(self, dct_calls,
                                                          lena_like):
        img = lena_like[:64, :96]
        apply_attack(img, AttackSpec("jpeg", {"q": 50}))
        key, held, coefs = attacks._dct_memo.slot
        assert key is None and held.dtype == np.uint8
        assert np.array_equal(held, quantize(img))
        assert not held.flags.writeable and not coefs.flags.writeable
        assert held.nbytes + coefs.nbytes == 9 * img.size   # 9 B/px

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_image_is_refused_and_not_stored(self, dct_calls,
                                                          lena_like, value):
        img = quantize(lena_like[:64, :64])
        bad = img.copy()
        bad[0, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            apply_attack(bad, AttackSpec("jpeg", {"q": 50}))
        assert attacks._dct_memo.slot is None
        got = apply_attack(img, AttackSpec("jpeg", {"q": 50}))
        assert got.tobytes() == reference_jpeg(img, 50).tobytes()
