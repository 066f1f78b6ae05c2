import numpy as np
import pytest

from dwtmark import metrics, watermarker
from dwtmark.attacks import apply_attack, parse_spec
from dwtmark.dwt import ORIENTATIONS, WaveletPyramid, dwt2
from dwtmark.pixmap import quantize
from dwtmark.watermarker import (DETECTOR_I, DETECTOR_II, EmbedConfig,
                                 compute_thresholds, decode, embed,
                                 embed_image, extract_image, extract_votes,
                                 parse_detector, require_capacity,
                                 tally_image, tally_votes, vote_reference)
from conftest import random_mark

CFG = EmbedConfig()


def small_pyramid(rng, size=32, levels=3):
    return dwt2(rng.uniform(0, 255, (size, size)), levels)


def level1_pyramid(level1):
    """A 3-level pyramid of the given (s, 1) -> band, with zero-filled
    levels 2 and 3, where no coefficient qualifies."""
    detail = {(s, l): np.zeros((1, 1)) for l in (2, 3) for s in ORIENTATIONS}
    return WaveletPyramid(levels=3, detail={**level1, **detail},
                          approx=np.zeros((1, 1)))


def recount_votes(cover_pyr, received_pyr):
    """Independent oracle: loop every coefficient, tally sign votes."""
    tallies = {}
    for l, q in enumerate(EmbedConfig.q, 1):
        for s in ORIENTATIONS:
            c = cover_pyr.detail[(s, l)]
            cr = received_pyr.detail[(s, l)]
            t = q * max(abs(c.min()), abs(c.max()))
            tally = np.zeros((2, 16, 16), dtype=np.int64)
            for m in range(c.shape[0]):
                for n in range(c.shape[1]):
                    if abs(c[m, n]) <= t or c[m, n] == 0:
                        continue
                    ratio = (cr[m, n] - c[m, n]) / c[m, n]
                    # a +1 bit shrinks |c|: the vote is -sgn(ratio)
                    est = int(ratio < 0) - int(ratio > 0)
                    if est > 0:
                        tally[0, m % 16, n % 16] += 1
                    elif est < 0:
                        tally[1, m % 16, n % 16] += 1
            tallies[(s, l)] = tally
    return tallies


def loop_embed(pyr, wm, cfg):
    """Independent oracle: modulate every qualifying coefficient in a loop."""
    out = {}
    for (o, l), c in pyr.detail.items():
        t = cfg.q[l - 1] * np.abs(c).max()
        expected = c.copy()
        for m in range(c.shape[0]):
            for n in range(c.shape[1]):
                if abs(c[m, n]) > t:
                    expected[m, n] = c[m, n] * (
                        1.0 - cfg.alpha * wm[m % 16, n % 16])
        out[(o, l)] = expected
    return out


def recount_decode(tallies, detector):
    """Independent oracle for the two-stage majority."""
    out = np.zeros((16, 16), dtype=np.int8)
    for m in range(16):
        for n in range(16):
            total = 0
            for key in detector:
                plus, minus = tallies[key][0, m, n], tallies[key][1, m, n]
                if plus > minus:
                    total += 1
                elif minus > plus:
                    total -= 1
            out[m, n] = 1 if total >= 0 else -1
    return out


class TestThresholds:
    def test_magnitude_max(self):
        band = np.array([[1.0, -9.0], [4.0, 2.0]])
        pyr = level1_pyramid({("h", 1): band, ("v", 1): band * 0,
                              ("d", 1): band * 0})
        th = compute_thresholds(pyr)
        assert th[("h", 1)] == pytest.approx(0.54)   # 0.06 * |-9|

    def test_zero_band_gives_zero_threshold_and_no_selection(self):
        pyr = level1_pyramid({(s, 1): np.zeros((4, 4)) for s in "hvd"})
        th = compute_thresholds(pyr)
        assert th[("h", 1)] == 0.0
        out, report = embed(pyr, random_mark(0), CFG)
        assert report.total_modified == 0

    def test_level_assignment_uses_per_level_q(self, lena_like):
        pyr = dwt2(lena_like, 3)
        th = compute_thresholds(pyr)
        assert len(th) == 9
        for s in ORIENTATIONS:
            band = pyr.detail[(s, 3)]
            assert th[(s, 3)] == pytest.approx(0.02 * np.abs(band).max())


class TestEmbed:
    def test_negative_modulation_values(self):
        # T = 0.06 * 10 = 0.6: only the 10 qualifies
        band = np.array([[10.0, 0.5], [0.5, 0.5]])
        pyr = level1_pyramid({("h", 1): band.copy(),
                              ("v", 1): np.zeros((2, 2)),
                              ("d", 1): np.zeros((2, 2))})
        cfg = EmbedConfig(alpha=0.4)
        plus = np.ones((16, 16), dtype=np.int8)
        out, _ = embed(pyr, plus, cfg)
        assert out.detail[("h", 1)][0, 0] == pytest.approx(6.0)   # 10*(1-0.4)
        out, _ = embed(pyr, -plus, cfg)
        assert out.detail[("h", 1)][0, 0] == pytest.approx(14.0)  # 10*(1+0.4)

    def test_subthreshold_untouched(self):
        rng = np.random.default_rng(2)
        pyr = small_pyramid(rng)
        out, _ = embed(pyr, random_mark(2), CFG)
        for key in pyr.detail:
            band, new = pyr.detail[key], out.detail[key]
            t = CFG.q[key[1] - 1] * np.abs(band).max()
            below = np.abs(band) <= t
            assert (band[below] == new[below]).all()

    def test_ll_band_untouched(self):
        rng = np.random.default_rng(3)
        pyr = small_pyramid(rng)
        out, _ = embed(pyr, random_mark(3), CFG)
        assert (out.approx == pyr.approx).all()

    def test_report_counts_match_selection(self, lena_like):
        pyr = dwt2(lena_like, 3)
        _, report = embed(pyr, random_mark(4), CFG)
        th = compute_thresholds(pyr)
        for key, t in th.items():
            assert report.modified[key] == int((np.abs(pyr.detail[key]) > t).sum())

    def test_report_reference_is_the_vote_reference(self, lena_like):
        pyr = dwt2(lena_like, 3)
        marked, report = embed(pyr, random_mark(4), CFG)
        want = vote_reference(pyr)
        assert report.reference.keys() == want.keys()
        for key, band in want.items():
            got = report.reference[key]
            assert got.shape == band.shape
            for array, expected in zip(got[1:], band[1:]):
                assert array.tobytes() == expected.tobytes()
            assert report.modified[key] == band.positions.size
        # the report's map serves extraction as it is
        tallies = tally_votes(report.reference, marked)
        for key, tally in extract_votes(pyr, marked).items():
            assert (tallies[key] == tally).all()

    def test_matches_loop_oracle_on_ragged_bands(self):
        # a 40x24 cover gives 20x12, 10x6 and 5x3 bands, sides that are
        # not multiples of the 16x16 mark, so the mark tiles only partly
        cover = np.random.default_rng(6).uniform(0, 255, (40, 24))
        wm = random_mark(6)
        pyr = dwt2(cover, 3)
        out, _ = embed(pyr, wm, CFG)
        for key, expected in loop_embed(pyr, wm, CFG).items():
            assert out.detail[key].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("layout", ["fortran", "strided", "reversed"])
    def test_matches_loop_oracle_on_non_c_contiguous_bands(self, layout):
        # embed scatters through a flat view of a copy of each band; a
        # copy that kept a Fortran layout would have no such view, and
        # the modulated values would be lost without an error
        relayout = {
            "fortran": np.asfortranarray,
            "strided": lambda c: np.repeat(c, 2, axis=1)[:, ::2],
            "reversed": lambda c: c[::-1, ::-1].copy()[::-1, ::-1],
        }[layout]
        cover = np.random.default_rng(11).uniform(0, 255, (48, 40))
        wm = random_mark(11)
        pyr = dwt2(cover, 3)
        detail = {key: relayout(c) for key, c in pyr.detail.items()}
        for key, c in detail.items():
            assert not c.flags.c_contiguous
            assert c.tobytes() == pyr.detail[key].tobytes()
        odd = WaveletPyramid(levels=3, detail=detail, approx=pyr.approx)
        out, report = embed(odd, wm, CFG)
        assert report.total_modified > 0
        for key, expected in loop_embed(pyr, wm, CFG).items():
            assert out.detail[key].tobytes() == expected.tobytes()


class TestExtract:
    def test_clean_votes_equal_truth(self):
        rng = np.random.default_rng(5)
        pyr = small_pyramid(rng)
        wm = random_mark(5)
        marked, _ = embed(pyr, wm, CFG)
        tallies = extract_votes(pyr, marked)
        for key, tal in tallies.items():
            wrong_plus = (tal[0] > 0) & (wm == -1)
            wrong_minus = (tal[1] > 0) & (wm == 1)
            assert not wrong_plus.any()
            assert not wrong_minus.any()

    def test_identical_coefficients_abstain(self):
        rng = np.random.default_rng(6)
        pyr = small_pyramid(rng)
        tallies = extract_votes(pyr, pyr)
        for tal in tallies.values():
            assert tal.sum() == 0

    def test_tallies_match_recount_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            pyr = small_pyramid(rng)
            wm = random_mark(70 + trial)
            marked, _ = embed(pyr, wm, CFG)
            noisy = WaveletPyramid(
                levels=marked.levels,
                detail={k: v + rng.normal(0, 4.0, v.shape)
                        for k, v in marked.detail.items()},
                approx=marked.approx)
            got = extract_votes(pyr, noisy)
            want = recount_votes(pyr, noisy)
            for key in want:
                assert (got[key] == want[key]).all()

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        a = small_pyramid(rng, size=32)
        b = small_pyramid(rng, size=64)
        with pytest.raises(ValueError, match="mismatch"):
            extract_votes(a, b)

    def test_reused_reference_matches_recount_oracle(self):
        rng = np.random.default_rng(9)
        pyr = small_pyramid(rng)
        marked, _ = embed(pyr, random_mark(9), CFG)
        reference = vote_reference(pyr)
        saved = {key: [np.copy(a) for a in band[1:]]
                 for key, band in reference.items()}
        noisy = {k: v + rng.normal(0, 4.0, v.shape)
                 for k, v in marked.detail.items()}
        # zeroed coefficients: a received value of 0 against a nonzero c
        zeroed = {k: np.where(rng.random(v.shape) < 0.3, 0.0, v)
                  for k, v in marked.detail.items()}
        for detail in (marked.detail, noisy, zeroed, pyr.detail):
            received = WaveletPyramid(levels=3, detail=detail,
                                      approx=marked.approx)
            got = tally_votes(reference, received)
            want = recount_votes(pyr, received)
            assert got.keys() == want.keys()
            for key in want:
                assert (got[key] == want[key]).all()
        for key, band in reference.items():
            for array, before in zip(band[1:], saved[key]):
                assert not array.flags.writeable
                assert array.tobytes() == before.tobytes()

    def test_capacity_counts_each_uncovered_bit(self):
        # bit (3, 5) tiles onto (3, 5) and (3, 21) of a 16x32 band; the
        # zeros there never qualify, in any of the three subbands
        band = np.ones((16, 32))
        band[3, 5] = band[3, 21] = 0.0
        pyr = level1_pyramid({(s, 1): band for s in "hvd"})
        with pytest.raises(ValueError, match=" 1 of 256 bit positions .* any "
                                             "of its 9 detail subbands"):
            require_capacity(vote_reference(pyr))
        band[3, 21] = 1.0
        require_capacity(vote_reference(pyr))

    def test_tally_rejects_missing_and_mismatched_subbands(self):
        rng = np.random.default_rng(10)
        pyr = small_pyramid(rng, size=32)
        reference = vote_reference(pyr)
        with pytest.raises(ValueError, match="mismatch"):
            tally_votes(reference, small_pyramid(rng, size=64))
        two_levels = small_pyramid(rng, size=32, levels=2)
        with pytest.raises(ValueError, match=r"missing subband \('h', 3\)"):
            tally_votes(reference, two_levels)


class TestTallyImage:
    @pytest.fixture()
    def received(self, lena_like):
        """The cover's reference and a noisy copy of its marked image."""
        marked, report = embed_image(lena_like, random_mark(12), CFG)
        noise = np.random.default_rng(12).normal(0, 3.0, marked.shape)
        return report.reference, quantize(marked + noise)

    def test_equals_the_full_tally_restricted_to_its_keys(self, received):
        reference, img = received
        # bench's key list repeats a subband two detectors share
        keys = [*DETECTOR_II, *DETECTOR_I]
        got = tally_image(reference, img, keys)
        full = tally_votes(reference, dwt2(img, CFG.levels))
        assert list(got) == list(dict.fromkeys(keys))
        for key, tally in got.items():
            assert tally.tobytes() == full[key].tobytes()

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_takes_its_depth_from_the_reference(self, received, depth):
        # a reference cut to the levels up to `depth` is a depth-level map
        reference, img = received
        reference = {key: band for key, band in reference.items()
                     if key[1] <= depth}
        got = tally_image(reference, img, list(reference))
        full = tally_votes(reference, dwt2(img, depth))
        assert len(got) == 3 * depth and got.keys() == full.keys()
        for key, tally in got.items():
            assert tally.tobytes() == full[key].tobytes()

    def test_drops_a_key_absent_from_the_reference(self, lena_like):
        marked, report = embed_image(lena_like, random_mark(13), CFG)
        tallies = tally_image(report.reference, marked, [("h", 1), ("h", 4)])
        assert list(tallies) == [("h", 1)]
        with pytest.raises(ValueError,
                           match=r"subband \('h', 4\) absent from tallies"):
            decode(tallies, (("h", 1), ("h", 4)))

    def test_decomposes_only_the_named_subbands(self, received, monkeypatch):
        reference, img = received
        asked = []

        def recording(img, levels, subbands=None):
            asked.append((levels, sorted(subbands)))
            return dwt2(img, levels, subbands=subbands)

        monkeypatch.setattr(watermarker, "dwt2", recording)
        tally_image(reference, img, [*DETECTOR_II, ("v", 2)])
        assert asked == [(CFG.levels, sorted(DETECTOR_II))]


class TestDecode:
    def _tally(self, plus, minus):
        t = np.zeros((2, 16, 16), dtype=np.int64)
        t[0] += plus
        t[1] += minus
        return t

    def test_majority_of_nine(self):
        tallies = {}
        for i, key in enumerate(DETECTOR_I):
            # 7 subbands say +1, 2 say -1
            tallies[key] = self._tally(3, 0) if i < 7 else self._tally(0, 3)
        assert (decode(tallies, DETECTOR_I) == 1).all()

    def test_detector_ii_majority(self):
        verdicts = {("h", 2): (1, 0), ("v", 2): (0, 1), ("v", 3): (0, 1)}
        tallies = {k: self._tally(p, m) for k, (p, m) in verdicts.items()}
        assert (decode(tallies, DETECTOR_II) == -1).all()

    def test_all_abstain_defaults_plus_one(self):
        tallies = {key: np.zeros((2, 16, 16), dtype=np.int64)
                   for key in DETECTOR_I}
        assert (decode(tallies, DETECTOR_I) == 1).all()

    def test_tie_within_subband_abstains(self):
        tallies = {key: np.zeros((2, 16, 16), dtype=np.int64)
                   for key in DETECTOR_II}
        tallies[("h", 2)][:] = 2          # tied tally: abstain
        tallies[("v", 2)][1] = 1          # one -1 vote decides
        assert (decode(tallies, DETECTOR_II) == -1).all()

    def test_permutation_invariant(self):
        rng = np.random.default_rng(9)
        tallies = {key: rng.integers(0, 4, (2, 16, 16))
                   for key in DETECTOR_I}
        order = list(DETECTOR_I)
        rng.shuffle(order)
        assert (decode(tallies, DETECTOR_I) == decode(tallies, tuple(order))).all()

    def test_matches_recount_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            tallies = {key: rng.integers(0, 3, (2, 16, 16))
                       for key in DETECTOR_I}
            det = DETECTOR_I if rng.random() < 0.5 else DETECTOR_II
            assert (decode(tallies, det) == recount_decode(tallies, det)).all()

    def test_missing_subband_rejected(self):
        with pytest.raises(ValueError, match="absent"):
            decode({}, DETECTOR_II)
        with pytest.raises(ValueError, match="at least one"):
            decode({}, ())

    def test_repeated_subband_rejected(self, lena_like, mark):
        # a subband named twice would count its verdict twice
        twice = (("h", 1), ("h", 1), ("v", 1), ("d", 1))
        tallies = {key: self._tally(1, 0) for key in DETECTOR_I}
        with pytest.raises(ValueError, match=r"subband \('h', 1\) twice"):
            decode(tallies, twice)
        marked, _ = embed_image(lena_like, mark, CFG)
        with pytest.raises(ValueError, match="twice"):
            extract_image(lena_like, marked, detector=twice)


class TestEndToEnd:
    def test_clean_roundtrip_both_detectors(self, lena_like, mark):
        marked, report = embed_image(lena_like, mark, CFG)
        assert 33 <= report.psnr <= 41
        for det in (DETECTOR_I, DETECTOR_II):
            est = extract_image(lena_like, marked, detector=det)
            assert metrics.ber(mark, est) == 0.0

    def test_alpha_near_zero_is_transparent(self, lena_like, mark):
        cfg = EmbedConfig(alpha=1e-9)
        marked, _ = embed_image(lena_like, mark, cfg)
        assert np.abs(marked - lena_like).max() < 1e-6

    def test_psnr_monotone_in_alpha(self, lena_like, mark):
        psnrs = [embed_image(lena_like, mark, EmbedConfig(alpha=a))[1].psnr
                 for a in (0.1, 0.2, 0.4)]
        assert psnrs[0] >= psnrs[1] >= psnrs[2]

    def test_no_mark_extraction_near_chance(self, lena_like):
        est = extract_image(lena_like, lena_like, detector=DETECTOR_I)
        bers = [metrics.ber(random_mark(500 + i), est) for i in range(20)]
        assert 0.35 <= float(np.mean(bers)) <= 0.65

    def test_cover_too_small_for_the_mark_fails_loudly(self, lena_like, mark):
        # a 24x24 cover has 12x12 level-1 bands, so 112 bit positions have
        # no qualifying coefficient in any subband: the mark is not there,
        # and every detector would decode those bits as +1
        cover = lena_like[:24, :24]
        with pytest.raises(ValueError, match="cannot carry the mark: "
                           "112 of 256 bit positions"):
            embed_image(cover, mark, CFG)
        # the check looks only at the cover, so it is its own received image
        for det in (DETECTOR_I, DETECTOR_II):
            with pytest.raises(ValueError, match="cannot carry the mark: "
                               "112 of 256 bit positions"):
                extract_image(cover, cover, detector=det)

    def test_dimension_mismatch(self, lena_like):
        with pytest.raises(ValueError, match="differ"):
            extract_image(lena_like, lena_like[:128, :128], detector=DETECTOR_I)

    def test_non_finite_pixels_rejected(self, lena_like, mark):
        bad = lena_like.copy()
        bad[5, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            embed_image(bad, mark, CFG)
        bad[5, 7] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            extract_image(lena_like, bad, detector=DETECTOR_I)
        with pytest.raises(ValueError, match="non-finite"):
            extract_image(bad, lena_like, detector=DETECTOR_I)


class TestGainLimit:
    """A vote reads sgn((c' - c) / c).  A gain g on a subband gives
    c' = g * c * (1 - alpha*b): a -1 bit votes right only if
    g * (1 + alpha) > 1, a +1 bit only if g * (1 - alpha) < 1.
    range_map:low=0,up=U scales the image by g = U/255, so below
    U = 255/(1 + alpha) every bit decodes +1.  intensity_adjust stretches
    an image to 0..255, a gain g = 255/(max - min) above 1, so above
    g = 1/(1 - alpha) every bit decodes -1.  invert (255 - x) negates
    every detail coefficient, a gain g = -1 below the lower edge."""

    # the nearest 6-steps of U on either side that hold on all five
    # covers and three marks (one case fails at U = 186 for alpha .4)
    @pytest.mark.parametrize("alpha, below, above", [(0.4, 174, 192),
                                                     (0.25, 198, 210)])
    def test_vote_survives_only_gains_above_one_over_one_plus_alpha(
            self, corpus, mark, alpha, below, above):
        assert below < 255 / (1 + alpha) < above
        cfg = EmbedConfig(alpha=alpha)
        for seed, cover in corpus.items():
            for wm in (mark, -mark, random_mark(7)):
                marked, _ = embed_image(cover, wm, cfg)
                sent = quantize(marked).astype(np.uint8)
                est = {up: extract_image(cover, apply_attack(
                    sent, parse_spec(f"range_map:low=0,up={up}")))
                    for up in (below, above)}
                assert (est[below] == 1).all(), seed
                assert metrics.ber(wm, est[above]) <= 0.01, seed

    @pytest.mark.parametrize("alpha, spans", [(0.4, (140, 150, 160, 170)),
                                              (0.25, (185, 195, 205, 215))],
                             ids=["0.4", "0.25"])
    def test_vote_survives_only_gains_below_one_over_one_minus_alpha(
            self, corpus, mark, alpha, spans):
        # each cover is squeezed to a pixel range `span` wide around 128,
        # so that intensity_adjust of the transmitted image is a gain near
        # 255/span; g is read off each transmitted image, 4% from the edge
        cfg = EmbedConfig(alpha=alpha)
        edge = 1 / (1 - alpha)
        sides = {"holds": 0, "breaks": 0}
        for seed, cover in corpus.items():
            middle = (cover.max() + cover.min()) / 2
            for span in spans:
                squeezed = quantize(128 + (cover - middle) * span / np.ptp(cover))
                for wm in (mark, -mark, random_mark(7)):
                    marked, _ = embed_image(squeezed, wm, cfg)
                    sent = quantize(marked).astype(np.uint8)
                    g = 255 / (int(sent.max()) - int(sent.min()))
                    est = extract_image(squeezed, apply_attack(
                        sent, parse_spec("intensity_adjust")))
                    if g <= 0.96 * edge:
                        assert metrics.ber(wm, est) == 0, (seed, span, g)
                        sides["holds"] += 1
                    elif g >= 1.04 * edge:
                        assert (est == -1).mean() >= 0.99, (seed, span, g)
                        sides["breaks"] += 1
        assert sides["holds"] and sides["breaks"], sides

    @pytest.mark.parametrize("alpha", [0.4, 0.25])
    @pytest.mark.parametrize("detector", [DETECTOR_I, DETECTOR_II],
                             ids=["I", "II"])
    def test_invert_decodes_all_plus_one(self, corpus, mark, alpha, detector):
        # (c' - c) / c = -(2 - alpha*b) < 0 at every coefficient: a +1 vote
        cfg = EmbedConfig(alpha=alpha)
        for seed, cover in corpus.items():
            for wm in (mark, -mark, random_mark(7)):
                marked, _ = embed_image(cover, wm, cfg)
                inverted = apply_attack(quantize(marked).astype(np.uint8),
                                        parse_spec("invert"))
                est = extract_image(cover, inverted, detector=detector)
                assert (est == 1).all(), seed


class TestEmbeddingPsnr:
    def test_matches_pixel_psnr(self, corpus, mark):
        # the report's PSNR comes from the changed coefficients (Parseval)
        for cover in corpus.values():
            marked, report = embed_image(cover, mark, CFG)
            assert abs(report.psnr - metrics.psnr(cover, marked)) < 1e-9
            # embed itself builds the whole report
            assert embed(dwt2(cover, 3), mark, CFG)[1].psnr == report.psnr

    def test_selected_subband_pyramid(self, lena_like, mark):
        # dwt2 asked for every detail subband has no approx band
        keys = [(s, l) for l in (1, 2, 3) for s in ORIENTATIONS]
        full = embed(dwt2(lena_like, 3), mark, CFG)
        selected = embed(dwt2(lena_like, 3, subbands=keys), mark, CFG)
        assert selected[1].psnr == embed_image(lena_like, mark, CFG)[1].psnr
        for key in keys:
            assert np.array_equal(selected[0].detail[key], full[0].detail[key])

    def test_squared_error_overflow_fails_loudly(self, lena_like, mark):
        with pytest.raises(ValueError, match="squared error overflows"):
            embed_image(lena_like * 1e200, mark, CFG)


@pytest.fixture
def dwt2_calls(monkeypatch):
    """Empty extract_image's cover memo and record each dwt2 call's shape."""
    monkeypatch.setattr(watermarker._cover_memo, "slot", None)
    calls = []

    def counting_dwt2(img, levels, **kwargs):
        calls.append(img.shape)
        return dwt2(img, levels, **kwargs)

    monkeypatch.setattr(watermarker, "dwt2", counting_dwt2)
    return calls


def fresh_extract(cover, received, detector):
    """extract_image's result from a new analysis of the cover."""
    tallies = extract_votes(dwt2(cover, EmbedConfig.levels),
                            dwt2(received, EmbedConfig.levels))
    return decode(tallies, detector)


def noisy(img, seed):
    return img + np.random.default_rng(seed).normal(0.0, 30.0, img.shape)


class TestCoverMemo:
    def test_hit_decodes_like_a_fresh_analysis(self, dwt2_calls, lena_like,
                                               mark):
        marked, _ = embed_image(lena_like, mark, CFG)
        assert len(dwt2_calls) == 1
        extract_image(lena_like, marked, detector=DETECTOR_I)
        assert len(dwt2_calls) == 3
        for i, det in enumerate((DETECTOR_I, DETECTOR_II, DETECTOR_I)):
            received = noisy(marked, i)
            # an equal but distinct cover array: only the suspect is analysed
            est = extract_image(lena_like.copy(), received, detector=det)
            assert len(dwt2_calls) == 4 + i
            want = fresh_extract(lena_like, received, det)
            assert np.array_equal(est, want)
        assert metrics.ber(mark, est) > 0.0   # the noise moved some bits

    @pytest.mark.parametrize("change", ["pixel", "shape"])
    def test_changed_cover_or_config_misses(self, dwt2_calls, lena_like, mark,
                                            change):
        detector = parse_detector("h1,v1,d2,h2")
        marked, _ = embed_image(lena_like, mark, CFG)
        extract_image(lena_like, marked, detector=detector)
        calls = len(dwt2_calls)
        cover, received = lena_like.copy(), noisy(marked, 1)
        if change == "pixel":
            cover[200, 31] += 1.0
        else:
            cover, received = cover[:, :192], received[:, :192]
        est = extract_image(cover, received, detector=detector)
        assert dwt2_calls[calls:] == [cover.shape, received.shape]
        assert np.array_equal(est, fresh_extract(cover, received, detector))

    def test_alpha_does_not_enter_the_reference(self, dwt2_calls, lena_like):
        # extraction takes no config, so marks of any alpha share one
        # analysis of their cover
        for alpha in (0.4, 0.2):
            marked, _ = embed_image(lena_like, random_mark(0),
                                    EmbedConfig(alpha=alpha))
            extract_image(lena_like, marked)
        assert len(dwt2_calls) == 5

    def test_writes_into_the_callers_cover_are_seen(self, dwt2_calls,
                                                   lena_like, mark):
        cover = lena_like.copy()
        marked, _ = embed_image(cover, mark, CFG)
        extract_image(cover, marked, detector=DETECTOR_I)
        cover *= 0.5   # same array, new pixels
        est = extract_image(cover, marked, detector=DETECTOR_I)
        assert len(dwt2_calls) == 5
        assert np.array_equal(est, fresh_extract(cover, marked, DETECTOR_I))
        assert not np.array_equal(est, mark)   # what a stale reference gives

    def test_refused_cover_is_refused_every_time(self, dwt2_calls, lena_like):
        cover = lena_like[:24, :24]
        for i in range(3):
            with pytest.raises(ValueError, match="cannot carry the mark"):
                extract_image(cover, cover, detector=DETECTOR_I)
            assert len(dwt2_calls) == i + 1
        assert watermarker._cover_memo.slot is None

    def test_non_finite_cover_after_a_cached_one(self, dwt2_calls, lena_like):
        extract_image(lena_like, lena_like, detector=DETECTOR_I)
        bad = lena_like.copy()
        bad[5, 7] = np.nan
        with pytest.raises(ValueError, match="cover image has non-finite"):
            extract_image(bad, lena_like, detector=DETECTOR_I)
        with pytest.raises(ValueError, match="received image has non-finite"):
            extract_image(lena_like, bad, detector=DETECTOR_I)
        assert len(dwt2_calls) == 2


def as_uint8(img):
    return quantize(img).astype(np.uint8)


class TestIntegerPixels:
    def test_uint8_and_float_inputs_decode_alike(self, dwt2_calls, lena_like,
                                                 mark):
        cover = as_uint8(lena_like)
        marked, _ = embed_image(cover, mark, CFG)
        for i, det in enumerate((DETECTOR_I, DETECTOR_II)):
            received = as_uint8(noisy(marked, i))
            want = fresh_extract(cover, received, det)
            for c, r in ((cover, received), (cover, received.astype(float)),
                         (cover.astype(float), received)):
                assert np.array_equal(extract_image(c, r, detector=det), want)
        # one cover analysis: every later call, whatever its dtypes, hit
        assert len(dwt2_calls) == 1 + 1 + 6

    def test_uint8_cover_embeds_like_its_float_copy(self, lena_like, mark):
        cover = as_uint8(lena_like)
        marked, report = embed_image(cover, mark, CFG)
        want, want_report = embed_image(cover.astype(np.float64), mark, CFG)
        assert marked.tobytes() == want.tobytes()
        assert report.psnr == want_report.psnr
        assert report.total_modified == want_report.total_modified

    @pytest.mark.parametrize("first", [np.uint8, np.float64])
    def test_memo_hit_across_dtypes(self, dwt2_calls, lena_like, mark, first):
        cover = as_uint8(lena_like)
        marked, _ = embed_image(cover, mark, CFG)
        received = as_uint8(noisy(marked, 3))
        other = np.float64 if first is np.uint8 else np.uint8
        extract_image(cover.astype(first), received, detector=DETECTOR_II)
        # the held copy keeps the dtype the cover was passed in
        held = watermarker._cover_memo.slot[1]
        assert held.dtype == first and not held.flags.writeable
        est = extract_image(cover.astype(other), received, detector=DETECTOR_II)
        assert len(dwt2_calls) == 1 + 2 + 1
        assert np.array_equal(est, fresh_extract(cover, received, DETECTOR_II))

    def test_non_finite_float_cover_after_a_uint8_one(self, dwt2_calls,
                                                      lena_like):
        cover = as_uint8(lena_like)
        extract_image(cover, cover, detector=DETECTOR_I)
        bad = cover.astype(float)
        bad[5, 7] = np.nan
        with pytest.raises(ValueError, match="cover image has non-finite"):
            extract_image(bad, cover, detector=DETECTOR_I)
        with pytest.raises(ValueError, match="received image has non-finite"):
            extract_image(cover, bad, detector=DETECTOR_I)
        assert len(dwt2_calls) == 2

    def test_suspect_decomposed_into_the_detectors_subbands(self, monkeypatch,
                                                           lena_like):
        monkeypatch.setattr(watermarker._cover_memo, "slot", None)
        asked = []

        def recording_dwt2(img, levels, subbands=None):
            asked.append(None if subbands is None else set(subbands))
            return dwt2(img, levels, subbands=subbands)

        monkeypatch.setattr(watermarker, "dwt2", recording_dwt2)
        received = noisy(lena_like, 4)
        for det in (DETECTOR_II, DETECTOR_I, parse_detector("d1,h3")):
            extract_image(lena_like, received, detector=det)
        # the cover is analysed in full once, each suspect in part
        assert asked == [None, set(DETECTOR_II), set(DETECTOR_I),
                         {("d", 1), ("h", 3)}]

    def test_detector_deeper_than_the_config_still_refused(self, lena_like):
        with pytest.raises(ValueError,
                           match="h4 is deeper than the 3-level pyramid"):
            parse_detector("h2,h4")
        with pytest.raises(ValueError, match="absent from tallies"):
            extract_image(lena_like, lena_like,
                          detector=(("h", 2), ("h", 4)))
        with pytest.raises(ValueError, match="at least one subband"):
            extract_image(lena_like, lena_like, detector=())


class TestConfig:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError, match="alpha"):
            EmbedConfig(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            EmbedConfig(alpha=1.0)

    def test_modulation_is_not_a_field(self):
        # one polarity: a +1 bit scales c by 1 - alpha
        with pytest.raises(TypeError, match="modulation"):
            EmbedConfig(modulation="negative")

    def test_q_is_not_a_field(self):
        # extraction recomputes the thresholds from the cover, so it reads
        # the embedder's coefficients only with the embedder's q factors
        with pytest.raises(TypeError, match="'q'"):
            EmbedConfig(q=(0.06,))
        assert EmbedConfig.q == (0.06, 0.04, 0.02)
        assert EmbedConfig().levels == 3

    def test_extraction_takes_no_config(self, lena_like):
        # a config passed where a detector was would reach decode
        with pytest.raises(TypeError, match="positional"):
            extract_image(lena_like, lena_like, EmbedConfig())

    def test_levels_is_not_a_field(self):
        # the depth is set once, by the number of q factors
        with pytest.raises(TypeError, match="levels"):
            EmbedConfig(levels=3)
        assert EmbedConfig().levels == 3

    def test_parse_detector(self):
        assert parse_detector("I") == DETECTOR_I
        assert parse_detector("ii") == DETECTOR_II
        assert parse_detector("h2,v2,v3") == (("h", 2), ("v", 2), ("v", 3))
        with pytest.raises(ValueError, match="detector"):
            parse_detector("x9")

    @pytest.mark.parametrize("text, message", [
        ("h2,h2,v3", "twice"),
        ("h2,v02,v2", "twice"),
        ("h0", "levels start at 1"),
        ("v3,d0", "levels start at 1"),
    ])
    def test_parse_detector_rejects_duplicates_and_level_zero(self, text,
                                                             message):
        # a repeated subband would count its verdict twice in decode
        with pytest.raises(ValueError, match=message):
            parse_detector(text)
