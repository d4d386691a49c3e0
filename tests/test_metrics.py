import math

import numpy as np
import pytest

from helpers import brute_tau_b, chi2_sf_reference
from mmsaliency.metrics import (
    MetricRecord,
    chi2_sf,
    estimated_mi,
    friedman,
    iou,
    kendall_tau_b,
    msfi,
    nemenyi,
)
from mmsaliency.tensorio import SaliencyMap, SegmentationMask


def smap(values, names=None, postprocessed=False):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = tuple(f"m{i}" for i in range(values.shape[0]))
    return SaliencyMap(names, values, postprocessed=postprocessed)


def segmask(values, names=None):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = tuple(f"m{i}" for i in range(values.shape[0]))
    return SegmentationMask(names, values)


class TestEstimatedMI:
    def test_positive_mass_lands_on_right_modality(self):
        data = np.zeros((3, 2, 2))
        data[2, 0, 0] = 0.7
        data[0] = -0.3
        out = estimated_mi(smap(data))
        assert out[0] == 0.0 and out[1] == 0.0 and out[2] == pytest.approx(0.7)

    def test_all_negative_is_zero_vector(self):
        assert np.all(estimated_mi(smap(-np.ones((2, 3, 3)))) == 0.0)

    def test_two_modality_example(self):
        data = np.array([[[1.0, -1.0]], [[2.0, 3.0]]])
        assert estimated_mi(smap(data)) == pytest.approx([1.0, 5.0])


class TestKendallTauB:
    def test_perfect_concordance(self):
        a = np.array([1.0, 2.0, 5.0, 9.0])
        assert kendall_tau_b(a, a) == 1.0

    def test_all_ties_convention(self):
        assert kendall_tau_b([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) == 0.0
        assert kendall_tau_b([1.0, 1.0], [1.0, 2.0]) == 0.0

    def test_modality_importance_example(self):
        a = [0.03, 0.55, -0.04, 0.16]
        b = [0.10, 0.40, 0.05, 0.50]
        assert kendall_tau_b(a, b) == pytest.approx((5 - 1) / 6, abs=1e-15)
        assert kendall_tau_b(a, b) == pytest.approx(0.6667, abs=1e-4)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.integers(0, 5, size=8).astype(float)
            b = rng.integers(0, 5, size=8).astype(float)
            assert kendall_tau_b(a, b) == kendall_tau_b(b, a)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(400):
            n = int(rng.integers(2, 30))
            # coarse levels force plenty of ties
            a = rng.integers(0, 4, size=n).astype(float)
            b = rng.integers(0, 4, size=n).astype(float)
            assert kendall_tau_b(a, b) == pytest.approx(brute_tau_b(a, b), abs=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau_b([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_rejected(self, bad):
        # a NaN compares as a tie with everything, so [nan, 1, 2] used to score 1.0
        for a, b in (([bad, 1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [1.0, bad, 3.0])):
            with pytest.raises(ValueError, match="finite"):
                kendall_tau_b(a, b)


class TestMSFI:
    def test_all_mass_inside_masks_scores_one(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = 0.4
        data[1, 1, 1] = 0.9
        masks = np.zeros((2, 2, 2))
        masks[0, 0, 0] = 1.0
        masks[1, 1, 1] = 1.0
        assert msfi(smap(data), segmask(masks), np.array([0.3, 0.9])) == 1.0

    def test_hand_built_weighted_example(self):
        # modality 0 keeps 0.8 of its positive mass inside the mask, modality 1
        # keeps 0.4; values are float32-exact so the ratios are exact
        data = np.array([[[4.0, 1.0], [0.0, 0.0]], [[2.0, 3.0], [0.0, 0.0]]])
        masks = np.array([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
        value = msfi(smap(data), segmask(masks), np.array([1.0, 0.5]))
        assert value == pytest.approx((1.0 * 0.8 + 0.5 * 0.4) / 1.5, abs=1e-12)
        assert value == pytest.approx(0.6667, abs=1e-4)

    def test_uniform_saliency_scores_mask_fraction(self):
        data = np.ones((2, 4, 4))
        masks = np.zeros((2, 4, 4))
        masks[:, :2, :] = 1.0  # half of each modality
        assert msfi(smap(data), segmask(masks), np.array([1.0, 1.0])) == pytest.approx(0.5)

    def test_zero_phi_sum_gives_zero(self):
        data = np.ones((2, 2, 2))
        masks = np.ones((2, 2, 2))
        assert msfi(smap(data), segmask(masks), np.zeros(2)) == 0.0

    def test_empty_positive_mass_ratio_is_zero(self):
        data = np.array([[[-1.0, -2.0]], [[1.0, 1.0]]])
        masks = np.ones((2, 1, 2))
        # modality 0 has no positive mass -> ratio 0; modality 1 ratio 1
        assert msfi(smap(data), segmask(masks), np.array([1.0, 1.0])) == pytest.approx(0.5)

    def test_bounds_and_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            m = int(rng.integers(1, 5))
            data = rng.standard_normal((m, 3, 3))
            masks = (rng.random((m, 3, 3)) > 0.5).astype(float)
            phi = rng.random(m)
            value = msfi(smap(data), segmask(masks), phi)
            assert 0.0 <= value <= 1.0
            scaled = msfi(smap(data), segmask(masks), phi * 37.5)
            assert scaled == pytest.approx(value, abs=1e-12)
            # scaling one modality's saliency leaves its ratio unchanged
            data2 = data.copy()
            data2[0] *= 4.0
            assert msfi(smap(data2), segmask(masks), phi) == pytest.approx(
                value, abs=1e-12
            )

    def test_moving_mass_inside_mask_never_decreases(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            data = rng.random((2, 3, 3))
            masks = np.zeros((2, 3, 3))
            masks[:, 0, :] = 1.0
            phi = rng.random(2) + 0.1
            before = msfi(smap(data), segmask(masks), phi)
            moved = data.copy()
            # move mass from an outside voxel to an inside voxel, totals fixed
            shift = min(0.2, moved[0, 2, 2])
            moved[0, 2, 2] -= shift
            moved[0, 0, 0] += shift
            after = msfi(smap(moved), segmask(masks), phi)
            assert after >= before - 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            msfi(smap(np.ones((2, 2, 2))), segmask(np.ones((2, 3, 3))), np.ones(2))


class TestIoU:
    def test_exact_match(self):
        masks = np.zeros((1, 2, 2))
        masks[0, 0, :] = 1.0
        assert iou(smap(masks, postprocessed=True), segmask(masks)) == 1.0

    def test_disjoint(self):
        pred = np.zeros((1, 2, 2))
        pred[0, 0, 0] = 1.0
        actual = np.zeros((1, 2, 2))
        actual[0, 1, 1] = 1.0
        assert iou(smap(pred, postprocessed=True), segmask(actual)) == 0.0

    def test_half_overlap(self):
        pred = np.zeros((1, 2, 2))
        pred[0, 0, :] = 1.0  # covers mask plus one extra pixel
        actual = np.zeros((1, 2, 2))
        actual[0, 0, 0] = 1.0
        assert iou(smap(pred, postprocessed=True), segmask(actual)) == 0.5

    def test_both_empty_is_one(self):
        z = np.zeros((1, 2, 2))
        assert iou(smap(z, postprocessed=True), segmask(z)) == 1.0

    def test_requires_postprocessed(self):
        z = np.zeros((1, 2, 2))
        with pytest.raises(ValueError, match="postprocessed"):
            iou(smap(z), segmask(z))


class TestChi2Tail:
    def test_matches_closed_forms(self):
        points = [
            (0.5, 1), (3.841, 1), (8.0, 2), (5.991, 2), (1.0, 3), (11.345, 3),
            (7.779, 4), (0.2, 5), (15.086, 5), (12.592, 6), (2.0, 7),
            (20.09, 7), (3.5, 8), (21.955, 10), (4.0, 11), (29.141, 12),
            (10.0, 15), (31.41, 20), (45.0, 25), (18.0, 30),
        ]
        for x, df in points:
            assert chi2_sf(x, df) == pytest.approx(
                chi2_sf_reference(x, df), abs=1e-10
            )

    def test_df2_is_exponential(self):
        assert chi2_sf(8.0, 2) == pytest.approx(math.exp(-4.0), abs=1e-14)

    # x on [0, 2000], densest around where the tail underflows for df 1..19
    GRID = np.unique(np.concatenate([
        np.linspace(0.0, 2000.0, 4001), np.linspace(0.0, 30.0, 301),
        np.linspace(1410.0, 1540.0, 2601),
    ]))

    def test_matches_scipy_chdtrc(self):
        special = pytest.importorskip("scipy.special", exc_type=ImportError)
        for df in range(1, 20):
            expected = special.chdtrc(df, self.GRID)
            got = np.array([chi2_sf(float(x), df) for x in self.GRID])
            normal = expected >= 1e-300
            rel = np.abs(got[normal] - expected[normal]) / expected[normal]
            assert rel.max() <= 1e-12, (df, self.GRID[normal][rel.argmax()])
            # the printed p-value, including where the tail reads 0.0
            assert [f"{p:.6g}" for p in got] == [f"{p:.6g}" for p in expected], df
        assert special.chdtrc(12, 1490.0) == chi2_sf(1490.0, 12) == 0.0

    def test_matches_scipy_chdtrc_for_large_df_and_tiny_x(self):
        # the lower tail, where h^a e^(-h) / Gamma(a) underflows but Q is 1.0,
        # and many-method Friedman tests
        special = pytest.importorskip("scipy.special", exc_type=ImportError)
        grid = np.concatenate([
            np.logspace(-300, 0, 31), np.linspace(0.0, 2000.0, 401),
            np.linspace(150.0, 450.0, 301),
        ])
        for df in (20, 45, 59, 100, 199, 320, 400):
            expected = special.chdtrc(df, grid)
            got = np.array([chi2_sf(float(x), df) for x in grid])
            normal = expected >= 1e-300
            rel = np.abs(got[normal] - expected[normal]) / expected[normal]
            assert rel.max() <= 1e-12, (df, grid[normal][rel.argmax()])
            assert [f"{p:.6g}" for p in got] == [f"{p:.6g}" for p in expected], df
            assert (got[grid <= 1e-3] == 1.0).all(), df
        assert chi2_sf(1e-6, 100) == chi2_sf(1.0, 320) == chi2_sf(1e-32, 19) == 1.0

    def test_rejects_non_integer_df(self):
        for df in (2.5, 0.5, math.nan):
            with pytest.raises(ValueError, match="integer"):
                chi2_sf(3.0, df)
        with pytest.raises(ValueError, match="positive"):
            chi2_sf(3.0, 0)
        assert chi2_sf(3.0, 4.0) == chi2_sf(3.0, 4)


def _independent_row_ranks(row):
    """Sort-based average ranks, independent of scipy."""
    order = sorted(range(len(row)), key=lambda i: row[i])
    ranks = [0.0] * len(row)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and row[order[j + 1]] == row[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


class TestFriedman:
    def test_all_tied_many_methods_p_is_one(self):
        # float cancellation leaves a tiny positive statistic here (k = 60,
        # N = 11 gives about 2e-13); its p-value is 1, not an underflowed 0
        chi2, df, p = friedman(np.zeros((11, 60)))
        assert 0.0 <= chi2 < 1e-9 and df == 59
        assert p == 1.0

    def test_fixed_ordering_example(self):
        # 3 methods, 4 samples, identical ordering in every sample
        values = np.tile([0.2, 0.5, 0.8], (4, 1))
        chi2, df, p = friedman(values)
        assert chi2 == pytest.approx(8.0, abs=1e-12)
        assert df == 2
        assert p == pytest.approx(math.exp(-4.0), abs=1e-10)
        assert p == pytest.approx(0.0183, abs=1e-3)

    def test_identical_columns(self):
        values = np.tile([0.4, 0.4, 0.4], (5, 1))
        chi2, df, p = friedman(values)
        assert chi2 == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_statistic_from_independent_ranks(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(2, 6))
            values = rng.integers(0, 4, size=(n, k)).astype(float)
            chi2, df, _ = friedman(values)
            ranks = np.array([_independent_row_ranks(list(row)) for row in values])
            mean_ranks = ranks.mean(axis=0)
            expected = 12.0 * n / (k * (k + 1)) * np.sum(mean_ranks**2) - 3 * n * (k + 1)
            assert chi2 == pytest.approx(expected, abs=1e-10)
            assert df == k - 1

    def test_incomplete_matrix_rejected(self):
        values = np.array([[0.1, 0.2], [np.nan, 0.4]])
        with pytest.raises(ValueError, match="complete"):
            friedman(values)
        with pytest.raises(ValueError, match="complete"):
            nemenyi(values)


class TestNemenyi:
    def test_critical_difference_k2_n100(self):
        values = np.tile([0.2, 0.8], (100, 1))
        out = nemenyi(values)
        assert out.critical_difference == pytest.approx(
            1.960 * math.sqrt(6.0 / 600.0), abs=1e-12
        )
        assert out.critical_difference == pytest.approx(0.196, abs=1e-3)
        assert out.significant[0, 1] and out.significant[1, 0]

    def test_identical_columns_nothing_significant(self):
        values = np.tile([0.4, 0.4, 0.4], (6, 1))
        out = nemenyi(values)
        assert not out.significant.any()

    def test_boundary_is_closed(self, monkeypatch):
        from mmsaliency import metrics as metrics_mod

        # q=2.0 with k=2, N=4 puts CD exactly at 1.0, the all-wins rank gap
        monkeypatch.setitem(metrics_mod._NEMENYI_Q05, 2, 2.0)
        values = np.tile([0.1, 0.9], (4, 1))
        out = nemenyi(values)
        assert out.critical_difference == pytest.approx(1.0, abs=1e-12)
        assert abs(out.mean_ranks[1] - out.mean_ranks[0]) == 1.0
        assert out.significant[0, 1]

    def test_k_range_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            nemenyi(np.ones((3, 25)))

    def test_mean_ranks_equal_independent_ranks_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(2, 10))
            values = rng.integers(0, 4, size=(n, k)).astype(float)  # many ties
            ranks = np.array([_independent_row_ranks(list(row)) for row in values])
            assert np.array_equal(nemenyi(values).mean_ranks, ranks.mean(axis=0))


class TestEstimatedMiPostprocessInteraction:
    def test_invariant_to_negative_clamp(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            data = rng.standard_normal((3, 4, 4))
            clamped = np.maximum(data, 0.0)
            assert estimated_mi(smap(data)) == pytest.approx(
                estimated_mi(smap(clamped)), abs=1e-12
            )

    def test_argmax_modality_survives_full_postprocess(self):
        # near-tied modalities can flip (the joint cap trims them unequally),
        # so the invariant is asserted for decisive leaders only
        from mmsaliency.saliency import postprocess

        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(100):
            data = rng.standard_normal((4, 8, 8))
            raw = smap(data)
            em = estimated_mi(raw)
            top, runner_up = np.sort(em)[-1], np.sort(em)[-2]
            if top == 0.0 or top < 1.2 * runner_up:
                continue
            checked += 1
            processed = postprocess(raw)
            assert int(np.argmax(em)) == int(np.argmax(estimated_mi(processed)))
        assert checked >= 10


class TestMetricRecord:
    def test_ranges_enforced(self):
        MetricRecord("s", "m", "msfi", 0.5)
        MetricRecord("s", "m", "mi_corr", -0.5)
        with pytest.raises(ValueError):
            MetricRecord("s", "m", "msfi", 1.5)
        with pytest.raises(ValueError):
            MetricRecord("s", "m", "mi_corr", -1.5)
        with pytest.raises(ValueError):
            MetricRecord("s", "m", "unknown", 0.5)
