import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from helpers import FixedOracle, make_sample, make_volume, permutation_shapley, src_env
from mmsaliency.ablate import (
    AblationPolicy,
    AblationVariant,
    apply_ablation,
    coalition_performance,
    coalition_table,
    exact_shapley,
    normalize_mi,
    shapley_mi,
)
from mmsaliency.metrics import msfi
from mmsaliency.oracle import ClassProbabilities
from mmsaliency.tensorio import SaliencyMap, SegmentationMask

ZERO = AblationPolicy(AblationVariant.ZERO_WHOLE_MODALITY)
NONLESION = AblationPolicy(AblationVariant.NONLESION_SAMPLE_WHOLE_MODALITY, rng_seed=9)
FEATURE = AblationPolicy(AblationVariant.ZERO_FEATURE_REGION)


KEEP_ALL = np.array([True, True])
KEEP_NONE = np.array([False, False])
KEEP_0 = np.array([True, False])
KEEP_1 = np.array([False, True])


class TestCoalitionTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_row_i_is_the_bits_of_i(self, n):
        table = coalition_table(n, "players")
        assert table.dtype == bool and table.shape == (1 << n, n)
        for i, row in enumerate(table):
            assert row.tolist() == [bool(i >> j & 1) for j in range(n)]


class TestApplyAblation:
    def _volume(self):
        rng = np.random.default_rng(0)
        return make_volume(rng, 2, (3, 3), low=0.1, high=1.0)

    def test_full_coalition_is_identity(self):
        vol = self._volume()
        out = apply_ablation(vol, KEEP_ALL, ZERO)
        assert np.array_equal(out.data, vol.data)

    def test_empty_coalition_zeroes_everything(self):
        vol = self._volume()
        out = apply_ablation(vol, KEEP_NONE, ZERO)
        assert np.all(out.data == 0.0)

    def test_zero_policy_only_touches_ablated_modalities(self):
        vol = self._volume()
        out = apply_ablation(vol, KEEP_0, ZERO)
        assert np.array_equal(out.data[0], vol.data[0])
        assert np.all(out.data[1] == 0.0)

    def test_feature_region_zeroes_exactly_masked_voxels(self):
        vol = self._volume()
        mask_data = np.zeros((2, 3, 3))
        mask_data[1, 0, 0] = mask_data[1, 1, 2] = mask_data[1, 2, 1] = 1.0
        mask = SegmentationMask(vol.modality_names, mask_data)
        out = apply_ablation(vol, KEEP_0, FEATURE, mask)
        assert np.array_equal(out.data[0], vol.data[0])
        expected = vol.data[1].copy()
        expected[0, 0] = expected[1, 2] = expected[2, 1] = 0.0
        assert np.array_equal(out.data[1], expected)

    def test_nonlesion_sampling_draws_from_background_pool(self):
        vol = self._volume()
        mask_data = np.zeros((2, 3, 3))
        mask_data[1, :2, :] = 1.0  # lesion rows; pool = bottom row
        mask = SegmentationMask(vol.modality_names, mask_data)
        out = apply_ablation(vol, KEEP_0, NONLESION, mask)
        pool = set(vol.data[1][mask_data[1] <= 0.5].tolist())
        assert set(out.data[1].ravel().tolist()) <= pool
        # seeded and pure: same arguments, same draw
        again = apply_ablation(vol, KEEP_0, NONLESION, mask)
        assert np.array_equal(out.data, again.data)

    def test_nonlesion_draws_are_one_stream_over_the_ablated_modalities(self):
        vol = make_volume(np.random.default_rng(1), 3, (4, 4), low=0.1)
        mask_data = np.zeros((3, 4, 4))
        mask_data[:, :2] = 1.0  # each modality's pool is its bottom two rows
        mask = SegmentationMask(vol.modality_names, mask_data)
        out = apply_ablation(vol, np.array([False, True, False]), NONLESION, mask)
        rng = np.random.default_rng(NONLESION.rng_seed)
        for m in (0, 2):
            pool = vol.data[m][2:].reshape(-1)
            assert np.array_equal(out.data[m], pool[rng.integers(0, pool.size, size=(4, 4))])
        assert np.array_equal(out.data[1], vol.data[1])

    def test_nonlesion_empty_pool_is_error(self):
        vol = self._volume()
        mask = SegmentationMask(vol.modality_names, np.ones((2, 3, 3)))
        with pytest.raises(ValueError, match="empty"):
            apply_ablation(vol, KEEP_0, NONLESION, mask)

    def test_mask_requirement_enforced(self):
        vol = self._volume()
        with pytest.raises(ValueError, match="mask"):
            apply_ablation(vol, KEEP_0, FEATURE)

    @pytest.mark.parametrize(
        "keep",
        [(0, 1), np.array([1, 0]), np.array([True]), np.array([True, False, True])],
        ids=["index-tuple", "int-row", "too-short", "too-long"],
    )
    def test_keep_must_be_a_bool_row_per_modality(self, keep):
        with pytest.raises(ValueError, match="keep must be a bool row of 2 modalities"):
            apply_ablation(self._volume(), keep, ZERO)

    def test_zero_policies_idempotent(self):
        vol = self._volume()
        mask_data = np.zeros((2, 3, 3))
        mask_data[:, 1, 1] = 1.0
        mask = SegmentationMask(vol.modality_names, mask_data)
        for policy, m in ((ZERO, None), (FEATURE, mask)):
            once = apply_ablation(vol, KEEP_0, policy, m)
            twice = apply_ablation(once, KEEP_0, policy, m)
            assert np.array_equal(once.data, twice.data)


class LabelFromModalityOracle:
    """Predicts class 1 iff the designated modality carries any signal."""

    def __init__(self, modality):
        self.modality = modality

    def predict(self, volume):
        hot = float(volume.data[self.modality].sum() > 0)
        return ClassProbabilities((1.0 - hot, hot))


class TestCoalitionPerformance:
    def _samples(self, n=6):
        rng = np.random.default_rng(1)
        samples = []
        for i in range(n):
            vol = make_volume(rng, 2, (4, 4), low=0.2, high=1.0)
            samples.append(make_sample(f"s{i}", vol, label=1))
        return samples

    def test_full_coalition_equals_plain_accuracy(self):
        from mmsaliency.oracle import accuracy

        samples = self._samples()
        oracle = LabelFromModalityOracle(1)
        assert coalition_performance(
            samples, oracle, KEEP_ALL, ZERO
        ) == accuracy(samples, oracle)

    def test_empty_coalition_uses_tie_break(self):
        samples = self._samples()
        # all-zero input -> oracle sees no signal -> (1, 0) -> class 0; labels are 1
        assert coalition_performance(samples, LabelFromModalityOracle(1),
                                     KEEP_NONE, ZERO) == 0.0

    def test_informative_modality_beats_uninformative(self):
        samples = self._samples()
        oracle = LabelFromModalityOracle(1)
        v1 = coalition_performance(samples, oracle, KEEP_1, ZERO)
        v0 = coalition_performance(samples, oracle, KEEP_0, ZERO)
        assert v1 >= v0
        assert v1 == 1.0 and v0 == 0.0


class TestExactShapley:
    def test_two_player_textbook_table(self):
        # v(empty)=0.5, v({0})=0.9, v({1})=0.6, v(both)=1.0
        values = np.array([0.5, 0.9, 0.6, 1.0])
        phi = exact_shapley(values, 2)
        assert phi == pytest.approx([0.4, 0.1], abs=1e-15)

    def test_efficiency_on_random_tables(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            values = rng.random(1 << n)
            phi = exact_shapley(values, n)
            assert abs(phi.sum() - (values[-1] - values[0])) < 1e-9

    def test_matches_permutation_brute_force(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 4, 5):
            for _ in range(20):
                values = rng.random(1 << n)
                fast = exact_shapley(values, n)
                slow = permutation_shapley(values, n)
                assert np.max(np.abs(fast - slow)) < 1e-12

    def test_dummy_player_gets_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = 4
            base = rng.random(1 << (n - 1))
            values = np.empty(1 << n)
            # player 3 never changes the value
            for mask in range(1 << n):
                values[mask] = base[mask & 0b0111]
            phi = exact_shapley(values, n)
            assert phi[3] == 0.0

    def test_symmetric_players_get_equal_shares(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = 3
            values = np.empty(1 << n)
            for mask in range(1 << n):
                # value depends only on |mask| -> all players symmetric
                values[mask] = float(bin(mask).count("1")) ** 1.3 + 0.1
            phi = exact_shapley(values, n)
            assert np.allclose(phi, phi[0])

    def test_table_size_checked(self):
        with pytest.raises(ValueError):
            exact_shapley(np.zeros(7), 3)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_bit_for_bit_the_loop_over_coalitions(self, n):
        rng = np.random.default_rng(100 + n)
        tables = [
            rng.random(1 << n),
            rng.choice([0.0, -0.0, 0.25, 1 / 3, 0.1 + 0.2], size=1 << n),
            np.full(1 << n, -0.0),  # every marginal is -0.0 - -0.0 = 0.0
            np.where(rng.random(1 << n) < 0.5, -0.0, 0.0),
            rng.integers(0, 2, size=1 << n) * rng.normal(size=1 << n) * 1e-300,
        ]
        for values in tables:
            assert exact_shapley(values, n).tobytes() == exact_shapley_loop(values, n).tobytes()


def exact_shapley_loop(values, n_players):
    """Exact Shapley values one marginal at a time: for each coalition in
    order, each absent player gets its weighted marginal added."""
    values = np.asarray(values, dtype=np.float64)
    weight = np.array([
        math.factorial(s) * math.factorial(n_players - s - 1) / math.factorial(n_players)
        for s in range(n_players)
    ])
    phi = np.zeros(n_players)
    for mask in range(1 << n_players):
        size = bin(mask).count("1")
        for m in range(n_players):
            if not mask >> m & 1:
                phi[m] += weight[size] * (values[mask | (1 << m)] - values[mask])
    return phi


class TestNormalizeMI:
    def test_paper_style_vector(self):
        out = normalize_mi([0.03, 0.55, -0.04, 0.16])
        assert out == pytest.approx([0.03 / 0.55, 1.0, 0.0, 0.16 / 0.55], abs=1e-12)
        assert out[0] == pytest.approx(0.0545454545, abs=1e-9)
        assert out[3] == pytest.approx(0.2909090909, abs=1e-9)

    def test_all_nonpositive_gives_zeros(self):
        assert normalize_mi([-1.0, -2.0]) == pytest.approx([0.0, 0.0])

    def test_simple_scaling(self):
        assert normalize_mi([2.0, 1.0]) == pytest.approx([1.0, 0.5])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            normalize_mi([np.nan, 1.0])


class TestShapleyMI:
    def test_pipeline_identifies_informative_modality(self):
        rng = np.random.default_rng(11)
        samples = [
            make_sample(f"s{i}", make_volume(rng, 3, (4, 4), low=0.2), label=1)
            for i in range(5)
        ]
        mi = shapley_mi(samples, LabelFromModalityOracle(2), ZERO)
        assert mi.variant == "mod"
        assert np.argmax(mi.phi) == 2
        assert mi.normalized[2] == 1.0
        # dummy modalities get exactly zero
        assert mi.phi[0] == 0.0 and mi.phi[1] == 0.0
        assert mi.modality_names == ("mod0", "mod1", "mod2")

    def test_feature_policy_tags_feat(self):
        rng = np.random.default_rng(12)
        vol = make_volume(rng, 2, (3, 3), low=0.2)
        mask = SegmentationMask(vol.modality_names, np.ones((2, 3, 3)) * 0.0)
        samples = [make_sample("s0", vol, mask, label=0),
                   make_sample("s1", vol, mask, label=0)]
        mi = shapley_mi(samples, FixedOracle((0.6, 0.4)), FEATURE)
        assert mi.variant == "feat"

    def test_coalition_evaluations_are_cached(self):
        rng = np.random.default_rng(13)
        samples = [
            make_sample(f"s{i}", make_volume(rng, 2, (3, 3), low=0.2), label=0)
            for i in range(3)
        ]

        calls = []

        class CountingOracle:
            def predict(self, volume):
                calls.append(1)
                return ClassProbabilities((0.7, 0.3))

        shapley_mi(samples, CountingOracle(), ZERO)
        # 2^2 coalitions x 3 samples, each evaluated exactly once
        assert len(calls) == 4 * 3

    def test_cap_precedes_any_oracle_call(self):
        rng = np.random.default_rng(14)
        samples = [make_sample("s0", make_volume(rng, 13, (2, 2)), label=0)]
        calls = []

        class CountingOracle:
            def predict(self, volume):
                calls.append(1)
                return ClassProbabilities((0.7, 0.3))

        with pytest.raises(ValueError) as err:
            shapley_mi(samples, CountingOracle(), ZERO)
        assert str(err.value) == (
            "13 modalities would need 8192 coalition evaluations; "
            "exact enumeration is capped at 12"
        )
        assert calls == []


class TestMsfiInvarianceToMiScale:
    """Raw clamped MI and normalized MI differ by a positive scalar, so any
    ratio-form metric downstream is identical under either."""

    def test_msfi_same_under_raw_and_normalized(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            m = 3
            smap = SaliencyMap(
                ("a", "b", "c"), rng.standard_normal((m, 4, 4))
            )
            mask = SegmentationMask(
                ("a", "b", "c"), (rng.random((m, 4, 4)) > 0.5).astype(float)
            )
            phi = rng.standard_normal(m)
            clamped = np.maximum(phi, 0.0)
            if clamped.max() <= 0:
                continue
            normalized = normalize_mi(phi)
            assert msfi(smap, mask, clamped) == pytest.approx(
                msfi(smap, mask, normalized), abs=1e-12
            )


def test_zero_policies_do_not_import_numpy_random():
    """Only the nonlesion policy draws; the others never make a generator,
    so numpy.random (about 5 MB) stays unloaded in an `mi compute` process."""
    code = textwrap.dedent("""\
        import sys
        import numpy as np
        from mmsaliency.ablate import AblationPolicy, AblationVariant, shapley_mi
        from mmsaliency.oracle import ShapeRuleClassifier
        from mmsaliency.tensorio import (LoadedSample, ManifestRecord, MultiModalVolume,
                                         SegmentationMask)

        names = ("t1", "t1c", "t2", "flair")
        data = np.linspace(0.0, 1.0, 4 * 16 * 16).reshape(4, 16, 16)
        mask = np.zeros_like(data)
        mask[:, 4:12, 4:12] = 1.0
        samples = [LoadedSample(ManifestRecord(f"s{i}", i, "unused"),
                                MultiModalVolume(names, data[:, :, ::1 - 2 * i]),
                                SegmentationMask(names, mask)) for i in range(2)]
        oracle = ShapeRuleClassifier((0.0, 1.0, 0.0, 1.0), intensity_threshold=0.35)
        print("numpy.random" in sys.modules)
        for variant in ("zero", "feature", "nonlesion"):
            shapley_mi(samples, oracle, AblationPolicy(AblationVariant(variant)))
            print("numpy.random" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    at_import, *after = proc.stdout.split()
    if at_import == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert after == ["False", "False", "True"]
