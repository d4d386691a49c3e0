import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from helpers import (
    FixedOracle,
    FunctionOracle,
    apply_ablation_reference,
    make_sample,
    make_volume,
    permutation_shapley,
    src_env,
)
from mmsaliency import ablate
from mmsaliency.ablate import (
    AblationPolicy,
    AblationVariant,
    coalition_performance,
    coalition_table,
    exact_shapley,
    normalize_mi,
    shapley_mi,
)
from mmsaliency.metrics import msfi
from mmsaliency import oracle as oracle_mod
from mmsaliency.oracle import ClassProbabilities, ShapeRuleClassifier
from mmsaliency.synthgen import SynthConfig, generate_dataset
from mmsaliency.tensorio import (
    DatasetView,
    MultiModalVolume,
    SaliencyMap,
    SegmentationMask,
    load_dataset,
)

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


def built(vol, keep, policy, mask=None):
    """The volume MI's build makes of one keep row of a sample."""
    keep = np.asarray(keep)
    build = ablate._removal(make_sample("s", vol, mask), policy, np.flatnonzero(~keep))
    return build(vol, keep)


class Recording:
    """Records the bytes of every volume it predicts, as LabelFromModalityOracle(0)."""

    def __init__(self):
        self.seen = []

    def predict(self, volume):
        self.seen.append(volume.data.tobytes())
        return LabelFromModalityOracle(0).predict(volume)


class TestRemoval:
    def _volume(self):
        rng = np.random.default_rng(0)
        return make_volume(rng, 2, (3, 3), low=0.1, high=1.0)

    def test_full_coalition_is_identity(self):
        vol = self._volume()
        out = built(vol, KEEP_ALL, ZERO)
        assert out.data.tobytes() == vol.data.tobytes()

    def test_empty_coalition_zeroes_everything(self):
        vol = self._volume()
        out = built(vol, KEEP_NONE, ZERO)
        assert np.all(out.data == 0.0) and not np.signbit(out.data).any()

    def test_zero_policy_only_touches_ablated_modalities(self):
        vol = self._volume()
        out = built(vol, KEEP_0, ZERO)
        assert np.array_equal(out.data[0], vol.data[0])
        assert np.all(out.data[1] == 0.0)

    def test_feature_region_zeroes_exactly_masked_voxels(self):
        vol = self._volume()
        mask_data = np.zeros((2, 3, 3))
        mask_data[1, 0, 0] = mask_data[1, 1, 2] = mask_data[1, 2, 1] = 1.0
        mask = SegmentationMask(vol.modality_names, mask_data)
        out = built(vol, KEEP_0, FEATURE, mask)
        assert np.array_equal(out.data[0], vol.data[0])
        expected = vol.data[1].copy()
        expected[0, 0] = expected[1, 2] = expected[2, 1] = 0.0
        assert np.array_equal(out.data[1], expected)

    def test_nonlesion_sampling_draws_from_background_pool(self):
        vol = self._volume()
        mask_data = np.zeros((2, 3, 3))
        mask_data[1, :2, :] = 1.0  # lesion rows; pool = bottom row
        mask = SegmentationMask(vol.modality_names, mask_data)
        out = built(vol, KEEP_0, NONLESION, mask)
        pool = set(vol.data[1][mask_data[1] <= 0.5].tolist())
        assert set(out.data[1].ravel().tolist()) <= pool
        # seeded and pure: same arguments, same draw
        again = built(vol, KEEP_0, NONLESION, mask)
        assert np.array_equal(out.data, again.data)

    def test_nonlesion_gives_one_fill_per_modality_in_every_coalition_and_sample_order(self):
        rng = np.random.default_rng(1)
        vols = [make_volume(rng, 3, (4, 4), low=0.1) for _ in range(2)]
        mask_data = np.zeros((3, 4, 4))
        mask_data[:, :2] = 1.0  # each modality's pool is its bottom two rows
        samples = [make_sample(f"s{i}", v, SegmentationMask(v.modality_names, mask_data))
                   for i, v in enumerate(vols)]
        rows = coalition_table(3, "modalities")
        received = []
        for order in (samples, samples[::-1]):
            recording = Recording()
            shapley_mi(order, recording, NONLESION)
            # 2^3 coalitions per sample, in row order
            received.append({s.record.sample_id: recording.seen[i * 8:(i + 1) * 8]
                             for i, s in enumerate(order)})
        assert received[1] == received[0]
        for s in samples:
            vol = s.volume
            seen = [np.frombuffer(b).reshape(3, 4, 4) for b in received[0][s.record.sample_id]]
            for m, name in enumerate(vol.modality_names):
                # keyed by the policy seed and the modality's name
                pool = vol.data[m][2:].reshape(-1)
                draws = np.random.default_rng([NONLESION.rng_seed, *name.encode()])
                fill = pool[draws.integers(0, pool.size, size=(4, 4))]
                for row, data in zip(rows, seen):
                    assert np.array_equal(data[m], vol.data[m] if row[m] else fill)

    def test_nonlesion_empty_pool_is_error(self):
        vol = self._volume()
        mask = SegmentationMask(vol.modality_names, np.ones((2, 3, 3)))
        with pytest.raises(ValueError, match="modality 1: non-lesion sampling pool is empty"):
            coalition_performance([make_sample("s", vol, mask)], FixedOracle((1.0, 0.0)),
                                  KEEP_0, NONLESION)

    @pytest.mark.parametrize("policy", [FEATURE, NONLESION], ids=["feature", "nonlesion"])
    def test_mask_requirement_enforced(self, policy):
        with pytest.raises(ValueError, match=f"policy '{policy.variant.value}' requires a mask"):
            coalition_performance([make_sample("s", self._volume())], FixedOracle((1.0, 0.0)),
                                  KEEP_0, policy)

    @pytest.mark.parametrize(
        "keep",
        [(0, 1), np.array([1, 0]), np.array([True]), np.array([True, False, True])],
        ids=["index-tuple", "int-row", "too-short", "too-long"],
    )
    def test_keep_must_be_a_bool_row_per_modality(self, keep):
        calls = []
        oracle = FunctionOracle(lambda data: calls.append(1) or 1.0)
        with pytest.raises(ValueError, match="keep must be a bool row of 2 modalities"):
            coalition_performance([make_sample("s", self._volume())], oracle, keep, ZERO)
        assert calls == []

    def test_zero_reads_no_mask(self):
        class Unmasked:
            record = make_sample("s", self._volume()).record
            volume = self._volume()

            @property
            def mask(self):
                raise AssertionError("the zero policy read a mask")

        out = ablate._removal(Unmasked(), ZERO, np.array([1]))(Unmasked.volume, KEEP_0)
        assert out.data.tobytes() == built(self._volume(), KEEP_0, ZERO).data.tobytes()

    def test_a_mask_of_another_shape_is_rejected(self):
        vol = self._volume()
        mask = SegmentationMask(vol.modality_names, np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match="has dims \\[2, 2\\], but the first volume has"):
            coalition_performance([make_sample("s", vol, mask)], FixedOracle((1.0, 0.0)),
                                  KEEP_0, FEATURE)

    def test_zero_policies_idempotent(self):
        vol = self._volume()
        mask_data = np.zeros((2, 3, 3))
        mask_data[:, 1, 1] = 1.0
        mask = SegmentationMask(vol.modality_names, mask_data)
        for policy, m in ((ZERO, None), (FEATURE, mask)):
            once = built(vol, KEEP_0, policy, m)
            twice = built(once, KEEP_0, policy, m)
            assert np.array_equal(once.data, twice.data)


def zscored_samples(dims, n=3, seed=5):
    """Samples of z-scored float32 volumes, with negative voxels and a -0.0
    in each, each with a mask of one block per modality."""
    rng = np.random.default_rng(seed)
    names = ("t1", "t1c", "t2", "flair")
    samples = []
    for i in range(n):
        data = rng.standard_normal((4, *dims)).astype(np.float32)
        data.reshape(-1)[i::7] = -0.0
        lesion = np.zeros(data.shape, dtype=bool)
        lesion[(slice(None), *(slice(1, 3),) * len(dims))] = True
        lesion[i % 4] = False  # one modality's mask is empty
        samples.append(make_sample(f"s{i}", MultiModalVolume(names, data),
                                   SegmentationMask(names, lesion), label=i % 2))
    return samples


class TestAgainstTheReference:
    """The oracle gets the bytes of the per-modality loop for every MI
    coalition under the zero policies, negative voxels and -0.0 included."""

    @pytest.mark.parametrize("dims", [(6, 5), (4, 3, 5)], ids=["2d", "3d"])
    @pytest.mark.parametrize("policy", [ZERO, FEATURE], ids=["zero", "feature"])
    def test_every_coalition_gets_the_reference_bytes(self, dims, policy):
        samples = zscored_samples(dims)
        recording = Recording()
        shapley_mi(samples, recording, policy)
        expected = []
        for i, s in enumerate(samples):
            for c, row in enumerate(coalition_table(4, "modalities")):
                # under zero, the empty coalition is sent for the first sample only
                if policy is FEATURE or i == 0 or c > 0:
                    mask = s.mask if policy is FEATURE else None
                    expected.append(apply_ablation_reference(s.volume, row, policy, mask)
                                    .data.tobytes())
        assert recording.seen == expected
        assert any(np.signbit(np.frombuffer(b, np.float32)).any() for b in expected)


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
        # 2^2 coalitions x 3 samples, each evaluated exactly once, but the
        # empty coalition's all-zero volume once for all samples
        assert len(calls) == 4 * 3 - 2

    def test_an_empty_coalition_alone_is_evaluated_for_every_sample(self):
        # a sample's only evaluation is its all-zero volume, which it makes
        # itself: every plan of the stream has at least one evaluation
        rng = np.random.default_rng(13)
        samples = [make_sample(f"s{i}", make_volume(rng, 2, (3, 3), low=0.2), label=i % 2)
                   for i in range(3)]
        calls = []

        class CountingOracle:
            def predict(self, volume):
                calls.append(volume.data.any())
                return ClassProbabilities((0.7, 0.3))

        assert coalition_performance(samples, CountingOracle(), [False, False], ZERO) == 2 / 3
        assert calls == [False] * 3

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


class TestDatasetViewInput:
    """shapley_mi over a DatasetView, which reads each sample as the stream
    reaches it, equals shapley_mi over the samples as a list."""

    class Batched:
        """The built-in classifier behind predict_batch, counting its items."""

        def __init__(self):
            self.inner = ShapeRuleClassifier((0.0, 1.0, 0.0, 1.0), intensity_threshold=0.35)
            self.items = 0

        def predict(self, volume):
            return self.inner.predict(volume)

        def predict_batch(self, volumes):
            self.items += len(volumes)
            return [self.inner.predict(v) for v in volumes]

    @pytest.mark.parametrize("variant", ["zero", "nonlesion", "feature"])
    def test_equal_to_the_list(self, tmp_path, monkeypatch, variant):
        manifest = generate_dataset(SynthConfig(n_samples=5, image_size=32, seed=3), tmp_path)
        policy = AblationPolicy(AblationVariant(variant), rng_seed=4)
        listed = load_dataset(manifest)
        builtin = ShapeRuleClassifier((0.0, 1.0, 0.0, 1.0), intensity_threshold=0.35)
        expected = shapley_mi(listed, builtin, policy)
        assert shapley_mi(DatasetView(manifest), builtin, policy) == expected
        # chunks of three volumes, which span samples
        monkeypatch.setattr(oracle_mod, "BATCH_BYTES", 3 * listed[0].volume.data.nbytes)
        batched = [self.Batched(), self.Batched()]
        assert shapley_mi(listed, batched[0], policy) == expected
        assert shapley_mi(DatasetView(manifest), batched[1], policy) == expected
        # under zero, the all-zero volume of the empty coalition once for all samples
        assert batched[0].items == batched[1].items == 16 * 5 - 4 * (variant == "zero")


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
