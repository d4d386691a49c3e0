import math
import subprocess
import sys
import textwrap
import warnings
import weakref

import numpy as np
import pytest

from helpers import (
    FixedOracle,
    FunctionOracle,
    make_sample,
    make_volume,
    percentile_clamp_reference,
    sampled_keep_rows,
    sequential_occlusion,
    sequential_shapley_sampling,
    src_env,
    subset_shapley,
)
from mmsaliency import saliency
from mmsaliency.ablate import exact_shapley
from mmsaliency.oracle import ClassProbabilities
from mmsaliency.saliency import (
    SHARED_MAP_METHODS,
    MethodConfig,
    SaliencyMethod,
    SegmentGrid,
    build_grid,
    default_grid_for,
    feature_ablation,
    feature_permutation,
    generate_maps,
    kernel_shap,
    lime,
    occlusion,
    postprocess,
    shapley_sampling,
)
from mmsaliency.tensorio import MultiModalVolume, SaliencyMap

CONSTANT = FixedOracle((0.4, 0.6))


class SegmentIndicatorOracle:
    """p(class0) = intercept + sum of coefficients of segments left intact."""

    def __init__(self, grid, coefs, intercept=0.0):
        self.grid = grid
        self.coefs = np.asarray(coefs, dtype=float)
        self.intercept = intercept

    def predict(self, volume):
        p = self.intercept
        for k in range(self.grid.n_segments):
            if np.any(volume.data[self.grid.segment_ids == k] != 0.0):
                p += self.coefs[k]
        return ClassProbabilities((p, 1.0 - p))


class AdditiveSegmentOracle:
    """p(class0) = base + sum_k w_k * sum(segment k's values)."""

    def __init__(self, grid, weights, base=0.1):
        self.grid = grid
        self.weights = np.asarray(weights, dtype=float)
        self.base = base

    def predict(self, volume):
        p = self.base
        for k in range(self.grid.n_segments):
            p += self.weights[k] * float(volume.data[self.grid.segment_ids == k].sum())
        return ClassProbabilities((p, 1.0 - p))


class TestSegmentGrid:
    def test_per_modality_blocks(self):
        grid = build_grid(2, (4, 4), (2, 2), per_modality=True)
        assert grid.n_segments == 8
        assert grid.segment_ids.shape == (2, 4, 4)
        # modality 1 ids are modality 0 ids shifted by the block count
        assert np.array_equal(grid.segment_ids[1], grid.segment_ids[0] + 4)

    def test_shared_blocks_span_modalities(self):
        grid = build_grid(3, (4, 4), 2, per_modality=False)
        assert grid.n_segments == 4
        for m in range(3):
            assert np.array_equal(grid.segment_ids[m], grid.segment_ids[0])

    def test_edge_blocks_clip(self):
        grid = build_grid(1, (5, 3), (2, 2), per_modality=True)
        assert grid.n_segments == 3 * 2
        assert grid.segment_ids[0, 4, 2] == grid.n_segments - 1

    def test_every_voxel_exactly_one_segment(self):
        grid = build_grid(2, (6, 6, 3), (4, 4, 2), per_modality=True)
        counts = np.bincount(grid.segment_ids.ravel())
        assert counts.sum() == grid.segment_ids.size
        assert (counts > 0).all()

    @pytest.mark.parametrize("ids", [[0, 2], [1, 2], [-1, 0], [0, 2**31 - 1], []])
    def test_ids_must_be_dense_from_0(self, ids):
        with pytest.raises(ValueError, match="dense from 0"):
            SegmentGrid(True, np.array(ids, dtype=np.int64).reshape(1, 1, -1))

    def test_dense_ids_in_any_order_are_accepted(self):
        grid = SegmentGrid(False, np.array([[[2, 0], [1, 2]]]))
        assert grid.n_segments == 3 and grid.segment_ids.dtype == np.int32

    def test_default_grids_match_method_convention(self):
        for method in SaliencyMethod:
            grid = default_grid_for(method, 2, (8, 8), 4)
            if method is SaliencyMethod.OCCLUSION:
                assert grid is None
            elif method in SHARED_MAP_METHODS:
                assert not grid.per_modality
            else:
                assert grid.per_modality


class TestPostprocess:
    def test_three_value_example(self):
        raw = SaliencyMap(("a",), np.array([[[-1.0, 0.5, 2.0]]]))
        out = postprocess(raw)
        # linear-interpolation p99 of 3 values is 1.97, which clips the max
        assert out.data[0, 0] == pytest.approx([0.0, 0.5 / 1.97, 1.0], abs=1e-12)
        assert out.postprocessed

    def test_outlier_clamped_against_reference(self):
        rng = np.random.default_rng(0)
        values = rng.random(200)
        values[137] = 100.0
        raw = SaliencyMap(("a",), values.reshape(1, 10, 20))
        out = postprocess(raw)
        clamped, _ = percentile_clamp_reference(values, 99.0)
        expected = np.maximum(clamped, 0.0)
        expected /= expected.max()
        assert out.data[0] == pytest.approx(expected.reshape(10, 20), abs=1e-12)
        # the outlier no longer dominates: the runner-up maps near 1
        second = np.partition(out.data.ravel(), -2)[-2]
        assert second > 0.95

    def test_all_zero_passes_through(self):
        raw = SaliencyMap(("a", "b"), np.zeros((2, 3, 3)))
        out = postprocess(raw)
        assert np.all(out.data == 0.0) and out.postprocessed

    def test_negative_clamp_and_unit_max(self):
        rng = np.random.default_rng(1)
        out = postprocess(SaliencyMap(("a",), rng.standard_normal((1, 9, 9))))
        assert out.data.min() >= 0.0
        assert out.data.max() == pytest.approx(1.0, abs=1e-12)

    def test_idempotent_exactly_when_p99_hits_an_order_statistic(self):
        # 201 voxels: 0.99 * (201 - 1) is integral, so the clamp creates a tie
        # block that the second pass's percentile lands on
        rng = np.random.default_rng(2)
        raw = SaliencyMap(("a",), rng.random((1, 3, 67)))
        once = postprocess(raw)
        twice = postprocess(once)
        assert np.array_equal(once.data, twice.data)

    def test_near_idempotent_on_generic_maps(self):
        rng = np.random.default_rng(3)
        raw = SaliencyMap(("a", "b"), rng.standard_normal((2, 64, 64)))
        once = postprocess(raw)
        twice = postprocess(once)
        assert twice.data == pytest.approx(once.data, abs=5e-3)

    def test_percentile_is_joint_across_modalities(self):
        data = np.zeros((2, 10, 10))
        data[0] = 0.5
        data[1, 0, 0] = 50.0
        out = postprocess(SaliencyMap(("a", "b"), data))
        # the modality-0 plateau is far below the joint p99, so it survives
        assert np.all(out.data[0] > 0.0)

    def test_cap_is_numpy_percentile_bit_for_bit(self):
        rng = np.random.default_rng(4)
        for i in range(20000):
            n = int(rng.integers(1, 80))
            kind = i % 5
            if kind == 0:
                values = rng.standard_normal(n)
            elif kind == 1:  # ties
                values = rng.integers(-3, 4, n).astype(np.float64)
            elif kind == 2:
                values = np.zeros(n)
            elif kind == 3:  # zeros of both signs, which compare equal
                values = np.where(rng.random(n) < 0.5, -0.0, 0.0) * rng.integers(0, 2, n)
            else:
                values = rng.exponential(size=n) * 10.0 ** int(rng.integers(-8, 8))
            expected = np.float64(np.percentile(values, 99.0)).tobytes()
            assert np.float64(saliency._percentile_99(values)).tobytes() == expected

    def test_does_not_import_numpy_ma(self):
        """np.percentile imports numpy.ma, about 12 ms in each fresh
        `metrics msfi` or `metrics iou` process; postprocess does without it."""
        code = textwrap.dedent("""\
            import sys
            import numpy as np
            from mmsaliency.saliency import postprocess
            from mmsaliency.tensorio import SaliencyMap

            print("numpy.ma" in sys.modules)
            postprocess(SaliencyMap(("a",), np.arange(12.0).reshape(1, 3, 4)))
            print("numpy.ma" in sys.modules)
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        at_import, after = proc.stdout.split()
        if at_import == "True":
            pytest.skip("numpy before 2.0 imports numpy.ma with numpy itself")
        assert after == "False"


class TestOcclusion:
    def test_single_voxel_window_expectation(self):
        rng = np.random.default_rng(4)
        data = np.zeros((2, 3, 3))
        data[0] = 0.5 + 0.05 * rng.standard_normal((3, 3))
        data[1] = rng.random((3, 3))
        vol = MultiModalVolume(("a", "b"), data)
        oracle = FunctionOracle(lambda d: d[0, 0, 0])
        mu = data[0].mean()
        sigma = data[0].std()

        n_runs = 400
        acc = np.zeros((2, 3, 3))
        for seed in range(n_runs):
            cfg = MethodConfig(
                SaliencyMethod.OCCLUSION, target_class=0, rng_seed=seed,
                window=1, stride=1,
            )
            acc += occlusion(vol, oracle, cfg).data
        mean_map = acc / n_runs
        tol = 3.0 * sigma / math.sqrt(n_runs)
        assert mean_map[0, 0, 0] == pytest.approx(data[0, 0, 0] - mu, abs=tol)
        others = mean_map.copy()
        others[0, 0, 0] = 0.0
        assert np.all(others == 0.0)  # no other voxel ever moves the oracle

    def test_constant_oracle_gives_zero_map(self):
        rng = np.random.default_rng(5)
        vol = make_volume(rng, 2, (6, 6))
        cfg = MethodConfig(SaliencyMethod.OCCLUSION, target_class=0, window=2, stride=2)
        assert np.all(occlusion(vol, CONSTANT, cfg).data == 0.0)

    def test_whole_modality_window_is_uniform_per_modality(self):
        rng = np.random.default_rng(6)
        vol = make_volume(rng, 2, (4, 4))
        oracle = FunctionOracle(lambda d: float(np.clip(d.mean(), 0, 1)))
        cfg = MethodConfig(
            SaliencyMethod.OCCLUSION, target_class=0, rng_seed=1,
            window=(4, 4), stride=(7, 7),
        )
        out = occlusion(vol, oracle, cfg).data
        for m in range(2):
            assert np.all(out[m] == out[m, 0, 0])

    def test_constant_modality_draws_its_mean(self):
        data = np.zeros((1, 2, 2))
        data[0] = 0.75  # sigma = 0 -> replacement equals the mean, no change
        vol = MultiModalVolume(("a",), data)
        oracle = FunctionOracle(lambda d: d[0].mean())
        cfg = MethodConfig(SaliencyMethod.OCCLUSION, target_class=0, window=1, stride=1)
        assert np.all(occlusion(vol, oracle, cfg).data == 0.0)

    def test_flush_positions_cover_every_voxel(self):
        rng = np.random.default_rng(7)
        vol = make_volume(rng, 1, (5, 5))
        oracle = FunctionOracle(lambda d: float(np.clip(d.sum() / 25.0, 0, 1)))
        cfg = MethodConfig(
            SaliencyMethod.OCCLUSION, target_class=0, rng_seed=2,
            window=(2, 2), stride=(2, 2),
        )
        out = occlusion(vol, oracle, cfg).data
        assert np.all(out != 0.0)

    def test_stride_beyond_window_leaves_uncovered_voxels_at_zero(self):
        rng = np.random.default_rng(7)
        vol = make_volume(rng, 1, (5, 5))
        oracle = FunctionOracle(lambda d: float(np.clip(d.sum() / 25.0, 0, 1)))
        cfg = MethodConfig(
            SaliencyMethod.OCCLUSION, target_class=0, rng_seed=2,
            window=(2, 2), stride=(3, 3),
        )
        out = occlusion(vol, oracle, cfg).data
        # windows at offsets 0 and 3 never touch row/column 2
        assert np.all(out[0, 2, :] == 0.0) and np.all(out[0, :, 2] == 0.0)
        covered = out[0][np.ix_([0, 1, 3, 4], [0, 1, 3, 4])]
        assert np.all(covered != 0.0)

    def test_window_must_fit(self):
        rng = np.random.default_rng(8)
        vol = make_volume(rng, 1, (4, 4))
        cfg = MethodConfig(SaliencyMethod.OCCLUSION, target_class=0, window=5, stride=1)
        with pytest.raises(ValueError, match="window"):
            occlusion(vol, CONSTANT, cfg)

    def test_seed_reproducible(self):
        rng = np.random.default_rng(9)
        vol = make_volume(rng, 2, (6, 6))
        oracle = FunctionOracle(lambda d: float(np.clip(d.mean(), 0, 1)))
        cfg = MethodConfig(
            SaliencyMethod.OCCLUSION, target_class=0, rng_seed=11, window=3, stride=2
        )
        a = occlusion(vol, oracle, cfg).data
        b = occlusion(vol, oracle, cfg).data
        assert np.array_equal(a, b)

    def test_plans_of_one_shape_share_one_window_list(self):
        rng = np.random.default_rng(10)
        volumes = [make_volume(rng, 2, dims) for dims in [(8, 8), (8, 8), (6, 8), (8, 8)]]
        cfg = MethodConfig(SaliencyMethod.OCCLUSION, window=4, stride=2)
        plans = saliency._occlusion_plans(volumes, cfg, None)
        assert plans[0].items is plans[1].items is plans[3].items
        assert plans[2].items is not plans[0].items
        # 2 modalities x corners (0, 2) x (0, 2, 4), and x (0, 2, 4) twice
        assert (len(plans[2].items), len(plans[0].items)) == (2 * 2 * 3, 2 * 3 * 3)


def _typed(volume, dtype):
    return MultiModalVolume(volume.modality_names, volume.data.astype(dtype))


class TestOcclusionReference:
    """generate_maps's occlusion maps against sequential_occlusion, byte for byte."""

    ORACLE = FunctionOracle(lambda d: 0.5 + float((d[0] * d[-1]).mean()) - 0.3 * float(d.std()))

    def _assert_equal_to_reference(self, samples, window, stride, target_class):
        cfg = MethodConfig(
            SaliencyMethod.OCCLUSION, target_class=target_class, rng_seed=13,
            window=window, stride=stride,
        )
        maps, _ = generate_maps(samples, self.ORACLE, cfg)
        for s in samples:
            expected = sequential_occlusion(
                s.volume, self.ORACLE, window, stride, 13, target_class
            )
            assert maps[s.record.sample_id].data.dtype == expected.dtype
            assert maps[s.record.sample_id].data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("target_class", [None, 1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dims, window, stride", [
        ((9, 7), (3, 2), (2, 3)),
        ((6, 5, 4), (2, 3, 2), (2, 1, 3)),
        ((8, 8), (2, 2), (3, 3)),  # stride > window: some voxels stay uncovered
    ])
    def test_maps_equal_the_sequential_reference(
        self, dims, window, stride, dtype, target_class
    ):
        rng = np.random.default_rng(11)
        samples = [
            make_sample(f"s{i}", _typed(make_volume(rng, 2, dims), dtype)) for i in range(3)
        ]
        self._assert_equal_to_reference(samples, window, stride, target_class)

    @pytest.mark.parametrize("target_class", [None, 1])
    def test_samples_of_two_shapes(self, target_class):
        rng = np.random.default_rng(12)
        samples = [
            make_sample(f"s{i}", make_volume(rng, 2, dims))
            for i, dims in enumerate([(8, 8), (6, 7), (8, 8), (6, 7)])
        ]
        self._assert_equal_to_reference(samples, (3, 3), (2, 2), target_class)


class TestFeatureAblation:
    def test_mean_oracle_exact_attribution(self):
        # dyadic values keep every intermediate exactly representable
        data = np.arange(32, dtype=float).reshape(2, 4, 4) / 16.0
        vol = MultiModalVolume(("a", "b"), data)
        grid = build_grid(2, (4, 4), (2, 2), per_modality=True)
        oracle = FunctionOracle(lambda d: d[0].sum() / 16.0 / 2.0)
        cfg = MethodConfig(SaliencyMethod.FEATURE_ABLATION, target_class=0)
        out = feature_ablation(vol, oracle, cfg, grid).data
        for k in range(4):  # modality-0 segments
            sel = grid.segment_ids == k
            expected = data[sel].sum() / 16.0 / 2.0
            assert np.all(out[sel] == expected)
        assert np.all(out[1] == 0.0)  # modality-1 segments never move the oracle

    def test_constant_oracle_zero(self):
        rng = np.random.default_rng(10)
        vol = make_volume(rng, 2, (4, 4))
        grid = build_grid(2, (4, 4), 2, per_modality=True)
        cfg = MethodConfig(SaliencyMethod.FEATURE_ABLATION, target_class=0)
        assert np.all(feature_ablation(vol, CONSTANT, cfg, grid).data == 0.0)

    def test_single_segment_gets_full_drop(self):
        rng = np.random.default_rng(11)
        vol = make_volume(rng, 1, (4, 4), low=0.3)
        grid = build_grid(1, (4, 4), (4, 4), per_modality=True)
        oracle = FunctionOracle(lambda d: float(np.clip(d.mean() + 0.2, 0, 1)))
        cfg = MethodConfig(SaliencyMethod.FEATURE_ABLATION, target_class=0)
        out = feature_ablation(vol, oracle, cfg, grid).data
        p_full = oracle.predict(vol).probs[0]
        p_zero = oracle.predict(vol.with_data(np.zeros_like(vol.data))).probs[0]
        assert np.all(out == pytest.approx(p_full - p_zero, abs=1e-15))

    def test_requires_per_modality_grid(self):
        rng = np.random.default_rng(12)
        vol = make_volume(rng, 2, (4, 4))
        grid = build_grid(2, (4, 4), 2, per_modality=False)
        cfg = MethodConfig(SaliencyMethod.FEATURE_ABLATION, target_class=0)
        with pytest.raises(ValueError, match="per-modality"):
            feature_ablation(vol, CONSTANT, cfg, grid)

    def test_3d_volume_exact_attribution(self):
        data = np.arange(2 * 4 * 4 * 2, dtype=float).reshape(2, 4, 4, 2) / 64.0
        vol = MultiModalVolume(("a", "b"), data)
        grid = build_grid(2, (4, 4, 2), (2, 2, 2), per_modality=True)
        oracle = FunctionOracle(lambda d: d[0].sum() / 64.0 / 2.0)
        cfg = MethodConfig(SaliencyMethod.FEATURE_ABLATION, target_class=0)
        out = feature_ablation(vol, oracle, cfg, grid).data
        assert out.shape == (2, 4, 4, 2)
        for k in range(4):
            sel = grid.segment_ids == k
            assert np.all(out[sel] == data[sel].sum() / 64.0 / 2.0)


class TestFeaturePermutation:
    def _samples(self, arrays):
        return [
            make_sample(f"s{i}", MultiModalVolume(("a", "b"), arr))
            for i, arr in enumerate(arrays)
        ]

    def test_identical_samples_give_zero_maps(self):
        arr = np.full((2, 4, 4), 0.3)
        samples = self._samples([arr, arr.copy()])
        grid = build_grid(2, (4, 4), 2, per_modality=False)
        oracle = FunctionOracle(lambda d: float(np.clip(d.mean(), 0, 1)))
        cfg = MethodConfig(SaliencyMethod.FEATURE_PERMUTATION, target_class=0, rng_seed=0)
        maps = feature_permutation(samples, oracle, cfg, grid)
        for smap in maps.values():
            assert np.all(smap.data == 0.0)

    def test_constant_oracle_gives_zero_maps(self):
        rng = np.random.default_rng(13)
        samples = self._samples([rng.random((2, 4, 4)) for _ in range(3)])
        grid = build_grid(2, (4, 4), 2, per_modality=False)
        cfg = MethodConfig(SaliencyMethod.FEATURE_PERMUTATION, target_class=0, rng_seed=0)
        maps = feature_permutation(samples, CONSTANT, cfg, grid)
        assert all(np.all(m.data == 0.0) for m in maps.values())

    def test_two_sample_swap_is_antisymmetric(self):
        a = np.full((2, 2, 2), 0.8)
        b = np.full((2, 2, 2), 0.2)
        samples = self._samples([a, b])
        grid = build_grid(2, (2, 2), (2, 2), per_modality=False)  # one segment
        oracle = FunctionOracle(lambda d: d[0, 0, 0])
        cfg = MethodConfig(SaliencyMethod.FEATURE_PERMUTATION, target_class=0, rng_seed=0)
        maps = feature_permutation(samples, oracle, cfg, grid)
        assert np.all(maps["s0"].data == pytest.approx(0.8 - 0.2, abs=1e-15))
        assert np.all(maps["s1"].data == pytest.approx(0.2 - 0.8, abs=1e-15))

    def test_map_is_shared_across_modalities(self):
        rng = np.random.default_rng(14)
        samples = self._samples([rng.random((2, 4, 4)) for _ in range(4)])
        grid = build_grid(2, (4, 4), 2, per_modality=False)
        oracle = FunctionOracle(lambda d: float(np.clip(d[0].mean(), 0, 1)))
        cfg = MethodConfig(SaliencyMethod.FEATURE_PERMUTATION, target_class=0, rng_seed=3)
        maps = feature_permutation(samples, oracle, cfg, grid)
        for smap in maps.values():
            assert np.array_equal(smap.data[0], smap.data[1])

    def test_each_shuffled_volume_takes_one_segment_from_a_donor(self):
        # a float32 sample takes float64 donors' values rounded as a masked
        # assignment rounds them, and keeps its dtype
        rng = np.random.default_rng(16)
        arrays = [rng.random((2, 4, 6)).astype(np.float32), rng.random((2, 4, 6)),
                  rng.random((2, 4, 6))]
        samples = self._samples(arrays)
        grid = build_grid(2, (4, 6), (2, 3), per_modality=False)
        seen = []
        oracle = FunctionOracle(lambda d: seen.append(d) or 0.5)
        cfg = MethodConfig(SaliencyMethod.FEATURE_PERMUTATION, target_class=0, rng_seed=4)
        feature_permutation(samples, oracle, cfg, grid)
        K = grid.n_segments
        assert len(seen) == len(arrays) * (1 + K)
        for j, own in enumerate(s.volume.data for s in samples):
            head, *shuffled = seen[j * (1 + K):(j + 1) * (1 + K)]
            assert np.array_equal(head, own)
            for k, got in enumerate(shuffled):
                sel = grid.segment_ids == k
                assert got.dtype == own.dtype and not got.flags.writeable
                assert np.array_equal(got[~sel], own[~sel])
                donors = [i for i, a in enumerate(arrays)
                          if np.array_equal(got[sel], a[sel].astype(own.dtype))]
                assert len(donors) == 1 and donors != [j]

    def test_a_donor_value_beyond_float32_is_rejected(self):
        big = np.full((2, 2, 2), 1e39)
        samples = self._samples([np.zeros((2, 2, 2), dtype=np.float32), big])
        grid = build_grid(2, (2, 2), 1, per_modality=False)
        cfg = MethodConfig(SaliencyMethod.FEATURE_PERMUTATION, target_class=0)
        with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
            feature_permutation(samples, CONSTANT, cfg, grid)

    def test_single_sample_rejected(self):
        samples = self._samples([np.zeros((2, 2, 2))])
        grid = build_grid(2, (2, 2), 2, per_modality=False)
        cfg = MethodConfig(SaliencyMethod.FEATURE_PERMUTATION, target_class=0)
        with pytest.raises(ValueError, match="at least 2"):
            feature_permutation(samples, CONSTANT, cfg, grid)

    def test_shuffles_prefer_derangements(self):
        from mmsaliency.saliency import _derangement_preferring

        rng = np.random.default_rng(15)
        for n in (2, 3, 5, 8):
            for _ in range(20):
                perm = _derangement_preferring(rng, n)
                assert sorted(perm.tolist()) == list(range(n))
                assert not np.any(perm == np.arange(n))


class TestLime:
    def test_recovers_linear_coefficients(self):
        rng = np.random.default_rng(16)
        vol = make_volume(rng, 2, (4, 4), low=0.2, high=1.0)
        grid = build_grid(2, (4, 4), (2, 2), per_modality=True)
        coefs = np.array([0.05, 0.1, 0.02, 0.07, 0.01, 0.03, 0.08, 0.04])
        oracle = SegmentIndicatorOracle(grid, coefs, intercept=0.05)
        cfg = MethodConfig(
            SaliencyMethod.LIME, target_class=0, rng_seed=5,
            n_samples=600, ridge_lambda=1e-10,
        )
        out = lime(vol, oracle, cfg, grid).data
        for k in range(8):
            sel = grid.segment_ids == k
            assert np.all(np.abs(out[sel] - coefs[k]) < 1e-3)

    def test_constant_oracle_gives_zero_coefficients(self):
        rng = np.random.default_rng(17)
        vol = make_volume(rng, 1, (4, 4), low=0.2)
        grid = build_grid(1, (4, 4), (2, 2), per_modality=True)
        cfg = MethodConfig(
            SaliencyMethod.LIME, target_class=0, rng_seed=6, n_samples=64,
            ridge_lambda=1e-6,
        )
        out = lime(vol, CONSTANT, cfg, grid).data
        assert np.all(np.abs(out) < 1e-6)

    def test_single_segment_closed_form(self):
        rng = np.random.default_rng(18)
        vol = make_volume(rng, 1, (3, 3), low=0.3)
        grid = build_grid(1, (3, 3), (3, 3), per_modality=True)
        oracle = FunctionOracle(lambda d: float(np.clip(d.mean() + 0.1, 0, 1)))
        cfg = MethodConfig(
            SaliencyMethod.LIME, target_class=0, rng_seed=7, n_samples=8,
            ridge_lambda=0.0,
        )
        out = lime(vol, oracle, cfg, grid).data
        p_full = oracle.predict(vol).probs[0]
        p_zero = oracle.predict(vol.with_data(np.zeros_like(vol.data))).probs[0]
        # the near-zero kernel weight on z=0 rows costs ~8 digits of conditioning
        assert np.all(out == pytest.approx(p_full - p_zero, abs=1e-6))

    def test_underdetermined_rejected(self):
        rng = np.random.default_rng(19)
        vol = make_volume(rng, 2, (4, 4))
        grid = build_grid(2, (4, 4), (2, 2), per_modality=True)
        cfg = MethodConfig(SaliencyMethod.LIME, target_class=0, n_samples=7)
        with pytest.raises(ValueError, match="underdetermined"):
            lime(vol, CONSTANT, cfg, grid)

    def test_singular_system_rejected(self):
        # two segments, zero ridge, and samples that never separate them
        vol = MultiModalVolume(("a",), np.full((1, 2, 2), 0.5))
        grid = build_grid(1, (2, 2), (1, 2), per_modality=True)
        cfg = MethodConfig(
            SaliencyMethod.LIME, target_class=0, rng_seed=29, n_samples=2,
            ridge_lambda=0.0,
        )
        with pytest.raises(ValueError, match="singular|underdetermined"):
            lime(vol, CONSTANT, cfg, grid)

    def test_seed_reproducible(self):
        rng = np.random.default_rng(20)
        vol = make_volume(rng, 1, (4, 4), low=0.2)
        grid = build_grid(1, (4, 4), (2, 2), per_modality=True)
        oracle = FunctionOracle(lambda d: float(np.clip(d.mean(), 0, 1)))
        cfg = MethodConfig(SaliencyMethod.LIME, target_class=0, rng_seed=8, n_samples=32)
        assert np.array_equal(
            lime(vol, oracle, cfg, grid).data, lime(vol, oracle, cfg, grid).data
        )


class TestShapleySampling:
    def test_additive_oracle_exact_with_one_permutation(self):
        rng = np.random.default_rng(21)
        vol = make_volume(rng, 1, (4, 4), low=0.1, high=0.5)
        grid = build_grid(1, (4, 4), (2, 2), per_modality=True)
        weights = np.array([0.02, 0.05, 0.01, 0.03])
        oracle = AdditiveSegmentOracle(grid, weights, base=0.05)
        cfg = MethodConfig(
            SaliencyMethod.SHAPLEY_SAMPLING, target_class=0, rng_seed=9, n_samples=1
        )
        out = shapley_sampling(vol, oracle, cfg, grid).data
        for k in range(4):
            sel = grid.segment_ids == k
            expected = weights[k] * vol.data[sel].sum()
            assert np.all(np.abs(out[sel] - expected) < 1e-12)

    def test_constant_oracle_zero(self):
        rng = np.random.default_rng(22)
        vol = make_volume(rng, 1, (4, 4))
        grid = build_grid(1, (4, 4), 2, per_modality=True)
        cfg = MethodConfig(SaliencyMethod.SHAPLEY_SAMPLING, target_class=0, n_samples=3)
        assert np.all(shapley_sampling(vol, CONSTANT, cfg, grid).data == 0.0)

    def test_exhaustive_matches_subset_enumeration(self):
        rng = np.random.default_rng(23)
        vol = make_volume(rng, 1, (4, 4), low=0.2, high=0.9)
        grid = build_grid(1, (4, 4), (2, 2), per_modality=True)  # K = 4
        oracle = FunctionOracle(lambda d: float(np.clip(np.sqrt(d.sum()) / 8.0, 0, 1)))
        cfg = MethodConfig(
            SaliencyMethod.SHAPLEY_SAMPLING, target_class=0, exhaustive=True
        )
        out = shapley_sampling(vol, oracle, cfg, grid).data

        def v(mask):
            keep = np.zeros_like(vol.data)
            for k in range(4):
                if mask >> k & 1:
                    sel = grid.segment_ids == k
                    keep[sel] = vol.data[sel]
            return oracle.predict(vol.with_data(keep)).probs[0]

        exact = subset_shapley(v, 4)
        for k in range(4):
            assert np.all(np.abs(out[grid.segment_ids == k] - exact[k]) < 1e-12)

    def test_efficiency_when_enumerated(self):
        rng = np.random.default_rng(24)
        vol = make_volume(rng, 2, (4, 4), low=0.2)
        grid = build_grid(2, (4, 4), (4, 2), per_modality=True)  # K = 4
        oracle = FunctionOracle(lambda d: float(np.clip(d.std() + 0.2, 0, 1)))
        cfg = MethodConfig(SaliencyMethod.SHAPLEY_SAMPLING, target_class=0, exhaustive=True)
        out = shapley_sampling(vol, oracle, cfg, grid).data
        phi_sum = sum(out[grid.segment_ids == k][0] for k in range(4))
        p_full = oracle.predict(vol).probs[0]
        p_empty = oracle.predict(vol.with_data(np.zeros_like(vol.data))).probs[0]
        assert phi_sum == pytest.approx(p_full - p_empty, abs=1e-6)

    def test_exhaustive_capped(self):
        rng = np.random.default_rng(25)
        vol = make_volume(rng, 1, (8, 8))
        grid = build_grid(1, (8, 8), 2, per_modality=True)  # 16 segments
        cfg = MethodConfig(SaliencyMethod.SHAPLEY_SAMPLING, target_class=0, exhaustive=True)
        with pytest.raises(ValueError, match="capped"):
            shapley_sampling(vol, CONSTANT, cfg, grid)

    def test_marginals_add_up_in_ordering_order(self):
        # 60 orderings of K = 6 segments under a nonlinear oracle: each segment
        # collects 60 marginals, so a different summation order would move the
        # last bits
        rng = np.random.default_rng(38)
        vol = make_volume(rng, 2, (4, 6), low=0.2, high=0.9)
        grid = build_grid(2, (4, 6), (2, 2), per_modality=False)
        oracle = FunctionOracle(lambda d: float(np.tanh(d.sum() / 9.0) ** 2))
        cfg = MethodConfig(
            SaliencyMethod.SHAPLEY_SAMPLING, target_class=0, rng_seed=12, n_samples=60
        )
        out = shapley_sampling(vol, oracle, cfg, grid).data
        expected = sequential_shapley_sampling(vol, oracle, grid, 0, 60, seed=12)
        assert np.array_equal(out, expected[grid.segment_ids])

    def test_exhaustive_runs_at_the_cap(self):
        rng = np.random.default_rng(35)
        vol = make_volume(rng, 1, (3, 4), low=0.2)
        grid = build_grid(1, (3, 4), 1, per_modality=True)  # K = 12
        coefs = rng.uniform(0.01, 0.05, size=12)
        oracle = SegmentIndicatorOracle(grid, coefs, intercept=0.1)
        cfg = MethodConfig(SaliencyMethod.SHAPLEY_SAMPLING, target_class=0, exhaustive=True)
        out = shapley_sampling(vol, oracle, cfg, grid).data
        assert np.all(np.abs(out - coefs[grid.segment_ids]) < 1e-12)


class TestExactShapleyPath:
    def test_both_estimators_give_the_coalition_table_shapley(self):
        rng = np.random.default_rng(36)
        vol = make_volume(rng, 2, (4, 6), low=0.2, high=0.9)
        grid = build_grid(2, (4, 6), (2, 2), per_modality=False)  # K = 6 shared
        oracle = FunctionOracle(lambda d: float(np.clip(np.sqrt(d.sum() / 40.0), 0, 1)))
        k = grid.n_segments
        values = []
        for mask in range(1 << k):
            keep = np.array([mask >> j & 1 for j in range(k)], dtype=np.float64)
            kept = vol.with_data(vol.data * keep[grid.segment_ids])
            values.append(oracle.predict(kept).probs[0])
        expected = exact_shapley(values, k)[grid.segment_ids]
        maps = []
        for explain in (shapley_sampling, kernel_shap):
            cfg = MethodConfig(SaliencyMethod(explain.__name__), target_class=0, exhaustive=True)
            maps.append(explain(vol, oracle, cfg, grid))
        assert np.array_equal(maps[0].data, maps[1].data)
        assert np.array_equal(maps[0].data, expected)

    @pytest.mark.parametrize(
        "explain, per_modality, dims, grid_dims, params, match",
        [
            (shapley_sampling, True, (1, 13), (1, 13), dict(exhaustive=True), "capped"),
            (kernel_shap, False, (1, 13), (1, 13), dict(exhaustive=True), "capped"),
            (kernel_shap, False, (2, 2), (2, 2), dict(n_samples=5), "n_samples"),
            (lime, True, (2, 2), (2, 2), dict(n_samples=3), "n_samples"),
            (feature_ablation, True, (2, 2), (2, 3), {}, "does not match"),
            (lime, True, (2, 2), (2, 3), {}, "does not match"),
            (shapley_sampling, True, (2, 2), (2, 3), {}, "does not match"),
            (shapley_sampling, True, (2, 2), (2, 3), dict(exhaustive=True), "does not match"),
            (kernel_shap, False, (2, 2), (2, 3), {}, "does not match"),
            (kernel_shap, False, (2, 2), (2, 3), dict(exhaustive=True), "does not match"),
            (occlusion, None, (2, 2), None, dict(window=3), "window"),
            # at these widths only all-ones keep rows get a nonzero weight, and
            # these 40 rows over K = 8 segments hold none
            (lime, True, (2, 4), (2, 4), dict(n_samples=40, kernel_width=1e-200), "singular"),
            (lime, True, (2, 4), (2, 4), dict(n_samples=40, kernel_width=1e-100), "singular"),
            (lime, True, (2, 4), (2, 4), dict(n_samples=40, kernel_width=1e-3), "singular"),
            # 1e-200 squares to 0, so an all-ones row (K = 4) gets the weight exp(-0/0) = NaN
            (lime, True, (2, 2), (2, 2), dict(n_samples=40, kernel_width=1e-200), "singular"),
            # a draw of 6 coalitions of K = 4 segments that does not span the fit
            (kernel_shap, False, (2, 2), (2, 2), dict(n_samples=6, rng_seed=45), "singular"),
        ],
    )
    def test_configuration_errors_precede_any_oracle_call(
        self, explain, per_modality, dims, grid_dims, params, match
    ):
        # target_class unset, so resolving the target would be the first call
        calls = []

        def fn(data):
            calls.append(1)
            return 0.5

        rng = np.random.default_rng(37)
        vol = make_volume(rng, 1, dims)
        grid = () if grid_dims is None else (build_grid(1, grid_dims, 1, per_modality),)
        cfg = MethodConfig(SaliencyMethod(explain.__name__), **params)
        with pytest.raises(ValueError, match=match):
            explain(vol, FunctionOracle(fn), cfg, *grid)
        assert calls == []


class TestKernelShap:
    def test_every_singular_draw_fails_before_any_oracle_call(self):
        vol = make_volume(np.random.default_rng(38), 1, (2, 2))
        grid = build_grid(1, (2, 2), 1, per_modality=False)
        failed = 0
        for seed in range(200):
            calls = []
            oracle = FunctionOracle(lambda data: calls.append(1) or data.mean())
            cfg = MethodConfig(SaliencyMethod.KERNEL_SHAP, rng_seed=seed, n_samples=6)
            try:
                kernel_shap(vol, oracle, cfg, grid)
            except ValueError as exc:
                assert "kernel_shap system is singular" in str(exc)
                assert calls == [], seed
                failed += 1
        assert failed > 0

    def test_exhaustive_linear_oracle_exact_shapley(self):
        rng = np.random.default_rng(26)
        vol = make_volume(rng, 2, (4, 4), low=0.2, high=0.9)
        grid = build_grid(2, (4, 4), (2, 4), per_modality=False)  # K = 2? no: 2x1
        grid = build_grid(2, (4, 4), (2, 2), per_modality=False)  # K = 4 shared
        coefs = np.array([0.04, 0.11, 0.02, 0.08])
        oracle = SegmentIndicatorOracle(grid, coefs, intercept=0.1)
        cfg = MethodConfig(SaliencyMethod.KERNEL_SHAP, target_class=0, exhaustive=True)
        out = kernel_shap(vol, oracle, cfg, grid).data
        # linear-model Shapley: each segment's value is its own coefficient
        for k in range(4):
            assert np.all(np.abs(out[grid.segment_ids == k] - coefs[k]) < 1e-12)

    def test_sampled_linear_oracle_recovers_coefficients(self):
        rng = np.random.default_rng(34)
        vol = make_volume(rng, 2, (4, 4), low=0.2, high=0.9)
        grid = build_grid(2, (4, 4), (2, 2), per_modality=False)  # K = 4 shared
        coefs = np.array([0.04, 0.11, 0.02, 0.08])
        oracle = SegmentIndicatorOracle(grid, coefs, intercept=0.1)
        cfg = MethodConfig(
            SaliencyMethod.KERNEL_SHAP, target_class=0, rng_seed=4, n_samples=12
        )
        out = kernel_shap(vol, oracle, cfg, grid).data
        for k in range(4):
            assert np.all(np.abs(out[grid.segment_ids == k] - coefs[k]) < 1e-10)

    def test_exhaustive_matches_subset_enumeration_nonlinear(self):
        rng = np.random.default_rng(27)
        vol = make_volume(rng, 1, (4, 4), low=0.2, high=0.9)
        grid = build_grid(1, (4, 4), (2, 2), per_modality=False)
        oracle = FunctionOracle(lambda d: float(np.clip(np.sqrt(d.sum()) / 8.0, 0, 1)))
        cfg = MethodConfig(SaliencyMethod.KERNEL_SHAP, target_class=0, exhaustive=True)
        out = kernel_shap(vol, oracle, cfg, grid).data

        def v(mask):
            keep = np.zeros_like(vol.data)
            for k in range(4):
                if mask >> k & 1:
                    sel = grid.segment_ids == k
                    keep[sel] = vol.data[sel]
            return oracle.predict(vol.with_data(keep)).probs[0]

        exact = subset_shapley(v, 4)
        for k in range(4):
            assert np.all(np.abs(out[grid.segment_ids == k] - exact[k]) < 1e-10)

    def test_constant_oracle_zero(self):
        rng = np.random.default_rng(28)
        vol = make_volume(rng, 2, (4, 4))
        grid = build_grid(2, (4, 4), 2, per_modality=False)
        cfg = MethodConfig(SaliencyMethod.KERNEL_SHAP, target_class=0, exhaustive=True)
        out = kernel_shap(vol, CONSTANT, cfg, grid).data
        assert np.all(np.abs(out) < 1e-12)

    def test_single_segment_efficiency(self):
        rng = np.random.default_rng(29)
        vol = make_volume(rng, 1, (3, 3), low=0.3)
        grid = build_grid(1, (3, 3), (3, 3), per_modality=False)
        oracle = FunctionOracle(lambda d: float(np.clip(d.mean() + 0.2, 0, 1)))
        cfg = MethodConfig(SaliencyMethod.KERNEL_SHAP, target_class=0, n_samples=8)
        out = kernel_shap(vol, oracle, cfg, grid).data
        p_full = oracle.predict(vol).probs[0]
        p_zero = oracle.predict(vol.with_data(np.zeros_like(vol.data))).probs[0]
        assert np.all(out == pytest.approx(p_full - p_zero, abs=1e-12))

    def test_efficiency_constraint_always_holds(self):
        rng = np.random.default_rng(30)
        vol = make_volume(rng, 2, (4, 4), low=0.2)
        grid = build_grid(2, (4, 4), 2, per_modality=False)
        oracle = FunctionOracle(lambda d: float(np.clip(d.std() + 0.3, 0, 1)))
        cfg = MethodConfig(
            SaliencyMethod.KERNEL_SHAP, target_class=0, rng_seed=2, n_samples=24
        )
        out = kernel_shap(vol, oracle, cfg, grid).data
        phi_sum = sum(out[grid.segment_ids == k][0] for k in range(grid.n_segments))
        p_full = oracle.predict(vol).probs[0]
        p_empty = oracle.predict(vol.with_data(np.zeros_like(vol.data))).probs[0]
        assert phi_sum == pytest.approx(p_full - p_empty, abs=1e-6)

    def test_map_is_shared_across_modalities(self):
        rng = np.random.default_rng(31)
        vol = make_volume(rng, 3, (4, 4), low=0.2)
        grid = build_grid(3, (4, 4), 2, per_modality=False)
        oracle = FunctionOracle(lambda d: float(np.clip(d[0].mean(), 0, 1)))
        cfg = MethodConfig(
            SaliencyMethod.KERNEL_SHAP, target_class=0, rng_seed=3, n_samples=16
        )
        out = kernel_shap(vol, oracle, cfg, grid).data
        assert np.array_equal(out[0], out[1]) and np.array_equal(out[0], out[2])

    def test_requires_shared_grid_and_enough_samples(self):
        rng = np.random.default_rng(32)
        vol = make_volume(rng, 2, (4, 4))
        per_mod = build_grid(2, (4, 4), 2, per_modality=True)
        cfg = MethodConfig(SaliencyMethod.KERNEL_SHAP, target_class=0)
        with pytest.raises(ValueError, match="shared"):
            kernel_shap(vol, CONSTANT, cfg, per_mod)
        shared = build_grid(2, (4, 4), 2, per_modality=False)
        small = MethodConfig(SaliencyMethod.KERNEL_SHAP, target_class=0, n_samples=5)
        with pytest.raises(ValueError, match="n_samples"):
            kernel_shap(vol, CONSTANT, small, shared)


class TestSeedReproducibility:
    @pytest.mark.parametrize("method", list(SaliencyMethod))
    def test_same_seed_same_map(self, method):
        rng = np.random.default_rng(40)
        samples = [
            make_sample(f"s{i}", make_volume(rng, 2, (8, 8), low=0.1))
            for i in range(3)
        ]
        oracle = FunctionOracle(lambda d: float(np.clip(d.mean() + d.std(), 0, 1)))
        cfg = MethodConfig(
            method, target_class=0, rng_seed=77, window=4, stride=2,
            block_shape=4, n_samples=40,
        )
        first, _ = generate_maps(samples, oracle, cfg)
        second, _ = generate_maps(samples, oracle, cfg)
        for sid in first:
            assert np.array_equal(first[sid].data, second[sid].data)


class TestGenerateMaps:
    def _samples(self, n=3):
        rng = np.random.default_rng(33)
        return [
            make_sample(f"s{i}", make_volume(rng, 2, (8, 8), low=0.1)) for i in range(n)
        ]

    def test_runs_every_method_with_defaults(self):
        samples = self._samples()
        oracle = FunctionOracle(lambda d: float(np.clip(d.mean(), 0, 1)))
        for method in SaliencyMethod:
            cfg = MethodConfig(
                method, target_class=0, rng_seed=1, window=4, stride=2,
                block_shape=4, n_samples=40,
            )
            maps, runlog = generate_maps(samples, oracle, cfg)
            assert set(maps) == {s.record.sample_id for s in samples}
            for smap in maps.values():
                assert smap.data.shape == (2, 8, 8)
            assert runlog["method"] == method.value
            assert set(runlog["wall_time"]) == set(maps)

    def test_target_class_defaults_to_argmax(self):
        samples = self._samples(2)
        calls = []

        class ArgmaxProbe:
            def predict(self, volume):
                calls.append(1)
                return ClassProbabilities((0.3, 0.7))

        cfg = MethodConfig(
            SaliencyMethod.FEATURE_ABLATION, rng_seed=0, block_shape=4
        )
        maps, _ = generate_maps(samples, ArgmaxProbe(), cfg)
        assert len(maps) == 2  # resolved target 1 without error

    @pytest.mark.parametrize(
        "method, block, exhaustive",
        [
            # 8x8 with 4x4 blocks: K = 8 per-modality segments, or K = 4 shared
            (SaliencyMethod.FEATURE_ABLATION, 4, False),
            (SaliencyMethod.LIME, 4, False),
            (SaliencyMethod.SHAPLEY_SAMPLING, 4, False),
            (SaliencyMethod.SHAPLEY_SAMPLING, 8, True),  # K = 2
            (SaliencyMethod.KERNEL_SHAP, 4, False),
            (SaliencyMethod.KERNEL_SHAP, 4, True),
        ],
    )
    def test_oracle_evaluations_per_sample(self, method, block, exhaustive):
        calls = []

        def fn(data):
            calls.append(1)
            return float(np.clip(data.mean(), 0, 1))

        cfg = MethodConfig(
            method, rng_seed=5, block_shape=block, n_samples=40, exhaustive=exhaustive
        )
        samples = self._samples(2)
        grid = default_grid_for(method, 2, (8, 8), block)
        k = grid.n_segments
        if method is SaliencyMethod.FEATURE_ABLATION:
            rows = k + 1  # all distinct: keep everything, then drop each segment
        elif exhaustive:
            rows = 2**k
        else:
            # the seeded draws repeat coalitions; each distinct one is evaluated once
            drawn = sampled_keep_rows(method.value, k, 40, seed=5)
            rows = len(set(drawn))
            assert rows < len(drawn)
        generate_maps(samples, FunctionOracle(fn), cfg)
        # per sample: the unperturbed head fixes the target, then one per distinct row
        assert len(calls) == 2 * (1 + rows)

    @pytest.mark.parametrize(
        "method",
        [SaliencyMethod.LIME, SaliencyMethod.SHAPLEY_SAMPLING, SaliencyMethod.KERNEL_SHAP],
    )
    def test_one_draw_per_call(self, method, monkeypatch):
        # every sample shares the rows drawn from one generator
        made = []
        real = np.random.default_rng

        def default_rng(*args):
            made.append(args)
            return real(*args)

        samples = self._samples(3)
        cfg = MethodConfig(method, rng_seed=5, block_shape=4, n_samples=40)
        monkeypatch.setattr(np.random, "default_rng", default_rng)
        generate_maps(samples, FunctionOracle(lambda d: d.mean()), cfg)
        assert made == [(5,)]


class TestStreamedMaps:
    """generate_maps(..., on_map=f) hands each map to f as it is made and keeps none."""

    @staticmethod
    def _samples(dims):
        rng = np.random.default_rng(34)
        # ids out of sorted order: the calls follow the samples
        return [make_sample(sid, make_volume(rng, 2, dims, low=0.1)) for sid in ("c", "a", "b")]

    @pytest.mark.parametrize("target_class", [None, 1])
    @pytest.mark.parametrize("dims", [(8, 8), (4, 4, 4)])
    @pytest.mark.parametrize("method", list(SaliencyMethod))
    def test_each_map_once_in_sample_order_equal_to_the_dict(self, method, dims,
                                                             target_class):
        calls, held = [], []

        def fn(data):
            # the maps handed over are freed before the next one is made
            held.append(sum(ref() is not None for _, _, ref in calls))
            return float(np.sqrt(data.mean()) + data.flat[0] / 4)

        def on_map(sid, smap):
            calls.append((sid, smap.data.tobytes(), weakref.ref(smap)))

        samples, oracle = self._samples(dims), FunctionOracle(fn)
        cfg = MethodConfig(method, target_class=target_class, rng_seed=6, window=2,
                           stride=2, block_shape=2 if len(dims) == 3 else 4, n_samples=40)
        maps, runlog = generate_maps(samples, oracle, cfg)
        held.clear()
        kept, streamed = generate_maps(samples, oracle, cfg, on_map=on_map)
        assert kept == {}
        assert [sid for sid, _, _ in calls] == ["c", "a", "b"]
        assert held and not any(held)
        for sid, data, _ in calls:
            assert data == maps[sid].data.tobytes()
        assert streamed["oracle_evals"] == runlog["oracle_evals"]
        assert list(streamed["wall_time"]) == ["c", "a", "b"]


class TestDistinctRows:
    """Keep-row methods evaluate each distinct row once per sample."""

    CASES = [
        # (method, per_modality grid, block, n_samples); 8x8, 2 modalities
        (lime, True, 4, 40),  # K = 8
        (lime, True, 8, 40),  # K = 2: at most 4 distinct rows
        (shapley_sampling, True, 4, 20),  # K = 8
        (kernel_shap, False, 4, 40),  # K = 4
    ]

    def _volume(self):
        return make_volume(np.random.default_rng(50), 2, (8, 8), low=0.1)

    @staticmethod
    def _recording_oracle():
        seen = []

        def fn(data):
            seen.append(data.copy())
            return float(np.clip(np.sqrt(data.mean()) + data[0, 0, 0] / 4, 0, 1))

        return FunctionOracle(fn), seen

    @pytest.mark.parametrize("explain, per_modality, block, n", CASES)
    def test_oracle_sees_the_row_stream_without_repeats(
        self, explain, per_modality, block, n
    ):
        vol = self._volume()
        grid = build_grid(2, (8, 8), block, per_modality)
        rows = sampled_keep_rows(explain.__name__, grid.n_segments, n, seed=9)
        distinct = list(dict.fromkeys(rows))  # first occurrences, in row order
        assert len(distinct) < len(rows)
        oracle, seen = self._recording_oracle()
        cfg = MethodConfig(
            SaliencyMethod(explain.__name__), target_class=0, rng_seed=9, n_samples=n
        )
        explain(vol, oracle, cfg, grid)
        assert len(seen) == len(distinct)
        for data, row in zip(seen, distinct):
            assert np.array_equal(data, vol.data * np.array(row)[grid.segment_ids])

    @pytest.mark.parametrize("explain, per_modality, block, n", CASES)
    def test_no_volume_is_evaluated_twice(self, explain, per_modality, block, n):
        grid = build_grid(2, (8, 8), block, per_modality)
        oracle, seen = self._recording_oracle()
        for exhaustive in (False, True):
            seen.clear()
            cfg = MethodConfig(
                SaliencyMethod(explain.__name__), target_class=0, rng_seed=9,
                n_samples=n, exhaustive=exhaustive,
            )
            explain(self._volume(), oracle, cfg, grid)
            assert len({data.tobytes() for data in seen}) == len(seen)

    def test_shapley_sampling_on_two_segments(self):
        # 40 orderings of 2 segments: 81 rows, but only 4 coalitions
        calls = []

        def fn(data):
            calls.append(1)
            return float(np.clip(data.mean(), 0, 1))

        samples = [make_sample("s0", self._volume()), make_sample("s1", self._volume())]
        cfg = MethodConfig(SaliencyMethod.SHAPLEY_SAMPLING, block_shape=8, n_samples=40)
        generate_maps(samples, FunctionOracle(fn), cfg)
        assert len(calls) == 2 * (1 + 4)

    @pytest.mark.parametrize("target_class", [None, 1])
    def test_maps_equal_a_reference_that_evaluates_every_row(
        self, monkeypatch, target_class
    ):
        rng = np.random.default_rng(51)
        samples = [
            make_sample(f"s{i}", make_volume(rng, 2, (8, 8), low=0.1)) for i in range(2)
        ]
        oracle, seen = self._recording_oracle()

        def every_row(volumes, grid, rows, reduce):
            # plans that stream every row, repeats included
            def kept(volume, row):
                return volume.with_data(volume.data * row[grid.segment_ids])

            return [
                saliency._Plan(volume, rows, kept, lambda p: reduce(p)[grid.segment_ids])
                for volume in volumes
            ]

        configs = [
            MethodConfig(
                method, target_class=target_class, rng_seed=seed, block_shape=block,
                n_samples=40, exhaustive=exhaustive,
            )
            for method in (
                SaliencyMethod.FEATURE_ABLATION, SaliencyMethod.LIME,
                SaliencyMethod.SHAPLEY_SAMPLING, SaliencyMethod.KERNEL_SHAP,
            )
            for block in (4, 8)
            for exhaustive in (False, True)
            for seed in (0, 3)
        ]
        for cfg in configs:
            seen.clear()
            maps, _ = generate_maps(samples, oracle, cfg)
            memo_calls = len(seen)
            with monkeypatch.context() as patch:
                patch.setattr(saliency, "_segment_plans", every_row)
                reference, _ = generate_maps(samples, oracle, cfg)
            assert memo_calls <= len(seen) - memo_calls
            for sid, smap in maps.items():
                assert smap.data.dtype == reference[sid].data.dtype
                assert smap.data.tobytes() == reference[sid].data.tobytes()


class TestTargetClass:
    def test_negative_target_class_rejected(self):
        with pytest.raises(ValueError, match="target_class must be nonnegative"):
            MethodConfig(SaliencyMethod.LIME, target_class=-1)

    @pytest.mark.parametrize("method", list(SaliencyMethod))
    def test_class_the_oracle_lacks_is_a_value_error(self, method):
        rng = np.random.default_rng(52)
        samples = [
            make_sample(f"s{i}", make_volume(rng, 2, (8, 8), low=0.1)) for i in range(2)
        ]
        cfg = MethodConfig(
            method, target_class=2, window=4, stride=4, block_shape=4, n_samples=40
        )
        with pytest.raises(ValueError, match="target_class=2, but the oracle predicts 2"):
            generate_maps(samples, CONSTANT, cfg)


class TestMethodConfig:
    @pytest.mark.parametrize("field, value, match", [
        ("kernel_width", math.nan, "kernel_width must be positive, got nan"),
        ("kernel_width", 0.0, "kernel_width must be positive, got 0.0"),
        ("ridge_lambda", math.nan, "ridge_lambda must be finite and nonnegative, got nan"),
        ("ridge_lambda", math.inf, "ridge_lambda must be finite and nonnegative, got inf"),
        ("ridge_lambda", -1e-3, "ridge_lambda must be finite and nonnegative, got -0.001"),
    ])
    def test_bad_fit_params_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            MethodConfig(SaliencyMethod.LIME, **{field: value})

    def test_infinite_kernel_width_weighs_every_row_alike(self):
        vol = make_volume(np.random.default_rng(54), 2, (8, 8), low=0.1)
        oracle = FunctionOracle(lambda d: float(np.clip(d.mean(), 0, 1)))
        grid = build_grid(2, (8, 8), 4, per_modality=True)
        cfg = MethodConfig(
            SaliencyMethod.LIME, target_class=0, n_samples=40, kernel_width=math.inf
        )
        assert np.all(np.isfinite(lime(vol, oracle, cfg, grid).data))


# the grids of the keep-row masks: (n_modalities, dims, block_shape, per_modality);
# 64 with block 24 leaves ragged edge blocks
MASK_GRIDS = [
    (4, (64, 64), 24, True),
    (4, (64, 64), 24, False),
    (4, (64, 64), 8, True),
    (4, (48, 48), 16, False),
    (2, (7, 9, 5), (3, 4, 2), True),
    (2, (7, 9, 5), (3, 4, 2), False),
]


class TestRunLengthMasks:
    """Keep-row volumes against the gather they replace, np.take(row, ids)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_modalities, dims, block, per_modality", MASK_GRIDS)
    def test_masked_volumes_equal_the_gathered_product(
        self, n_modalities, dims, block, per_modality, dtype
    ):
        rng = np.random.default_rng(60)
        grid = build_grid(n_modalities, dims, block, per_modality)
        # negative voxels: a dropped one is -0.0 under both masks
        data = rng.uniform(-1.0, 1.0, size=(n_modalities, *dims)).astype(dtype)
        volumes = [MultiModalVolume(tuple(f"m{i}" for i in range(n_modalities)), data)]
        rows = rng.random((30, grid.n_segments)) < 0.5
        rows[10:20] = rows[:10]  # repeats are evaluated once
        [plan] = saliency._segment_plans(volumes, grid, rows, lambda p: p)
        distinct = list(dict.fromkeys(map(bytes, rows)))
        assert len(plan.items) == len(distinct)
        assert plan.items.dtype == bool and list(map(bytes, plan.items)) == distinct
        ids = grid.segment_ids.astype(np.intp)
        built = [plan.build(plan.volume, row) for row in plan.items]
        assert len(built) == len(distinct)
        for volume, row in zip(built, distinct):
            expected = data * np.take(np.frombuffer(row, dtype=bool), ids)
            assert volume.data.dtype == expected.dtype == dtype
            assert volume.data.tobytes() == expected.tobytes()
            assert volume.modality_names == volumes[0].modality_names
            assert volume.data.flags.c_contiguous and not volume.data.flags.writeable

    def test_segment_ids_in_any_order(self):
        # runs of a grid that is no block grid: ids scattered at random
        rng = np.random.default_rng(61)
        ids = rng.permutation(np.arange(2 * 6 * 5) % 7).reshape(2, 6, 5)
        grid = SegmentGrid(True, ids)
        volume = make_volume(rng, 2, (6, 5), low=-1.0)
        rows = rng.random((12, 7)) < 0.5
        [plan] = saliency._segment_plans([volume], grid, rows, lambda p: p)
        for item, row in zip(plan.items, dict.fromkeys(map(bytes, rows))):
            built = plan.build(volume, item)
            expected = volume.data * np.take(np.frombuffer(row, dtype=bool), ids)
            assert built.data.tobytes() == expected.tobytes()

    # a hand-made grid with per_modality=False is not checked to share its
    # ids: whether the mask covers one modality is read from the ids
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ids_shared", [True, False])
    def test_a_mask_of_the_dims_only_where_the_modalities_share_their_ids(
        self, monkeypatch, ids_shared, dtype
    ):
        rng = np.random.default_rng(62)
        spatial = rng.permutation(np.arange(6 * 5) % 5).reshape(6, 5)
        ids = np.stack([spatial, spatial if ids_shared else spatial.T[::-1].reshape(6, 5),
                        spatial])
        grid = SegmentGrid(False, ids)
        data = rng.uniform(-1.0, 1.0, size=(3, 6, 5)).astype(dtype)
        names = ("a", "b", "c")
        samples = [make_sample(f"s{i}", MultiModalVolume(names, d))
                   for i, d in enumerate([data, data[::-1]])]
        keeps = []

        class Recorded(MultiModalVolume):
            @classmethod
            def _masked(cls, volume, keep):
                keeps.append(keep.shape)
                return super()._masked(volume, keep)

        monkeypatch.setattr(saliency, "MultiModalVolume", Recorded)
        oracle = FunctionOracle(lambda d: 0.5 + 0.1 * np.tanh(d[0].sum() - 0.5 * d[1].sum()))
        cfg = MethodConfig(SaliencyMethod.KERNEL_SHAP, target_class=0, exhaustive=True)
        maps = generate_maps(samples, oracle, cfg, grid)[0]
        assert set(keeps) == {(6, 5) if ids_shared else (3, 6, 5)}
        # exact Shapley over the gathered products of every coalition
        rows = saliency.coalition_table(5, "segments")
        for s in samples:
            volume = s.volume
            values = np.array([oracle.predict(volume.with_data(
                volume.data * np.take(row, ids))).probs[0] for row in rows])
            expected = exact_shapley(values, 5)[grid.segment_ids]
            assert maps[s.record.sample_id].data.tobytes() == expected.tobytes()


def kernel_shap_weight_in_int64(k, size):
    """The weight as numpy int64 sizes computed it: exact while the product fits."""
    return (k - 1.0) / (math.comb(k, size) * size * (k - size))


class TestKernelShapWeights:
    def test_equal_to_the_int64_weights_while_those_fit(self):
        with np.errstate(over="raise"):
            for k in range(2, 57):
                for size in np.arange(1, k):
                    assert (saliency._kernel_shap_weight(k, size)
                            == kernel_shap_weight_in_int64(k, size)), (k, size)

    def test_64_segments_run_without_a_warning(self):
        vol = make_volume(np.random.default_rng(65), 2, (8, 8), low=0.2)
        grid = build_grid(2, (8, 8), 1, per_modality=False)  # K = 64
        oracle = FunctionOracle(lambda d: float(np.clip(d[0].mean() + d[1, :4].std(), 0, 1)))
        cfg = MethodConfig(SaliencyMethod.KERNEL_SHAP, target_class=0, rng_seed=1,
                           n_samples=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = kernel_shap(vol, oracle, cfg, grid).data
        phi_sum = sum(out[grid.segment_ids == k][0] for k in range(grid.n_segments))
        p_full = oracle.predict(vol).probs[0]
        p_empty = oracle.predict(vol.with_data(np.zeros_like(vol.data))).probs[0]
        assert phi_sum == pytest.approx(p_full - p_empty, abs=1e-6)

    def test_weights_that_overflow_a_float_fail_before_any_oracle_call(self):
        calls = []
        vol = make_volume(np.random.default_rng(66), 1, (32, 32))
        grid = build_grid(1, (32, 32), 1, per_modality=False)  # K = 1024
        oracle = FunctionOracle(lambda d: calls.append(1) or 0.5)
        cfg = MethodConfig(SaliencyMethod.KERNEL_SHAP, target_class=0, n_samples=1100)
        with pytest.raises(ValueError, match="K = 1024 segments overflow a float"):
            kernel_shap(vol, oracle, cfg, grid)
        assert calls == []


def test_no_method_imports_numpy_ma():
    """np.unique imports numpy.ma, about 12 ms in each fresh process; no
    saliency method, grid or plan needs it."""
    code = textwrap.dedent("""\
        import sys
        import numpy as np
        from mmsaliency.oracle import ShapeRuleClassifier
        from mmsaliency.saliency import MethodConfig, SaliencyMethod, generate_maps
        from mmsaliency.synthgen import SynthConfig, render_sample
        from mmsaliency.tensorio import LoadedSample, ManifestRecord

        print("numpy.ma" in sys.modules)
        samples = [
            LoadedSample(ManifestRecord(f"s{i}", i % 2, "unused"),
                         render_sample(SynthConfig(image_size=32, seed=2), i, i % 2)[0], None)
            for i in range(2)
        ]
        oracle = ShapeRuleClassifier((0.0, 1.0, 0.0, 1.0), intensity_threshold=0.35)
        for method in SaliencyMethod:
            for exhaustive in (False, True):
                cfg = MethodConfig(method, block_shape=32 if exhaustive else 16,
                                   n_samples=20, exhaustive=exhaustive)
                generate_maps(samples, oracle, cfg)
        print("numpy.ma" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    at_import, after = proc.stdout.split()
    if at_import == "True":
        pytest.skip("numpy before 2.0 imports numpy.ma with numpy itself")
    assert after == "False"
