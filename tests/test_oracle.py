import ast
import math
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    REPO,
    FixedOracle,
    FunctionOracle,
    boundary_count_reference,
    circularity_reference,
    make_sample,
    make_volume,
    src_env,
)
from mmsaliency import oracle, tensorio
from mmsaliency.ablate import AblationPolicy, AblationVariant, coalition_performance, shapley_mi
from mmsaliency.oracle import (
    ClassProbabilities,
    ExternalCommandOracle,
    ShapeRuleClassifier,
    accuracy,
    boundary_count,
    circularity,
    largest_component,
    predict_all,
    predict_shape_rule,
)
from mmsaliency.saliency import MethodConfig, SaliencyMethod, build_grid, generate_maps
from mmsaliency.synthgen import (
    ShapeSpec,
    SynthConfig,
    generate_dataset,
    rasterize_shape,
    render_sample,
)
from mmsaliency.tensorio import DatasetView, MultiModalVolume, load_dataset, load_manifest


def disk_volume(radius, size=64, weighted_modality=0, n_modalities=2):
    yy, xx = np.indices((size, size))
    c = (size - 1) / 2.0
    disk = (yy - c) ** 2 + (xx - c) ** 2 <= radius**2
    data = np.zeros((n_modalities, size, size))
    data[weighted_modality][disk] = 1.0
    names = tuple(f"mod{i}" for i in range(n_modalities))
    return MultiModalVolume(names, data), disk


class TestClassProbabilities:
    def test_simplex_enforced(self):
        with pytest.raises(ValueError):
            ClassProbabilities((0.5, 0.3))
        with pytest.raises(ValueError):
            ClassProbabilities((1.2, -0.2))
        for bad in ((np.nan, np.nan), (np.nan, 1.0), (np.inf, 0.0), (-np.inf, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                ClassProbabilities(bad)
        cp = ClassProbabilities((0.25, 0.75))
        assert cp.argmax == 1

    def test_argmax_tie_breaks_low(self):
        assert ClassProbabilities((0.5, 0.5)).argmax == 0


class TestCircularity:
    def test_matches_pixel_count_reference_on_disk(self):
        _, disk = disk_volume(12)
        c = circularity(disk)
        assert c == pytest.approx(circularity_reference(disk), abs=1e-12)
        # boundary-count perimeter of a digitized disk undercounts the
        # continuous circumference, so c lands well above 4*pi*A/(2*pi*r)^2
        assert c > 1.0

    def test_matches_reference_on_random_blobs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            field = rng.random((12, 12)) > 0.55
            field[0, 0] = True
            comp = field  # reference handles any pixel set
            assert circularity(comp) == pytest.approx(
                circularity_reference(comp), abs=1e-12
            )

    def test_boundary_counts_image_edge_as_background(self):
        comp = np.ones((3, 3), dtype=bool)
        assert boundary_count(comp) == 8  # center pixel has all 4 neighbors inside

    @pytest.mark.parametrize(
        "shape", [(12, 12), (1, 9), (9, 1), (1, 1), (7, 9, 5), (1, 6, 6), (4, 4, 4)]
    )
    def test_boundary_count_matches_pad_and_roll_formula(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + sum(shape))
        for density in (0.2, 0.5, 0.8, 1.0):
            for _ in range(25):
                field = rng.random(shape) < density  # 1.0 fills every edge
                component = largest_component(field)
                for comp in (field, component):
                    if comp is not None:
                        assert boundary_count(comp) == boundary_count_reference(comp)

    def test_boundary_count_3d_component_touching_every_face(self):
        # a solid 3x3x3 core with one bar along each axis from face to face
        comp = np.zeros((7, 9, 5), dtype=bool)
        comp[2:5, 3:6, 1:4] = True
        comp[:, 4, 2] = comp[3, :, 2] = comp[3, 4, :] = True
        assert np.array_equal(largest_component(comp), comp)
        # 39 voxels; the core's centre and its six face centres are interior
        assert boundary_count(comp) == boundary_count_reference(comp) == 32

    def test_3d_sphericity_from_direct_counts(self):
        yy, xx, zz = np.indices((24, 24, 24))
        ball = (yy - 12) ** 2 + (xx - 12) ** 2 + (zz - 12) ** 2 <= 8**2
        volume = int(ball.sum())
        surface = boundary_count(ball)
        expected = np.pi ** (1 / 3) * (6 * volume) ** (2 / 3) / surface
        assert circularity(ball) == pytest.approx(expected, abs=1e-12)
        # a flat slab of the same voxel count is far less spherical
        slab = np.zeros((24, 24, 24), dtype=bool)
        slab[11:13, :, :] = True
        assert circularity(ball) > circularity(slab)

    def test_3d_classifier_runs_end_to_end(self):
        data = np.zeros((2, 16, 16, 16))
        yy, xx, zz = np.indices((16, 16, 16))
        ball = (yy - 8) ** 2 + (xx - 8) ** 2 + (zz - 8) ** 2 <= 5**2
        data[0][ball] = 1.0
        vol = MultiModalVolume(("a", "b"), data)
        cfg = ShapeRuleClassifier((1.0, 0.0), circularity_cutoff=0.7, softness=0.1)
        probs = predict_shape_rule(cfg, vol)
        assert probs.probs[0] > 0.5  # a ball reads as the round class


def ndimage_largest(field):
    """Largest face-connected component by `scipy.ndimage.label`; None if empty."""
    ndimage = pytest.importorskip("scipy.ndimage", exc_type=ImportError)
    labels, n = ndimage.label(field)
    if n == 0:
        return None
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    return labels == sizes.argmax()


def assert_same_component(field):
    expected = ndimage_largest(field)
    got = largest_component(field)
    if expected is None:
        assert got is None
    else:
        assert got.shape == field.shape and got.dtype == bool
        assert np.array_equal(got, expected)


@pytest.fixture(params=["loop", "rounds"])
def union_path(request, monkeypatch):
    """Resolve every field's joins with the Python loop, or with the vectorized rounds."""
    monkeypatch.setattr(oracle, "_LOOP_MAX_JOINS", 2**62 if request.param == "loop" else 0)
    return request.param


def spiral(size):
    """A one-pixel-wide square spiral walked in from the top-left corner: a
    single component whose runs are numbered far out of order along it."""
    field = np.zeros((size, size), dtype=bool)
    y, x, dy, dx = 0, 0, 0, 1
    field[0, 0] = True

    def on(yy, xx):
        return 0 <= yy < size and 0 <= xx < size and field[yy, xx]

    for _ in range(2 * size):
        # step while the next pixel is inside and the one after it is not taken
        while (0 <= y + dy < size and 0 <= x + dx < size
               and not on(y + 2 * dy, x + 2 * dx)):
            y, x = y + dy, x + dx
            field[y, x] = True
        dy, dx = dx, -dy
    return field


class TestUnion:
    def test_loop_and_rounds_give_the_same_roots(self):
        rng = np.random.default_rng(5)
        for n, n_joins in ((1, 0), (5, 3), (40, 30), (300, 250), (2000, 2500), (5000, 1200)):
            for _ in range(5):
                lo = rng.integers(1, n + 1, size=n_joins)
                hi = rng.integers(1, n + 1, size=n_joins)
                roots = oracle._union_loop(n, lo, hi)
                assert np.array_equal(oracle._union_rounds(n, lo, hi), roots)
                # every run points at the lowest run of its component
                assert (roots <= np.arange(n + 1)).all()
                assert (roots[lo] == roots[hi]).all()
                assert (roots[roots] == roots).all()

    def test_rounds_on_a_long_chain_in_shuffled_order(self):
        rng = np.random.default_rng(6)
        order = rng.permutation(np.arange(1, 3001))
        roots = oracle._union_rounds(3000, order[:-1], order[1:])
        assert np.array_equal(roots, np.r_[0, np.ones(3000, dtype=int)])


@pytest.mark.usefixtures("union_path")
class TestLargestComponent:
    @pytest.mark.parametrize(
        "shape",
        [(40, 40), (64, 64), (17, 23), (9, 11, 7), (18, 20, 16), (4, 5, 6, 7), (3, 1, 8, 5)],
    )
    def test_matches_ndimage_on_random_fields(self, shape):
        rng = np.random.default_rng(sum(shape))
        for density in (0.1, 0.3, 0.5, 0.6, 0.8):
            for _ in range(8):
                assert_same_component(rng.random(shape) < density)

    @pytest.mark.parametrize(
        "shape", [(1,), (9,), (1, 1), (1, 12), (12, 1), (1, 1, 10), (10, 1, 1), (1, 7, 1)]
    )
    def test_matches_ndimage_on_one_wide_axes(self, shape):
        rng = np.random.default_rng(len(shape) * 31 + max(shape))
        for density in (0.3, 0.6, 0.9):
            for _ in range(10):
                assert_same_component(rng.random(shape) < density)

    @pytest.mark.parametrize("shape", [(5,), (6, 7), (3, 4, 5), (2, 3, 2, 3)])
    def test_empty_and_full_fields(self, shape):
        assert largest_component(np.zeros(shape, dtype=bool)) is None
        full = np.ones(shape, dtype=bool)
        assert np.array_equal(largest_component(full), full)
        assert_same_component(full)

    def test_equal_sizes_go_to_the_first_in_raster_order(self):
        # two 2x2 squares: the top-right one comes first in raster order,
        # the bottom-left one first in column order
        field = np.zeros((8, 8), dtype=bool)
        field[1:3, 5:7] = True
        field[5:7, 0:2] = True
        expected = np.zeros_like(field)
        expected[1:3, 5:7] = True
        assert np.array_equal(largest_component(field), expected)
        assert_same_component(field)
        # a U whose arms are separate runs down to its bottom row, tied with a
        # bar below it that reaches further left
        field = np.zeros((6, 9), dtype=bool)
        field[0:3, 2] = field[0:3, 4] = field[2, 2:5] = True  # 7 pixels
        field[4, 0:7] = True  # 7 pixels
        assert np.count_nonzero(largest_component(field)[0:3]) == 7
        assert_same_component(field)
        # equal-size 3D blobs, one per plane
        field = np.zeros((3, 4, 4), dtype=bool)
        field[2, 0, 0:3] = field[0, 3, 1:4] = True
        assert np.array_equal(np.nonzero(largest_component(field))[0], [0, 0, 0])
        assert_same_component(field)

    def test_spiral_is_one_component(self):
        for size in (5, 12, 61):
            field = spiral(size)
            assert np.array_equal(largest_component(field), field)
            assert_same_component(field | np.eye(size, dtype=bool)[::-1])

    def test_matches_ndimage_on_many_equal_blobs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            field = np.zeros((24, 24), dtype=bool)
            for y, x in rng.integers(0, 22, size=(6, 2)):
                field[y:y + 2, x:x + 2] = True
            assert_same_component(field)


def predict_shape_rule_reference(cfg, volume):
    """The shape rule with `scipy.ndimage.label` and the pad-and-roll boundary count."""
    w = np.asarray(cfg.modality_weights, dtype=np.float64)
    data = volume.data.astype(np.float64)
    combined = np.dot(w[None], data.reshape(len(w), -1)).reshape(data.shape[1:]) / w.sum()
    component = ndimage_largest(combined > cfg.intensity_threshold)
    if component is None:
        return (0.5, 0.5)
    area = int(np.count_nonzero(component))
    perim = boundary_count_reference(component)
    if component.ndim == 2:
        c = 4.0 * np.pi * area / perim**2
    else:
        c = np.pi ** (1.0 / 3.0) * (6.0 * area) ** (2.0 / 3.0) / perim
    p_round = float(1.0 / (1.0 + np.exp(-(c - cfg.circularity_cutoff) / cfg.softness)))
    return (p_round, 1.0 - p_round)


def block_dropped(rng, volume, block):
    """The volume with each modality's blocks kept or zeroed at random."""
    m, *dims = volume.data.shape
    keep = rng.random((m, *(-(-d // block) for d in dims))) < 0.6
    for axis, d in enumerate(dims, start=1):
        keep = np.repeat(keep, block, axis=axis)[(slice(None),) * axis + (slice(0, d),)]
    return volume.with_data(volume.data * keep)


@pytest.mark.usefixtures("union_path")
class TestShapeRuleMatchesNdimage:
    def test_perturbed_2d_volumes(self):
        cfg = ShapeRuleClassifier((0.0, 1.0, 0.0, 1.0), intensity_threshold=0.35,
                                  circularity_cutoff=0.7, softness=0.08)
        synth = SynthConfig(n_samples=6, image_size=48, seed=4, background="brain_texture")
        rng = np.random.default_rng(8)
        for index in range(6):
            volume = render_sample(synth, index, index % 2)[0]
            for block in (6, 12, 16):
                for _ in range(6):
                    perturbed = block_dropped(rng, volume, block)
                    assert (predict_shape_rule(cfg, perturbed).probs
                            == predict_shape_rule_reference(cfg, perturbed))

    def test_perturbed_3d_volumes(self):
        cfg = ShapeRuleClassifier((1.0, 0.5), intensity_threshold=0.4)
        rng = np.random.default_rng(9)
        zz, yy, xx = np.indices((14, 16, 12))
        for _ in range(10):
            c = rng.uniform(4, 10, size=3)
            ball = (zz - c[0]) ** 2 + (yy - c[1]) ** 2 + (xx - c[2]) ** 2 <= rng.uniform(9, 30)
            data = np.stack([ball * rng.uniform(0.5, 1.0, ball.shape),
                             rng.uniform(0, 0.9, ball.shape)])
            volume = MultiModalVolume(("a", "b"), data)
            for block in (3, 5):
                perturbed = block_dropped(rng, volume, block)
                assert (predict_shape_rule(cfg, perturbed).probs
                        == predict_shape_rule_reference(cfg, perturbed))


class ReferenceShapeRule:
    """The shape rule through predict_shape_rule_reference: scipy labeling, no memo."""

    def __init__(self, cfg):
        self.cfg = cfg

    def predict(self, volume):
        return ClassProbabilities(predict_shape_rule_reference(self.cfg, volume))


class Counting:
    """Counts the predict calls it passes on, as the benchmark's oracle proxy does."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def predict(self, volume):
        self.calls += 1
        return self.inner.predict(volume)


MEMO_CFG = ShapeRuleClassifier((0.0, 1.0, 0.0, 1.0), intensity_threshold=0.35,
                               circularity_cutoff=0.7, softness=0.08)


def memo_samples():
    """Three 32x32 synthetic samples; the classifier reads only two of their
    four modalities, so many perturbations leave the foreground as it was."""
    synth = SynthConfig(n_samples=3, image_size=32, seed=5)
    return [make_sample(f"s{i}", *render_sample(synth, i, i % 2)[:2], label=i % 2)
            for i in range(3)]


@pytest.fixture
def labelings(monkeypatch):
    """The number of foregrounds the shape rule has labeled so far, as a one-item list."""
    count = [0]
    label = oracle._shape_rule_probs

    def counted(cfg, fg):
        count[0] += 1
        return label(cfg, fg)

    monkeypatch.setattr(oracle, "_shape_rule_probs", counted)
    return count


class TestForegroundMemo:
    @pytest.mark.parametrize("method", list(SaliencyMethod))
    def test_maps_equal_the_reference_oracle(self, method, labelings):
        samples = memo_samples()
        cfg = MethodConfig(method, rng_seed=3, window=8, stride=8, block_shape=16,
                           n_samples=24)
        expected, log = generate_maps(samples, ReferenceShapeRule(MEMO_CFG), cfg)
        classifier = replace(MEMO_CFG)
        for _ in range(2):  # the second pass finds its foregrounds in the memo
            got, got_log = generate_maps(samples, classifier, cfg)
            assert list(got) == list(expected)
            for sid, smap in got.items():
                assert smap.data.dtype == expected[sid].data.dtype
                assert np.array_equal(smap.data, expected[sid].data)
            assert got_log["oracle_evals"] == log["oracle_evals"]
        # each distinct foreground was labeled once over both passes
        assert labelings[0] == len(classifier._memo) <= sum(log["oracle_evals"].values())

    @pytest.mark.parametrize("variant", list(AblationVariant))
    def test_modality_importance_equals_the_reference_oracle(self, variant):
        samples = memo_samples()
        policy = AblationPolicy(variant, rng_seed=2)
        expected = shapley_mi(samples, ReferenceShapeRule(MEMO_CFG), policy)
        assert shapley_mi(samples, replace(MEMO_CFG), policy) == expected

    def test_a_counting_proxy_sees_every_call(self, labelings):
        # oracle_evals counts calls, not labelings
        samples = memo_samples()
        cfg = MethodConfig(SaliencyMethod.FEATURE_ABLATION, block_shape=8)
        classifier = replace(MEMO_CFG)
        calls = []
        for oracle_ in (ReferenceShapeRule(MEMO_CFG), classifier, classifier):
            counting = Counting(oracle_)
            log = generate_maps(samples, counting, cfg)[1]
            assert counting.calls == sum(log["oracle_evals"].values())
            calls.append(counting.calls)
        assert calls == [3 * (1 + 1 + 4 * 16)] * 3
        assert labelings[0] == len(classifier._memo) < calls[0]

    def test_a_hit_returns_the_prediction_of_a_fresh_miss(self, labelings):
        volume = memo_samples()[0].volume
        classifier = replace(MEMO_CFG)
        first = classifier.predict(volume)
        # zeroing a modality of weight 0 leaves the foreground as it was
        data = volume.data.copy()
        data[0] = 0.0
        same_foreground = volume.with_data(data)
        hit = classifier.predict(same_foreground)
        assert labelings[0] == 1
        fresh = replace(MEMO_CFG).predict(same_foreground)
        assert labelings[0] == 2
        assert hit == fresh == first
        assert fresh.probs == predict_shape_rule_reference(MEMO_CFG, same_foreground)
        # built from the remembered probability without the checks, as the
        # checked constructor would build it
        assert type(hit) is ClassProbabilities and hit == ClassProbabilities(hit.probs)
        assert [type(p) for p in hit.probs] == [float, float]

    @pytest.mark.parametrize("change", [{"intensity_threshold": 0.6}, {"softness": 0.3}])
    def test_classifiers_differing_in_one_setting_share_no_entry(self, change):
        volume = memo_samples()[0].volume
        first = replace(MEMO_CFG)
        other = replace(first, **change)
        first.predict(volume)
        assert other._memo is not first._memo and not other._memo
        assert other.predict(volume).probs == predict_shape_rule_reference(other, volume)
        assert other.predict(volume) != first.predict(volume)
        assert first.predict(volume).probs == predict_shape_rule_reference(first, volume)

    def test_equality_hash_and_repr_ignore_the_memo(self):
        used, fresh = replace(MEMO_CFG), replace(MEMO_CFG)
        used.predict(memo_samples()[0].volume)
        assert used._memo and not fresh._memo
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) and "memo" not in repr(used)
        assert not replace(used)._memo

    def test_counted_bytes_stay_within_the_bound(self, monkeypatch):
        # a bound of 128 KiB keeps the fields below few and one 1025x1024
        # field larger than it
        monkeypatch.setattr(oracle, "MEMO_BYTES", 128 << 10)
        entry = oracle.MEMO_ENTRY_BYTES
        classifier = ShapeRuleClassifier((1.0,))
        memo = classifier._memo

        def predict_dot(dims, index):
            data = np.zeros((1, *dims), dtype=np.float32)
            data.reshape(-1)[index] = 1.0
            classifier.predict(MultiModalVolume(("a",), data))
            counted = [len(bits) + entry for bits in memo]
            assert memo.nbytes == sum(counted)
            assert memo.nbytes <= oracle.MEMO_BYTES or len(memo) == 1
            # the newest entry is the last one
            assert list(memo)[-1] == np.packbits(data[0] > 0).tobytes()

        for index in range(300):
            predict_dot((64, 64), index)
        assert len(memo) == oracle.MEMO_BYTES // (64 * 64 // 8 + entry) < 300
        for index in range(500):
            predict_dot((48, 48), index)
        assert len(memo) == oracle.MEMO_BYTES // (48 * 48 // 8 + entry) < 500
        big = (1025, 1024)  # 131200 packed bytes, more than the bound
        assert big[0] * big[1] // 8 + entry > oracle.MEMO_BYTES
        predict_dot(big, 0)
        assert len(memo) == 1
        predict_dot((64, 64), 0)
        assert len(memo) == 1
        predict_dot((64, 64), 1)
        assert len(memo) == 2

    def test_a_hit_makes_its_entry_the_newest(self, monkeypatch):
        # room for three 8x8 entries: after a hit on the oldest, the next
        # new field evicts the second oldest instead
        per_entry = 8 * 8 // 8 + oracle.MEMO_ENTRY_BYTES
        monkeypatch.setattr(oracle, "MEMO_BYTES", 3 * per_entry)
        classifier = ShapeRuleClassifier((1.0,))
        volumes, keys = [], []
        for index in range(4):
            data = np.zeros((1, 8, 8), dtype=np.float32)
            data.reshape(-1)[index] = 1.0
            volumes.append(MultiModalVolume(("a",), data))
            keys.append(np.packbits(data[0] > 0).tobytes())
        for volume in volumes[:3] + volumes[:1]:
            classifier.predict(volume)
        assert list(classifier._memo) == [keys[1], keys[2], keys[0]]
        classifier.predict(volumes[3])
        assert list(classifier._memo) == [keys[2], keys[0], keys[3]]
        assert classifier._memo.nbytes == 3 * per_entry

    @pytest.mark.parametrize("side", [8, 64])
    def test_small_fields_are_counted_at_their_memory(self, side):
        # an entry costs more than its key, so tiny fields may not fill the
        # memo with many times the entries that large fields do
        classifier = ShapeRuleClassifier((1.0,))
        per_entry = side * side // 8 + oracle.MEMO_ENTRY_BYTES
        most = oracle.MEMO_BYTES // per_entry
        rng = np.random.default_rng(side)
        fields = set()
        while len(fields) <= most + 100:
            data = (rng.random((1, side, side)) < 0.5).astype(np.float32)
            fields.add(data.tobytes())
            classifier.predict(MultiModalVolume(("a",), data))
        assert len(classifier._memo) == most
        assert classifier._memo.nbytes == most * per_entry <= oracle.MEMO_BYTES

    def test_a_second_pass_labels_nothing(self, labelings, tmp_path):
        # the shapley-accuracy workload's set-up and passes: 12 samples at
        # 48x48, one K = 9 grid for all modalities, exhaustive kernel_shap,
        # then both estimators at 128 evaluations per sample
        generate_dataset(SynthConfig(n_samples=12, image_size=48, seed=1), tmp_path)
        samples = load_dataset(load_manifest(tmp_path / "manifest.json"))
        grid = build_grid(4, (48, 48), 16, per_modality=False)
        assert grid.n_segments == 9
        configs = [
            MethodConfig(SaliencyMethod.KERNEL_SHAP, exhaustive=True),
            MethodConfig(SaliencyMethod.SHAPLEY_SAMPLING, rng_seed=1, n_samples=126 // 9),
            MethodConfig(SaliencyMethod.KERNEL_SHAP, rng_seed=1, n_samples=125),
        ]
        expected = [generate_maps(samples, replace(MEMO_CFG), cfg, grid)[0] for cfg in configs]
        classifier = replace(MEMO_CFG)
        before = labelings[0]
        for i, cfg in enumerate(configs + configs):
            got = generate_maps(samples, classifier, cfg, grid)[0]
            if i == 0:
                labeled = labelings[0]
                assert labeled - before == len(classifier._memo)
            assert labelings[0] == labeled
            want = expected[i % len(configs)]
            assert list(got) == list(want)
            assert all(np.array_equal(got[sid].data, want[sid].data) for sid in got)

    def test_the_exhaustive_set_up_at_its_most_distinct_seed_fits(self, labelings, tmp_path):
        # the shapley-accuracy set-up at seed 5, whose exhaustive K = 9 pass
        # meets 1844 distinct foregrounds, the most of seeds 1-8: a second
        # pass finds every one of them in the memo
        generate_dataset(SynthConfig(n_samples=12, image_size=48, seed=5), tmp_path)
        samples = load_dataset(load_manifest(tmp_path / "manifest.json"))
        grid = build_grid(4, (48, 48), 16, per_modality=False)
        cfg = MethodConfig(SaliencyMethod.KERNEL_SHAP, exhaustive=True)
        classifier = replace(MEMO_CFG)
        first = generate_maps(samples, classifier, cfg, grid)[0]
        assert labelings[0] == len(classifier._memo) == 1844
        again = generate_maps(samples, classifier, cfg, grid)[0]
        assert labelings[0] == 1844
        assert all(np.array_equal(again[sid].data, first[sid].data) for sid in first)

    def test_the_budget_holds_the_workloads_foregrounds(self):
        # shapley-accuracy meets at most 1844 distinct 48x48 foregrounds over
        # seeds 1-8; the budget keeps room for the 2880 the memo held before
        assert oracle.MEMO_BYTES // (48 * 48 // 8 + oracle.MEMO_ENTRY_BYTES) >= 2880

    @pytest.mark.parametrize("side", [48, 64])
    def test_an_entry_costs_about_its_counted_bytes(self, side):
        # tracemalloc bytes of a memo filled to its budget and then churned by
        # new fields and hits, less the same memo emptied, per entry and
        # beyond its packed bits: within 20% of MEMO_ENTRY_BYTES
        memo = oracle._ForegroundMemo()
        shape = (1, side, side)
        rng = np.random.default_rng(side)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            most = oracle.MEMO_BYTES // (side * side // 8 + oracle.MEMO_ENTRY_BYTES)
            for i in range(3 * most):
                memo.add(shape, np.packbits(rng.random(side * side) < 0.5).tobytes(),
                         float(rng.random()))
                if i % 2:  # a hit on the oldest entry
                    assert memo.get(shape, next(iter(memo))) is not None
            assert len(memo) == most
            full = tracemalloc.get_traced_memory()[0]
            memo._entries.clear()
            emptied = tracemalloc.get_traced_memory()[0]
        finally:
            if not tracing:
                tracemalloc.stop()
        beyond_bits = (full - emptied) / most - side * side // 8
        assert 0.8 * oracle.MEMO_ENTRY_BYTES <= beyond_bits <= 1.2 * oracle.MEMO_ENTRY_BYTES

    def test_a_field_of_another_shape_empties_the_memo(self, labelings):
        # 8x8 and 4x16 fields of the same pixels pack to the same bits
        classifier = ShapeRuleClassifier((1.0,))
        data = np.zeros((1, 8, 8), dtype=np.float32)
        data[0, 2:6, 1:7] = 1.0
        volumes = [MultiModalVolume(("a",), d) for d in (data, data.reshape(1, 4, 16), data)]
        expected = [replace(classifier).predict(v) for v in volumes]  # each from a new memo
        assert expected[0] != expected[1]
        labelings[0] = 0
        for volume, want in zip(volumes, expected):
            assert classifier.predict(volume) == want
            assert len(classifier._memo) == 1
            assert classifier._memo.nbytes == 8 + oracle.MEMO_ENTRY_BYTES
        assert labelings[0] == 3


class TestSetUpOnce:
    """The classifier's weight row, made once, against the weights it holds."""

    def test_weights_are_held_as_a_read_only_float64_row(self):
        classifier = ShapeRuleClassifier((1, 2, 0))
        assert classifier._weight_row.dtype == np.float64
        assert classifier._weight_row.tolist() == [[1.0, 2.0, 0.0]]
        assert not classifier._weight_row.flags.writeable
        assert classifier._cut == oracle._threshold_cut(0.5, 3.0)
        # the cut too, as a 0-d array
        assert classifier._cut.shape == () and not classifier._cut.flags.writeable

    def test_equality_hash_and_repr_ignore_the_row(self):
        a, b = ShapeRuleClassifier((1, 2)), ShapeRuleClassifier((1.0, 2.0))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "_weight_row" not in repr(a) and "_cut=" not in repr(a)
        assert a != ShapeRuleClassifier((2.0, 1.0))

    def test_equality_hash_and_repr_ignore_the_cut(self):
        a, b = ShapeRuleClassifier((1.0, 2.0)), ShapeRuleClassifier((1.0, 2.0))
        object.__setattr__(b, "_cut", math.nextafter(a._cut, math.inf))
        assert a._cut != b._cut
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_replace_makes_the_row_anew(self):
        volume = memo_samples()[0].volume
        other = replace(MEMO_CFG, modality_weights=(1.0, 0.5, 0.0, 2.0))
        assert other._weight_row.tolist() == [[1.0, 0.5, 0.0, 2.0]]
        assert other._cut == oracle._threshold_cut(0.35, 3.5)
        fresh = ShapeRuleClassifier((1.0, 0.5, 0.0, 2.0), intensity_threshold=0.35,
                                    circularity_cutoff=0.7, softness=0.08)
        assert other.predict(volume) == fresh.predict(volume)
        assert other.predict(volume).probs == predict_shape_rule_reference(other, volume)


def random_classifiers(seed, n):
    """n classifiers of 1-5 random weights (some zero) over six decades, and
    random thresholds with a subnormal one and the largest below 1 among them."""
    rng = np.random.default_rng(seed)
    specials = [1e-310, 5e-324, 1.0 - 2.0**-53, 0.5]
    out = []
    for i in range(n):
        w = rng.uniform(0.0, 1.0, rng.integers(1, 6)) * 10.0 ** rng.uniform(-3, 3)
        w[rng.random(w.size) < 0.2] = 0.0
        w[0] = max(w[0], 1e-3)  # not all zero
        t = specials[i % len(specials)] if i % 3 == 0 else float(rng.uniform(0.0, 1.0))
        out.append(ShapeRuleClassifier(tuple(w), intensity_threshold=t))
    return out


def division_form(cfg, data):
    """The thresholded field as the quotient by the weight sum gives it."""
    w = cfg._weight_row
    d = data.astype(np.float64)
    combined = np.dot(w, d.reshape(w.shape[1], -1)).reshape(d.shape[1:]) / w.sum()
    return combined > cfg.intensity_threshold


class TestThresholdCut:
    """The classifier thresholds the weighted sum against a cut made once,
    in place of dividing it by the weight sum."""

    def test_the_cut_and_the_float_above_it_fall_on_the_two_sides(self):
        for cfg in random_classifiers(70, 400):
            s, t, cut = float(cfg._weight_row.sum()), cfg.intensity_threshold, cfg._cut
            assert 0.0 <= cut < math.inf
            assert not cut / s > t, (cfg, cut)
            assert math.nextafter(cut, math.inf) / s > t, (cfg, cut)

    def test_an_infinite_weight_sum_puts_the_cut_at_infinity(self):
        # every quotient by inf is 0 or NaN, never above the threshold
        assert oracle._threshold_cut(0.35, math.inf) == math.inf

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("weights", [(1e308, 1e308), (1.7e308, 0.0, 1.7e308, 1.0)])
    def test_weights_whose_sum_overflows_are_rejected(self, weights):
        # such a classifier would give every volume (0.5, 0.5)
        with pytest.raises(ValueError, match=r"weights must have a finite sum: \(1(\.7)?e\+308"):
            ShapeRuleClassifier(weights)
        assert ShapeRuleClassifier((1.7e308, 0.0)).modality_weights == (1.7e308, 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dims", [(6, 7), (3, 4, 5)])
    def test_fields_at_the_cut_equal_the_division_form(self, dims, dtype):
        rng = np.random.default_rng(71)
        for cfg in random_classifiers(72, 60):
            m = len(cfg.modality_weights)
            w = np.asarray(cfg.modality_weights)
            cfg = replace(cfg, modality_weights=(1.0, *w[1:]))
            # the floats of the volume's dtype nearest the cut, three each side
            near = [dtype(cfg._cut)]
            for _ in range(3):
                near = [np.nextafter(near[0], dtype(-np.inf)), *near,
                        np.nextafter(near[-1], dtype(np.inf))]
            # the first modality holds them; the others are zero where they
            # have a weight, so the weighted sum is the first modality times
            # its weight, 1, and random where they have none
            data = np.zeros((m, *dims), dtype=dtype)
            data[0] = rng.choice(np.array(near, dtype=dtype), size=dims)
            data[1:][w[1:] == 0] = rng.uniform(-1.0, 2.0, size=dims)
            volume = MultiModalVolume(tuple(f"m{i}" for i in range(m)), data)
            expected = division_form(cfg, data)
            probs = predict_shape_rule(cfg, volume)
            assert list(cfg._memo)[-1] == np.packbits(expected).tobytes()
            p_round = oracle._shape_rule_probs(cfg, expected)
            assert probs == ClassProbabilities((p_round, 1.0 - p_round))
            if dtype is np.float64:
                assert expected.any() and not expected.all()  # the cut lies inside


class TestShapeRuleClassifier:
    def test_disk_classified_round(self):
        vol, disk = disk_volume(12)
        cfg = ShapeRuleClassifier((1.0, 0.0), circularity_cutoff=0.7, softness=0.1)
        probs = predict_shape_rule(cfg, vol)
        assert probs.probs[0] > 0.5
        # logistic of the independently counted circularity, exactly
        c_ref = circularity_reference(disk)
        expected = 1.0 / (1.0 + np.exp(-(c_ref - 0.7) / 0.1))
        assert probs.probs[0] == pytest.approx(expected, abs=1e-12)

    def test_star_classified_irregular(self):
        spec = ShapeSpec(
            "irregular", (32.0, 32.0), 12.0, amplitude=0.5, lobes=6, phases=(0.3, 1.1)
        )
        support = rasterize_shape(spec, 64)
        assert circularity_reference(support) < 0.5
        data = np.zeros((2, 64, 64))
        data[0][support] = 1.0
        vol = MultiModalVolume(("a", "b"), data)
        cfg = ShapeRuleClassifier((1.0, 0.0), circularity_cutoff=0.7, softness=0.1)
        assert predict_shape_rule(cfg, vol).probs[1] > 0.5

    def test_all_zero_volume_is_uniform(self):
        vol = MultiModalVolume(("a", "b"), np.zeros((2, 8, 8)))
        cfg = ShapeRuleClassifier((1.0, 1.0))
        assert predict_shape_rule(cfg, vol).probs == (0.5, 0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_sign_of_a_zero_does_not_change_a_prediction(self, dtype):
        # the cut is at least 0, so both -0.0 > cut and +0.0 > cut are false
        rng = np.random.default_rng(2)
        for cfg in random_classifiers(74, 40):
            names = tuple(f"m{i}" for i in range(len(cfg.modality_weights)))
            data = rng.standard_normal((len(names), 10, 9)).astype(dtype)
            keep = rng.random(data.shape) < 0.5
            # dropped by a product, a negative voxel becomes -0.0
            product = MultiModalVolume(names, data * keep)
            plus = MultiModalVolume(names, np.where(keep, data, 0.0))
            assert np.signbit(product.data).sum() > np.signbit(plus.data).sum()
            assert predict_shape_rule(cfg, product) == predict_shape_rule(cfg, plus)
            signed = MultiModalVolume(names, data * 0)
            assert np.signbit(signed.data).any()
            zeros = MultiModalVolume(names, np.zeros(data.shape, dtype))
            assert predict_shape_rule(cfg, signed).probs == (0.5, 0.5)
            assert predict_shape_rule(cfg, zeros).probs == (0.5, 0.5)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        vol = make_volume(rng, 3, (16, 16))
        cfg = ShapeRuleClassifier((0.2, 1.0, 0.4), intensity_threshold=0.6)
        a = predict_shape_rule(cfg, vol)
        b = predict_shape_rule(cfg, vol)
        assert a.probs == b.probs

    def test_raising_cutoff_never_raises_p_round(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            vol = make_volume(rng, 2, (16, 16))
            last = 1.0
            for cutoff in (0.2, 0.4, 0.6, 0.8):
                cfg = ShapeRuleClassifier((1.0, 0.5), circularity_cutoff=cutoff)
                p = predict_shape_rule(cfg, vol).probs[0]
                assert p <= last + 1e-12
                last = p

    def test_largest_component_only(self):
        data = np.zeros((1, 32, 32))
        data[0, 2:20, 2:20] = 1.0  # large square
        data[0, 25, 25] = 1.0  # stray pixel
        vol = MultiModalVolume(("a",), data)
        cfg = ShapeRuleClassifier((1.0,))
        square = np.zeros((32, 32), dtype=bool)
        square[2:20, 2:20] = True
        expected_c = circularity_reference(square)
        p = predict_shape_rule(cfg, vol).probs[0]
        assert p == pytest.approx(
            1.0 / (1.0 + np.exp(-(expected_c - 0.7) / 0.1)), abs=1e-12
        )

    def test_weight_count_must_match(self):
        vol = MultiModalVolume(("a", "b"), np.zeros((2, 4, 4)))
        with pytest.raises(ValueError, match="weights"):
            predict_shape_rule(ShapeRuleClassifier((1.0,)), vol)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShapeRuleClassifier((0.0, 0.0))
        with pytest.raises(ValueError):
            ShapeRuleClassifier((1.0,), intensity_threshold=1.5)
        with pytest.raises(ValueError):
            ShapeRuleClassifier((1.0,), softness=0.0)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: ClassProbabilities((1.0,)), "need at least two classes", id="one-class"),
    pytest.param(lambda: circularity(np.zeros((3, 3), dtype=bool)), "empty component",
                 id="empty-component"),
    pytest.param(lambda: ShapeRuleClassifier((1.0, -1.0)),
                 re.escape("weights must be finite and nonnegative: (1.0, -1.0)"),
                 id="negative-weight"),
    pytest.param(lambda: ShapeRuleClassifier((1.0,), circularity_cutoff=1.0),
                 re.escape("circularity_cutoff must lie in (0,1)"), id="cutoff"),
])
def test_bad_arguments_raise_their_message(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class OneHotOracle:
    """Returns the true label's one-hot, looked up by volume content."""

    def __init__(self, labels_by_data):
        self.labels = labels_by_data

    def predict_batch(self, volumes):
        labels = [self.labels[volume.data.tobytes()] for volume in volumes]
        return [ClassProbabilities((1.0 - label, float(label))) for label in labels]


class TestAccuracy:
    def _samples(self, labels):
        rng = np.random.default_rng(2)
        return [
            make_sample(f"s{i}", make_volume(rng, 1, (2, 2)), label=lab)
            for i, lab in enumerate(labels)
        ]

    def test_one_hot_oracle_scores_one(self):
        samples = self._samples([0, 1, 1, 0])
        oracle = OneHotOracle({s.volume.data.tobytes(): s.record.label for s in samples})
        assert accuracy(samples, oracle) == 1.0

    def test_uniform_oracle_tie_breaks_to_class_zero(self):
        from helpers import FixedOracle

        samples = self._samples([1, 1, 1])
        assert accuracy(samples, FixedOracle((0.5, 0.5))) == 0.0
        samples = self._samples([0, 0, 1])
        assert accuracy(samples, FixedOracle((0.5, 0.5))) == pytest.approx(2 / 3)

    def test_empty_dataset_rejected(self):
        from helpers import FixedOracle

        with pytest.raises(ValueError, match="empty"):
            accuracy([], FixedOracle((0.5, 0.5)))


def _write_stub(tmp_path, body):
    script = tmp_path / "stub.py"
    script.write_text(
        textwrap.dedent(
            """\
            import csv, json, sys
            from pathlib import Path

            input_dir = Path(sys.argv[1])
            output_csv = sys.argv[2]
            manifest = json.loads((input_dir / "manifest.json").read_text())
            ids = [r["sample_id"] for r in manifest["records"]]
            """
        )
        + textwrap.dedent(body)
    )
    return f"{sys.executable} {script} {{input_dir}} {{output_csv}}"


GOOD_BODY = """\
with open(output_csv, "w", newline="") as fp:
    w = csv.writer(fp, lineterminator="\\n")
    w.writerow(["sample_id", "p0", "p1"])
    for sid in ids:
        w.writerow([sid, 0.25, 0.75])
"""


class TestExternalOracle:
    def _predict(self, cmd, n=3):
        volumes = [MultiModalVolume(("a",), np.full((1, 2, 2), float(i))) for i in range(n)]
        return ExternalCommandOracle(cmd).predict_batch(volumes)

    def test_stub_predicts_batch(self, tmp_path):
        preds = self._predict(_write_stub(tmp_path, GOOD_BODY))
        assert [p.probs for p in preds] == [(0.25, 0.75)] * 3

    def test_missing_sample_named_in_error(self, tmp_path):
        cmd = _write_stub(
            tmp_path,
            """\
            with open(output_csv, "w", newline="") as fp:
                w = csv.writer(fp, lineterminator="\\n")
                w.writerow(["sample_id", "p0", "p1"])
                for sid in ids:
                    if sid != "1":
                        w.writerow([sid, 0.25, 0.75])
            """,
        )
        with pytest.raises(RuntimeError, match=r"missing predictions for \['1'\]"):
            self._predict(cmd)

    def test_simplex_violation_rejected(self, tmp_path):
        cmd = _write_stub(
            tmp_path,
            """\
            with open(output_csv, "w", newline="") as fp:
                w = csv.writer(fp, lineterminator="\\n")
                w.writerow(["sample_id", "p0", "p1"])
                for sid in ids:
                    w.writerow([sid, 0.5, 0.3])
            """,
        )
        with pytest.raises(RuntimeError, match="sum"):
            self._predict(cmd)

    def test_nonzero_exit_is_fatal(self, tmp_path):
        cmd = _write_stub(tmp_path, "sys.exit(3)\n")
        with pytest.raises(RuntimeError, match="exited with 3"):
            self._predict(cmd)

    def test_output_that_is_not_utf8_keeps_the_exit_code(self, tmp_path):
        cmd = _write_stub(tmp_path, 'sys.stderr.buffer.write(b"bad \\xff byte")\nsys.exit(3)\n')
        with pytest.raises(RuntimeError, match="exited with 3: bad \ufffd byte"):
            self._predict(cmd)

    def test_output_csv_that_is_not_utf8_names_the_file_and_line(self, tmp_path):
        cmd = _write_stub(
            tmp_path,
            """\
            with open(output_csv, "wb") as fp:
                fp.write(b"sample_id,p0,p1\\n0,0.25,0.75\\n\\xff1,0.25,0.75\\n")
            """,
        )
        message = r"predictions\.csv: line 3: 'utf-8' codec can't decode byte 0xff"
        with pytest.raises(RuntimeError, match=message):
            self._predict(cmd, n=2)

    def test_duplicate_sample_rows_rejected(self, tmp_path):
        cmd = _write_stub(
            tmp_path,
            """\
            with open(output_csv, "w", newline="") as fp:
                w = csv.writer(fp, lineterminator="\\n")
                w.writerow(["sample_id", "p0", "p1"])
                for sid in ids + ["1"]:
                    w.writerow([sid, 0.25, 0.75])
            """,
        )
        with pytest.raises(RuntimeError, match="duplicate predictions for 1"):
            self._predict(cmd)

    def test_rows_for_samples_not_in_the_batch_rejected(self, tmp_path):
        cmd = _write_stub(
            tmp_path,
            """\
            with open(output_csv, "w", newline="") as fp:
                w = csv.writer(fp, lineterminator="\\n")
                w.writerow(["sample_id", "p0", "p1"])
                for sid in ids + ["7", "not-a-sample"]:
                    w.writerow([sid, 0.25, 0.75])
            """,
        )
        with pytest.raises(
            RuntimeError, match=re.escape("not in the batch: ['7', 'not-a-sample']")
        ):
            self._predict(cmd, n=2)

    def test_batch_manifest_carries_the_class_names(self, tmp_path):
        cmd = _write_stub(
            tmp_path,
            """\
            with open(output_csv, "w", newline="") as fp:
                w = csv.writer(fp, lineterminator="\\n")
                assert manifest["class_names"] == ["round", "irregular", "other"]
                w.writerow(["sample_id", "p0", "p1", "p2"])
                for sid in ids:
                    w.writerow([sid, 0.5, 0.25, 0.25])
            """,
        )
        oracle = ExternalCommandOracle(cmd, ("round", "irregular", "other"))
        volume = MultiModalVolume(("a",), np.zeros((1, 2, 2)))
        assert oracle.predict(volume).probs == (0.5, 0.25, 0.25)

    def test_probability_columns_must_match_the_classes(self, tmp_path):
        cmd = _write_stub(
            tmp_path,
            """\
            with open(output_csv, "w", newline="") as fp:
                w = csv.writer(fp, lineterminator="\\n")
                w.writerow(["sample_id", "p0", "p1", "p2"])
                for sid in ids:
                    w.writerow([sid, 0.5, 0.25, 0.25])
            """,
        )
        expected = "expected ['sample_id', 'p0', 'p1']"
        with pytest.raises(RuntimeError, match=re.escape(expected)):
            self._predict(cmd)
        with pytest.raises(ValueError, match="two class names"):
            ExternalCommandOracle(cmd, ("only",))

    def test_no_output_csv_is_fatal(self, tmp_path):
        # the scorer exits 0 and writes nothing
        with pytest.raises(RuntimeError, match="external oracle produced no output CSV"):
            self._predict(_write_stub(tmp_path, "pass\n"))

    @pytest.mark.parametrize("header", ["id,p0,p1\n", "p0,p1\n", "", "sample_id,p1,p0\n",
                                        "\n\n"])
    def test_wrong_or_empty_header_rejected(self, tmp_path, header):
        cmd = _write_stub(tmp_path, f"open(output_csv, 'w').write({header!r})\n")
        # the reader's header error: "unexpected header [...], expected [...]",
        # or "empty file, expected header [...]"
        expected = r"predictions\.csv: .*header.*" + re.escape("['sample_id', 'p0', 'p1']")
        with pytest.raises(RuntimeError, match=expected):
            self._predict(cmd)

    def test_ragged_row_rejected(self, tmp_path):
        cmd = _write_stub(
            tmp_path,
            """\
            with open(output_csv, "w", newline="") as fp:
                w = csv.writer(fp, lineterminator="\\n")
                w.writerow(["sample_id", "p0", "p1"])
                for sid in ids:
                    w.writerow([sid, 0.25, 0.75] if sid != "1" else [sid, 0.25])
            """,
        )
        expected = "line 3: row ['1', '0.25'] does not have the columns"
        with pytest.raises(RuntimeError, match=re.escape(expected)):
            self._predict(cmd)

    def test_blank_rows_are_skipped(self, tmp_path):
        cmd = _write_stub(
            tmp_path,
            """\
            with open(output_csv, "w", newline="") as fp:
                fp.write("sample_id,p0,p1\\n\\n")
                for sid in ids:
                    fp.write(f"{sid},0.25,0.75\\n\\n")
            """,
        )
        assert [p.probs for p in self._predict(cmd)] == [(0.25, 0.75)] * 3

    def test_a_field_the_csv_module_rejects_is_a_runtime_error(self, tmp_path):
        # csv's default field limit is 131072 characters
        cmd = _write_stub(
            tmp_path,
            """\
            with open(output_csv, "w", newline="") as fp:
                fp.write("sample_id,p0,p1\\n" + "x" * 200_000 + ",0.25,0.75\\n")
            """,
        )
        message = r"predictions\.csv: line 2: field larger than field limit"
        with pytest.raises(RuntimeError, match=message):
            self._predict(cmd)

    def test_batches_land_under_tmpdir(self, tmp_path, monkeypatch):
        # the stub notes its input directory, which is <TMPDIR>/<batch>/input
        note = 'open(input_dir.parents[1] / "seen.txt", "a").write(f"{input_dir}\\n")\n'
        cmd = _write_stub(tmp_path, note + GOOD_BODY)
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        monkeypatch.setenv("TMPDIR", str(tmpdir))
        monkeypatch.setattr(tempfile, "tempdir", None)  # so TMPDIR is read again
        self._predict(cmd)
        self._predict(cmd)
        seen = (tmpdir / "seen.txt").read_text().splitlines()
        assert len(seen) == 2
        assert all(Path(d).parents[1] == tmpdir for d in seen)
        assert [p.name for p in tmpdir.iterdir()] == ["seen.txt"]  # each batch removed

    def test_template_placeholders_required(self):
        with pytest.raises(ValueError, match="placeholder|input_dir"):
            ExternalCommandOracle("scorer --fast")

    @pytest.mark.parametrize("template, text", [
        ("s.py {input_dir} {output_csv} {x}", "fields: {input_dir} {output_csv} {x};"),
        ("s.py {input_dir} {output_csv} {}", "fields: {} {input_dir} {output_csv};"),
        ("s.py {input_dir} {output_csv} {0}", "fields: {0} {input_dir} {output_csv};"),
        ("s.py {input_dir} {output_csv}.{input_dir.name}",
         "fields: {input_dir} {input_dir.name} {output_csv};"),
        ("s.py {{input_dir}} {output_csv}", "fields: {output_csv};"),
        ("s.py {input_dir} {input_dir}", "fields: {input_dir};"),
        ("s.py", "fields: none;"),
    ])
    def test_template_fields_checked_when_built(self, template, text):
        with pytest.raises(ValueError, match=re.escape(f"command template {text}")):
            ExternalCommandOracle(template)

    @pytest.mark.parametrize("template, text", [
        ("s.py } {input_dir} {output_csv}", "Single '}' encountered"),
        ("s.py '{input_dir} {output_csv}", "No closing quotation"),
    ])
    def test_malformed_template_rejected_when_built(self, template, text):
        with pytest.raises(ValueError, match=re.escape(text)):
            ExternalCommandOracle(template)

    def test_doubled_braces_are_literal(self, tmp_path):
        check = 'assert sys.argv[3:] == ["{x}", "a{}b"], sys.argv\n'
        cmd = _write_stub(tmp_path, check + GOOD_BODY) + " {{x}} a{{}}b"
        assert [p.probs for p in self._predict(cmd)] == [(0.25, 0.75)] * 3


def test_the_package_does_not_import_subprocess():
    """Only ExternalCommandOracle spawns, and it imports subprocess, tempfile,
    shlex and string where it uses them: a run on the built-in oracle does
    not load subprocess (about 0.6 MB with shlex and string)."""
    code = textwrap.dedent("""\
        import sys
        import numpy
        print("subprocess" in sys.modules)
        import mmsaliency
        import mmsaliency.cli
        print("subprocess" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    with_numpy, with_package = proc.stdout.split()
    if with_numpy == "True":
        pytest.skip("this numpy imports subprocess with numpy itself")
    assert with_package == "False"


def test_accuracy_and_predict_all_read_a_view_once(tmp_path, monkeypatch):
    manifest = generate_dataset(SynthConfig(n_samples=4, image_size=32, seed=2), tmp_path)
    clf = ShapeRuleClassifier((0.0, 1.0, 0.0, 1.0), intensity_threshold=0.35)
    listed = load_dataset(manifest)
    reads = []
    read_volume = tensorio.read_volume
    monkeypatch.setattr(tensorio, "read_volume", lambda path: reads.append(path) or read_volume(path))
    assert accuracy(DatasetView(manifest), clf) == accuracy(listed, clf)
    assert len(reads) == 4
    assert predict_all(DatasetView(manifest), clf) == predict_all(listed, clf)
    assert len(reads) == 8


@pytest.mark.parametrize("call", [accuracy, predict_all])
def test_accuracy_and_predict_all_hold_one_volume_over_a_view(tmp_path, monkeypatch, call):
    manifest = generate_dataset(SynthConfig(n_samples=4, image_size=32, seed=2), tmp_path)
    clf = ShapeRuleClassifier((0.0, 1.0, 0.0, 1.0), intensity_threshold=0.35)
    expected = call(load_dataset(manifest), clf)
    # the volumes the view reads, counted while alive; seen gets the count at
    # each read, the new volume included, and at each prediction
    live, seen = [], []
    read_volume = tensorio.read_volume

    def counted(path):
        volume = read_volume(path)
        live.append(token := object())
        weakref.finalize(volume, live.remove, token)
        seen.append(len(live))
        return volume

    class Counting:
        def predict(self, volume):
            seen.append(len(live))
            return clf.predict(volume)

    def no_mask(*args):
        raise AssertionError("a mask was read")

    monkeypatch.setattr(tensorio, "read_volume", counted)
    monkeypatch.setattr(tensorio, "read_mask", no_mask)
    assert call(DatasetView(manifest), Counting()) == expected
    assert len(seen) == 8 and set(seen) == {1}
    assert live == []


def labelled_samples(labels):
    rng = np.random.default_rng(7)
    return [make_sample(f"s{i}", make_volume(rng, 2, (4, 4)), label=label)
            for i, label in enumerate(labels)]


def test_accuracy_and_predict_all_are_plans_of_the_one_stream(monkeypatch):
    samples = labelled_samples([0, 1, 1])
    clf = FunctionOracle(lambda d: float(d.mean()))
    expected = accuracy(samples, clf), predict_all(samples, clf)
    counts = []
    evaluate = oracle._evaluate

    def recording(plans, oracle_):
        for reduced, n_evals in evaluate(plans, oracle_):
            counts.append(n_evals)
            yield reduced, n_evals

    monkeypatch.setattr(oracle, "_evaluate", recording)
    assert (accuracy(samples, clf), predict_all(samples, clf)) == expected
    assert counts == [1] * 6


def test_predict_volumes_is_called_only_by_evaluate():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in (REPO / "src" / "mmsaliency").glob("*.py")]
    callers = [fn.name for tree in trees for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
               if isinstance(node, ast.Call)
               and "predict_volumes" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert callers == ["_evaluate"]


ZERO = AblationPolicy(AblationVariant.ZERO_WHOLE_MODALITY)


@pytest.mark.parametrize("call", [
    accuracy,
    lambda data, oracle_: shapley_mi(data, oracle_, ZERO),
    lambda data, oracle_: coalition_performance(data, oracle_, np.array([True, False]), ZERO),
], ids=["accuracy", "shapley_mi", "coalition_performance"])
def test_a_label_the_oracle_does_not_predict_names_the_sample(call):
    samples = labelled_samples([1, 0, 2])
    with pytest.raises(ValueError, match=re.escape("sample s2: label=2, but the oracle "
                                                   "predicts 2 classes")):
        call(samples, FixedOracle((0.4, 0.6)))
