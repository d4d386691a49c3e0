import numpy as np
import pytest

from helpers import circularity_reference
from mmsaliency.oracle import ShapeRuleClassifier, accuracy
from mmsaliency.synthgen import (
    IRREGULAR,
    ROUND,
    ShapeSpec,
    SynthConfig,
    _brain_texture,
    _draw_labels,
    _draw_shape,
    generate_dataset,
    generate_probe,
    probe_alignment,
    probe_modality_importance,
    rasterize_shape,
    render_sample,
)
from mmsaliency.tensorio import load_dataset


class TestShapeSpec:
    def test_round_shapes_have_zero_amplitude(self):
        with pytest.raises(ValueError, match="amplitude"):
            ShapeSpec(ROUND, (32, 32), 10.0, amplitude=0.2)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            ShapeSpec(IRREGULAR, (32, 32), 10.0, amplitude=0.7)
        with pytest.raises(ValueError):
            ShapeSpec(IRREGULAR, (32, 32), 10.0, amplitude=0.5, lobes=2)
        with pytest.raises(ValueError):
            ShapeSpec(ROUND, (32, 32), 10.0, axis_ratio=1.5)
        with pytest.raises(ValueError):
            ShapeSpec("blob", (32, 32), 10.0)

    def test_shape_must_fit_inside_image(self):
        spec = ShapeSpec(ROUND, (5.0, 32.0), 10.0)
        with pytest.raises(ValueError, match="bounds"):
            rasterize_shape(spec, 64)

    def test_round_support_is_elliptical_disk(self):
        spec = ShapeSpec(ROUND, (32.0, 32.0), 10.0)
        support = rasterize_shape(spec, 64)
        yy, xx = np.indices((64, 64))
        expected = (yy - 32.0) ** 2 + (xx - 32.0) ** 2 <= 100.0
        assert np.array_equal(support, expected)


class TestCircularitySeparation:
    def test_round_vs_irregular_bands_1000_draws(self):
        from mmsaliency.oracle import circularity

        rng = np.random.default_rng(99)
        for i in range(1000):
            center = (32 + rng.uniform(-2, 2), 32 + rng.uniform(-2, 2))
            round_support = rasterize_shape(_draw_shape(rng, ROUND, center, 64), 64)
            irr_support = rasterize_shape(_draw_shape(rng, IRREGULAR, center, 64), 64)
            round_c = circularity(round_support)
            irr_c = circularity(irr_support)
            assert round_c >= 0.75
            assert irr_c <= 0.6
            if i < 50:  # the fast path agrees with the pixel-set reference
                assert round_c == pytest.approx(
                    circularity_reference(round_support), abs=1e-12
                )


class TestRenderSample:
    def test_mask_equals_rendered_tumor_support(self):
        cfg = SynthConfig(n_samples=1, seed=3)
        for label in (0, 1):
            volume, mask, kinds = render_sample(cfg, 0, label)
            assert len(kinds) == 4
            for m in range(4):
                support = volume.data[m] > 0.5  # texture stays below 0.2
                assert np.array_equal(mask.data[m] > 0.5, support)
                assert support.any()  # masks are never empty

    def test_modalities_have_distinct_tumor_locations(self):
        cfg = SynthConfig(n_samples=1, seed=4, background="none")
        volume, mask, _ = render_sample(cfg, 0, 0)
        centroids = []
        for m in range(4):
            ys, xs = np.nonzero(mask.data[m])
            centroids.append((ys.mean(), xs.mean()))
        dists = [
            np.hypot(a[0] - b[0], a[1] - b[1])
            for i, a in enumerate(centroids)
            for b in centroids[i + 1 :]
        ]
        assert min(dists) > 3.0

    def test_deterministic_per_index(self):
        cfg = SynthConfig(n_samples=5, seed=5)
        v1, m1, k1 = render_sample(cfg, 2, 1)
        v2, m2, k2 = render_sample(cfg, 2, 1)
        assert np.array_equal(v1.data, v2.data)
        assert np.array_equal(m1.data, m2.data)
        assert k1 == k2


class TestGenerateDataset:
    def test_exact_label_balance_and_alignment_counts(self, tmp_path):
        cfg = SynthConfig(n_samples=60, seed=6)
        manifest = generate_dataset(cfg, tmp_path / "d")
        labels = [r.label for r in manifest.records]
        assert labels.count(0) == 30 and labels.count(1) == 30

        t1c_match = flair_match = 0
        for i, rec in enumerate(manifest.records):
            _, _, kinds = render_sample(cfg, i, rec.label)
            expected_kind = (ROUND, IRREGULAR)[rec.label]
            t1c_match += kinds[1] == expected_kind
            flair_match += kinds[3] == expected_kind
        assert t1c_match == 60  # T1C alignment probability is 1.0
        assert 33 <= flair_match <= 51  # Binomial(60, 0.7), seeded draw

    @pytest.mark.parametrize("n, class0", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 2)])
    def test_half_the_labels_are_class0_rounded_half_to_even(self, n, class0):
        labels = _draw_labels(SynthConfig(n_samples=n, seed=12))
        assert len(labels) == n
        assert list(labels).count(0) == class0

    def test_default_config_counts_at_full_scale(self, tmp_path):
        cfg = SynthConfig()  # n=200, alignment (0.5, 1.0, 0.5, 0.7)
        manifest = generate_dataset(cfg, tmp_path / "full")
        labels = [r.label for r in manifest.records]
        assert labels.count(0) == 100 and labels.count(1) == 100
        t1c = flair = 0
        for i, rec in enumerate(manifest.records):
            _, _, kinds = render_sample(cfg, i, rec.label)
            expected_kind = (ROUND, IRREGULAR)[rec.label]
            t1c += kinds[1] == expected_kind
            flair += kinds[3] == expected_kind
        assert t1c == 200
        assert 120 <= flair <= 160  # ~140 expected from Binomial(200, 0.7)

    def test_all_aligned_when_probability_one(self, tmp_path):
        cfg = SynthConfig(n_samples=10, seed=7, alignment=(1.0, 1.0, 1.0, 1.0))
        manifest = generate_dataset(cfg, tmp_path / "d")
        for i, rec in enumerate(manifest.records):
            _, _, kinds = render_sample(cfg, i, rec.label)
            assert all(k == (ROUND, IRREGULAR)[rec.label] for k in kinds)

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = SynthConfig(n_samples=6, seed=8)
        generate_dataset(cfg, tmp_path / "a")
        generate_dataset(cfg, tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_loadable_and_well_formed(self, tmp_path):
        cfg = SynthConfig(n_samples=4, seed=9)
        manifest = generate_dataset(cfg, tmp_path / "d")
        samples = load_dataset(manifest)
        assert len(samples) == 4
        for s in samples:
            assert s.volume.data.shape == (4, 64, 64)
            assert s.mask is not None and s.mask.data.any()


class TestProbes:
    def test_probe_alignment_vectors(self):
        names = ("T1", "T1C", "T2", "FLAIR")
        assert probe_alignment("t1c", names) == (0.5, 1.0, 0.5, 0.0)
        assert probe_alignment("flair", names) == (0.5, 0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            probe_alignment("t2", names)

    def test_probes_have_no_background(self, tmp_path):
        cfg = SynthConfig(n_samples=4, seed=10)
        manifest = generate_probe(cfg, "t1c", tmp_path / "p")
        for s in load_dataset(manifest):
            outside = s.volume.data[s.mask.data < 0.5]
            assert np.all(outside == 0.0)

    def test_t1c_attending_classifier_reads_off_probe_accuracies(self, tmp_path):
        cfg = SynthConfig(n_samples=40, seed=11)
        t1c = load_dataset(generate_probe(cfg, "t1c", tmp_path / "t1c"))
        flair = load_dataset(generate_probe(cfg, "flair", tmp_path / "flair"))
        clf = ShapeRuleClassifier(
            (0.0, 1.0, 0.0, 0.0),
            intensity_threshold=0.35,
            circularity_cutoff=0.7,
            softness=0.08,
        )
        acc_t1c = accuracy(t1c, clf)
        acc_flair = accuracy(flair, clf)
        assert acc_t1c >= 0.95
        assert acc_flair <= 0.05

    def test_probe_mi_derivation(self):
        mi = probe_modality_importance(0.99, 0.0)
        assert mi == pytest.approx([0.0, 1.0, 0.0, 0.0])
        mi = probe_modality_importance(1.0, 0.75)
        assert mi == pytest.approx([0.0, 1.0, 0.0, 0.5])


class TestConfigValidation:
    def test_alignment_length_and_range(self):
        with pytest.raises(ValueError):
            SynthConfig(alignment=(0.5, 1.0))
        with pytest.raises(ValueError):
            SynthConfig(alignment=(0.5, 1.0, 0.5, 1.2))
        with pytest.raises(ValueError):
            SynthConfig(n_samples=0)
        with pytest.raises(ValueError):
            SynthConfig(background="stars")


def brain_texture_2d(rng, size):
    """The background texture from full 2-D index grids, one cosine product per term."""
    yy, xx = np.indices((size, size), dtype=np.float64)
    cy = cx = (size - 1) / 2.0
    inside = ((yy - cy) / (0.46 * size)) ** 2 + ((xx - cx) / (0.42 * size)) ** 2 <= 1.0
    tex = np.zeros((size, size))
    for _ in range(3):
        fy, fx = rng.uniform(0.5, 2.0, size=2) * 2 * np.pi / size
        py, px = rng.uniform(0.0, 2 * np.pi, size=2)
        tex += np.cos(fy * yy + py) * np.cos(fx * xx + px)
    tex = (tex - tex.min()) / (tex.max() - tex.min() + 1e-12)
    return np.where(inside, 0.08 + 0.10 * tex, 0.0)


@pytest.mark.parametrize("size", [32, 33, 47, 48, 64, 97, 128])
def test_separable_texture_equals_the_2d_one(size):
    for seed in range(40):
        rngs = np.random.default_rng([seed, size]), np.random.default_rng([seed, size])
        expected = brain_texture_2d(rngs[0], size)
        assert _brain_texture(rngs[1], size).tobytes() == expected.tobytes()
        # both drew the same numbers
        assert rngs[0].random() == rngs[1].random()
