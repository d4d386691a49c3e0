"""Procedural multi-modal synthetic tumor dataset with controllable label alignment.

Class 0 renders round tumors, class 1 irregular (lobed) tumors. Each modality
draws its own shape: aligned with the sample label with probability p_m, else
the opposite class's kind. Modality tumor centers are offset in distinct
directions so modality-specific features occupy distinct locations, and the
per-modality segmentation mask is exactly the rendered tumor support (the
rasterizer and the mask share one code path). Fully seed-reproducible; sample
RNG streams derive from (seed, sample index) so generation order never
matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .ablate import normalize_mi
from .tensorio import (
    DatasetManifest,
    ManifestRecord,
    MultiModalVolume,
    SegmentationMask,
    save_manifest,
    write_mask,
    write_volume,
)

DEFAULT_MODALITIES = ("T1", "T1C", "T2", "FLAIR")
ROUND = "round"
IRREGULAR = "irregular"
KIND_BY_CLASS = (ROUND, IRREGULAR)  # class 0 / class 1
CLASS_NAMES = ("LGG", "HGG")

_LABEL_STREAM = 2**31 - 1  # rng stream id for the label shuffle


@dataclass(frozen=True)
class SynthConfig:
    """Dataset settings; `alignment` holds one probability per DEFAULT_MODALITIES entry."""

    n_samples: int = 200
    image_size: int = 64
    alignment: tuple = (0.5, 1.0, 0.5, 0.7)
    background: str = "brain_texture"  # or "none"
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.image_size < 32:
            raise ValueError("image_size must be at least 32")
        if len(self.alignment) != len(DEFAULT_MODALITIES):
            raise ValueError("one alignment probability per modality")
        if any(not 0.0 <= p <= 1.0 for p in self.alignment):
            raise ValueError("alignment probabilities must lie in [0,1]")
        if self.background not in ("brain_texture", "none"):
            raise ValueError(f"unknown background {self.background!r}")
        object.__setattr__(self, "alignment", tuple(float(p) for p in self.alignment))


@dataclass(frozen=True)
class ShapeSpec:
    """The support of one tumor: a mildly elliptical disk or a lobed blob.

    It fixes where the tumor is, not its value; render_sample paints the
    support with an intensity drawn per modality.
    """

    kind: str
    center: tuple
    base_radius: float
    amplitude: float = 0.0
    lobes: int = 5
    phases: tuple = (0.0, 0.0)
    axis_ratio: float = 1.0
    rotation: float = 0.0

    def __post_init__(self):
        if self.kind not in (ROUND, IRREGULAR):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.kind == ROUND and self.amplitude != 0.0:
            raise ValueError("round shapes have zero irregularity amplitude")
        if not 0.0 <= self.amplitude <= 0.6:
            raise ValueError("amplitude must lie in [0, 0.6]")
        if not 3 <= self.lobes <= 8:
            raise ValueError("lobe count must lie in [3, 8]")
        if not 1.0 <= self.axis_ratio <= 1.2:
            raise ValueError("axis ratio must lie in [1, 1.2]")
        if self.base_radius <= 1.0:
            raise ValueError("base_radius must exceed 1 pixel")

    @property
    def max_radius(self):
        if self.kind == ROUND:
            return self.base_radius * math.sqrt(self.axis_ratio)
        return self.base_radius * (1.0 + self.amplitude)


def rasterize_shape(spec: ShapeSpec, size) -> np.ndarray:
    """Boolean (size, size) support of the shape; must fit inside the image."""
    cy, cx = spec.center
    margin = spec.max_radius
    if not (margin <= cy <= size - 1 - margin and margin <= cx <= size - 1 - margin):
        raise ValueError(
            f"shape at {spec.center} with reach {margin:.1f} exceeds {size}x{size} bounds"
        )
    yy, xx = np.indices((size, size), dtype=np.float64)
    dy, dx = yy - cy, xx - cx
    if spec.kind == ROUND:
        cos_t, sin_t = math.cos(spec.rotation), math.sin(spec.rotation)
        u = dx * cos_t + dy * sin_t
        v = -dx * sin_t + dy * cos_t
        a = spec.base_radius * math.sqrt(spec.axis_ratio)
        b = spec.base_radius / math.sqrt(spec.axis_ratio)
        return (u / a) ** 2 + (v / b) ** 2 <= 1.0
    theta = np.arctan2(dy, dx)
    wobble = _lobe_profile(theta, spec.lobes, spec.phases)
    radius = spec.base_radius * (1.0 + spec.amplitude * wobble)
    return np.hypot(dy, dx) <= radius


def _lobe_profile(theta, lobes, phases):
    """Sum of sinusoids at the lobe frequency and a higher harmonic, peak-normalized."""
    dense = np.linspace(0.0, 2.0 * np.pi, 1440, endpoint=False)
    raw = lambda t: np.sin(lobes * t + phases[0]) + 0.5 * np.sin((lobes + 2) * t + phases[1])
    norm = np.abs(raw(dense)).max()
    return raw(theta) / norm


def _modality_offsets(n_modalities, image_size):
    """Unit directions spread around the circle, scaled to ~0.11 * image size."""
    mag = 0.11 * image_size
    angles = [np.pi / 4 + 2 * np.pi * m / n_modalities for m in range(n_modalities)]
    return [(mag * math.sin(a), mag * math.cos(a)) for a in angles]


def _draw_shape(rng, kind, center, image_size):
    base_radius = rng.uniform(0.14, 0.19) * image_size
    # clamp so the lobes always fit inside the frame
    cy, cx = center
    room = min(cy, cx, image_size - 1 - cy, image_size - 1 - cx) - 1.0
    if kind == ROUND:
        ratio = rng.uniform(1.0, 1.2)
        base_radius = min(base_radius, room / math.sqrt(ratio))
        return ShapeSpec(
            kind=ROUND,
            center=center,
            base_radius=base_radius,
            axis_ratio=ratio,
            rotation=rng.uniform(0.0, math.pi),
        )
    amplitude = rng.uniform(0.45, 0.6)
    lobes = int(rng.integers(6, 9))
    phases = (rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi))
    base_radius = min(base_radius, room / (1.0 + amplitude))
    return ShapeSpec(
        kind=IRREGULAR,
        center=center,
        base_radius=base_radius,
        amplitude=amplitude,
        lobes=lobes,
        phases=phases,
    )


def _brain_texture(rng, size):
    """Smooth low-frequency texture inside a brain-like ellipse; cosmetic only."""
    # each term is separable: an outer product of a row and a column cosine
    y = x = np.arange(size, dtype=np.float64)
    cy = cx = (size - 1) / 2.0
    inside = np.add.outer(((y - cy) / (0.46 * size)) ** 2, ((x - cx) / (0.42 * size)) ** 2) <= 1.0
    tex = np.zeros((size, size))
    for _ in range(3):
        fy, fx = rng.uniform(0.5, 2.0, size=2) * 2 * np.pi / size
        py, px = rng.uniform(0.0, 2 * np.pi, size=2)
        tex += np.multiply.outer(np.cos(fy * y + py), np.cos(fx * x + px))
    tex = (tex - tex.min()) / (tex.max() - tex.min() + 1e-12)
    return np.where(inside, 0.08 + 0.10 * tex, 0.0)


def render_sample(cfg: SynthConfig, index, label):
    """Render one sample's volume and per-modality masks, deterministically."""
    rng = np.random.default_rng([cfg.seed, index])
    size = cfg.image_size
    n_mod = len(DEFAULT_MODALITIES)
    offsets = _modality_offsets(n_mod, size)
    data = np.zeros((n_mod, size, size))
    masks = np.zeros((n_mod, size, size))
    kinds = []
    for m in range(n_mod):
        aligned = rng.random() < cfg.alignment[m]
        kind = KIND_BY_CLASS[label] if aligned else KIND_BY_CLASS[1 - label]
        kinds.append(kind)
        jitter = rng.uniform(-2.0, 2.0, size=2)
        center = (
            (size - 1) / 2.0 + offsets[m][0] + jitter[0],
            (size - 1) / 2.0 + offsets[m][1] + jitter[1],
        )
        spec = _draw_shape(rng, kind, center, size)
        support = rasterize_shape(spec, size)
        intensity = rng.uniform(0.88, 1.0)
        if cfg.background == "brain_texture":
            data[m] = _brain_texture(rng, size)
        data[m][support] = intensity
        masks[m][support] = 1.0
    volume = MultiModalVolume(DEFAULT_MODALITIES, data)
    mask = SegmentationMask(DEFAULT_MODALITIES, masks)
    return volume, mask, kinds


def _draw_labels(cfg: SynthConfig):
    n0 = round(cfg.n_samples / 2)  # halves round to even: n = 1, 3, 5 give 0, 2, 2
    labels = np.array([0] * n0 + [1] * (cfg.n_samples - n0))
    rng = np.random.default_rng([cfg.seed, _LABEL_STREAM])
    return labels[rng.permutation(cfg.n_samples)]


def generate_dataset(cfg: SynthConfig, out_dir) -> DatasetManifest:
    """Write volumes, masks, and manifest.json under out_dir; returns the manifest.

    Labels are exactly balanced for even n_samples; per-modality shape kinds
    follow Bernoulli(alignment) per sample. Same config -> byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = _draw_labels(cfg)
    records = []
    for i in range(cfg.n_samples):
        sample_id = f"s{i:04d}"
        volume, mask, _ = render_sample(cfg, i, int(labels[i]))
        vol_path = out_dir / f"{sample_id}.mmv"
        mask_path = out_dir / f"{sample_id}_mask.mmv"
        write_volume(volume, vol_path)
        write_mask(mask, mask_path)
        records.append(
            ManifestRecord(sample_id, int(labels[i]), str(vol_path), str(mask_path))
        )
    manifest = DatasetManifest(tuple(records), CLASS_NAMES)
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest


def probe_alignment(which, modality_names):
    """Alignment vector for a probe: `which` is always right, its counterpart
    always wrong, everything else at chance."""
    which = which.upper()
    names = [n.upper() for n in modality_names]
    if which not in ("T1C", "FLAIR"):
        raise ValueError(f"probe must target T1C or FLAIR, got {which!r}")
    other = "FLAIR" if which == "T1C" else "T1C"
    if which not in names or other not in names:
        raise ValueError(f"modalities must include T1C and FLAIR, got {modality_names}")
    probs = [0.5] * len(names)
    probs[names.index(which)] = 1.0
    probs[names.index(other)] = 0.0
    return tuple(probs)


def generate_probe(cfg: SynthConfig, which, out_dir) -> DatasetManifest:
    """Tumor-only probe dataset: 100% alignment on `which`, 0% on its counterpart.

    Test accuracy on the two probes reads off how much a model relies on each
    of the two modalities.
    """
    probe_cfg = replace(
        cfg,
        background="none",
        alignment=probe_alignment(which, DEFAULT_MODALITIES),
    )
    return generate_dataset(probe_cfg, out_dir)


def probe_modality_importance(acc_t1c, acc_flair):
    """Ground-truth MI from probe accuracies, chance-adjusted and normalized.

    Of DEFAULT_MODALITIES, each probed one scores max(accuracy - 0.5, 0) and
    the others 0; the vector is then max-normalized.
    """
    raw = np.zeros(len(DEFAULT_MODALITIES))
    raw[DEFAULT_MODALITIES.index("T1C")] = max(float(acc_t1c) - 0.5, 0.0)
    raw[DEFAULT_MODALITIES.index("FLAIR")] = max(float(acc_flair) - 0.5, 0.0)
    return normalize_mi(raw)
