"""Modality-coalition ablation and the exact Shapley modality-importance engine.

Coalition values come from a prediction oracle's accuracy over a dataset with
the complementary modalities ablated. With M modalities there are 2^M
coalitions; each is evaluated once and reused for every player's marginals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .oracle import _iter_samples, predict_volumes
from .tensorio import MultiModalVolume

# players of an exact 2^n coalition table: modalities or saliency segments
MAX_EXACT_PLAYERS = 12


def _check_exact_players(n_players, unit):
    if n_players > MAX_EXACT_PLAYERS:
        raise ValueError(
            f"{n_players} {unit} would need {1 << n_players} coalition evaluations; "
            f"exact enumeration is capped at {MAX_EXACT_PLAYERS}"
        )


@dataclass(frozen=True)
class Coalition:
    """Canonically sorted subset of modality indices; empty and full are valid."""

    members: tuple

    def __post_init__(self):
        members = tuple(sorted(int(m) for m in self.members))
        if any(m < 0 for m in members):
            raise ValueError(f"negative modality index in {members}")
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate modality index in {members}")
        object.__setattr__(self, "members", members)

    @classmethod
    def full(cls, n_modalities):
        return cls(tuple(range(n_modalities)))

    @classmethod
    def empty(cls):
        return cls(())

    @classmethod
    def from_mask(cls, mask, n_modalities):
        return cls(tuple(m for m in range(n_modalities) if mask >> m & 1))

    def __contains__(self, m):
        return m in self.members

    def __len__(self):
        return len(self.members)


class AblationVariant(Enum):
    ZERO_WHOLE_MODALITY = "zero"
    NONLESION_SAMPLE_WHOLE_MODALITY = "nonlesion"
    ZERO_FEATURE_REGION = "feature"


@dataclass(frozen=True)
class AblationPolicy:
    """How excluded modalities are replaced; the seed only feeds the sampler."""

    variant: AblationVariant
    rng_seed: int = 0

    @property
    def needs_mask(self):
        return self.variant in (
            AblationVariant.NONLESION_SAMPLE_WHOLE_MODALITY,
            AblationVariant.ZERO_FEATURE_REGION,
        )

    @property
    def mi_variant(self):
        """Importance tag: 'feat' when only the feature region is ablated."""
        return "feat" if self.variant is AblationVariant.ZERO_FEATURE_REGION else "mod"


def apply_ablation(volume, keep: Coalition, policy: AblationPolicy, mask=None):
    """Return a volume with every modality outside `keep` ablated.

    Zero policies are idempotent; the sampling policy draws i.i.d. with
    replacement from the non-lesion pool of the same modality, seeded, so the
    result is a pure function of its arguments.
    """
    if policy.needs_mask and mask is None:
        raise ValueError(f"policy {policy.variant.value!r} requires a mask")
    if not policy.needs_mask and mask is not None:
        mask = None
    if any(m >= volume.n_modalities for m in keep.members):
        raise ValueError(
            f"coalition {keep.members} exceeds {volume.n_modalities} modalities"
        )
    if mask is not None and mask.data.shape != volume.data.shape:
        raise ValueError("mask shape does not match volume shape")

    ablated = set(range(volume.n_modalities)) - set(keep.members)
    if not ablated:
        return volume
    data = volume.data.copy()
    rng = np.random.default_rng(policy.rng_seed)
    for m in sorted(ablated):
        if policy.variant is AblationVariant.ZERO_WHOLE_MODALITY:
            data[m] = 0.0
        elif policy.variant is AblationVariant.ZERO_FEATURE_REGION:
            data[m][mask.data[m] > 0.5] = 0.0
        else:
            pool = volume.data[m][mask.data[m] <= 0.5]
            if pool.size == 0:
                raise ValueError(
                    f"modality {m}: non-lesion sampling pool is empty "
                    "(mask covers the whole modality)"
                )
            draws = rng.integers(0, pool.size, size=data[m].shape)
            data[m] = pool[draws]
    return MultiModalVolume(volume.modality_names, data)


def coalition_performance(data, oracle, keep: Coalition, policy):
    """Oracle accuracy with each sample ablated down to the kept coalition."""
    samples = _iter_samples(data)
    return _coalition_accuracies(samples, oracle, [keep], policy)[0]


def _coalition_accuracies(samples, oracle, coalitions, policy):
    """Accuracy per coalition; every ablated volume goes through one stream."""
    ablated = (
        apply_ablation(s.volume, keep, policy, s.mask)
        for keep in coalitions
        for s in samples
    )
    preds = predict_volumes(oracle, ablated)
    accuracies = []
    for _ in coalitions:
        hits = sum(next(preds).argmax == s.record.label for s in samples)
        accuracies.append(hits / len(samples))
    return accuracies


def exact_shapley(values, n_players):
    """Exact Shapley vector from a full coalition-value table.

    `values[mask]` is v(c) for the coalition whose bitmask is `mask`
    (bit m set = player m present); the table has 2^n entries.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (1 << n_players,):
        raise ValueError(
            f"need {1 << n_players} coalition values, got {values.shape}"
        )
    # weight by coalition size: |c|! (n-|c|-1)! / n!
    weight = np.array(
        [
            math.factorial(s) * math.factorial(n_players - s - 1)
            / math.factorial(n_players)
            for s in range(n_players)
        ]
    )
    phi = np.zeros(n_players)
    for mask in range(1 << n_players):
        size = int(mask).bit_count()
        for m in range(n_players):
            if mask >> m & 1:
                continue
            phi[m] += weight[size] * (values[mask | (1 << m)] - values[mask])
    return phi


@dataclass(frozen=True)
class ModalityImportance:
    """Shapley importance per modality plus its [0,1]-normalized form."""

    phi: tuple
    normalized: tuple
    variant: str
    modality_names: tuple = ()

    @classmethod
    def from_phi(cls, phi, variant, modality_names=()):
        phi = tuple(float(v) for v in phi)
        return cls(phi, tuple(normalize_mi(phi).tolist()), variant, tuple(modality_names))


def normalize_mi(phi):
    """Clamp negatives to zero, then divide by the max; all-nonpositive -> zeros."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 1 or not np.isfinite(phi).all():
        raise ValueError("phi must be a finite vector")
    clamped = np.maximum(phi, 0.0)
    top = clamped.max() if clamped.size else 0.0
    if top <= 0.0:
        return np.zeros_like(clamped)
    return clamped / top


def shapley_mi(data, oracle, policy) -> ModalityImportance:
    """Ground-truth modality importance by exact coalition enumeration.

    Every coalition value is computed once and shared across all modalities'
    marginal contributions; all 2^M x N ablated volumes are evaluated as one
    stream.
    """
    samples = _iter_samples(data)
    n = samples[0].volume.n_modalities
    _check_exact_players(n, "modalities")
    coalitions = [Coalition.from_mask(mask, n) for mask in range(1 << n)]
    phi = exact_shapley(_coalition_accuracies(samples, oracle, coalitions, policy), n)
    return ModalityImportance.from_phi(
        phi, policy.mi_variant, samples[0].volume.modality_names
    )
