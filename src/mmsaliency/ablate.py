"""Modality-coalition ablation and the exact Shapley modality-importance engine.

A coalition is a bool keep row, one entry per modality; its value is a
prediction oracle's accuracy over a dataset with the other modalities
ablated. The 2^M rows of coalition_table are each evaluated once.
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


def coalition_table(n_players, unit):
    """All 2^n coalitions as bool keep rows: bit j of row i keeps player j.

    `unit` names the players in the error raised above MAX_EXACT_PLAYERS.
    """
    if n_players > MAX_EXACT_PLAYERS:
        raise ValueError(
            f"{n_players} {unit} would need {1 << n_players} coalition evaluations; "
            f"exact enumeration is capped at {MAX_EXACT_PLAYERS}"
        )
    return (np.arange(1 << n_players)[:, None] >> np.arange(n_players) & 1).astype(bool)


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


def apply_ablation(volume, keep, policy: AblationPolicy, mask=None):
    """Return a volume with every modality whose `keep` entry is False ablated.

    `keep` is a bool row with one entry per modality, as in coalition_table.

    Zero policies are idempotent; the sampling policy draws i.i.d. with
    replacement from the non-lesion pool of the same modality, seeded, so the
    result is a pure function of its arguments.
    """
    if policy.needs_mask and mask is None:
        raise ValueError(f"policy {policy.variant.value!r} requires a mask")
    if not policy.needs_mask and mask is not None:
        mask = None
    keep = np.asarray(keep)
    if keep.dtype != bool or keep.shape != (volume.n_modalities,):
        raise ValueError(
            f"keep must be a bool row of {volume.n_modalities} modalities, "
            f"got {keep.dtype} {keep.shape}"
        )
    if mask is not None and mask.data.shape != volume.data.shape:
        raise ValueError("mask shape does not match volume shape")

    if keep.all():
        return volume
    data = volume.data.copy()
    # made only where it draws: numpy.random is not imported for the zero policies
    if policy.variant is AblationVariant.NONLESION_SAMPLE_WHOLE_MODALITY:
        rng = np.random.default_rng(policy.rng_seed)
    for m in np.flatnonzero(~keep):
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


def coalition_performance(data, oracle, keep, policy):
    """Oracle accuracy with each sample ablated down to the kept modalities."""
    samples = _iter_samples(data)
    return _coalition_accuracies(samples, oracle, [keep], policy)[0]


def _coalition_accuracies(samples, oracle, rows, policy):
    """Accuracy per keep row; every ablated volume goes through one stream."""
    ablated = (
        apply_ablation(s.volume, keep, policy, s.mask) for keep in rows for s in samples
    )
    preds = predict_volumes(oracle, ablated)
    accuracies = []
    for _ in rows:
        hits = sum(next(preds).argmax == s.record.label for s in samples)
        accuracies.append(hits / len(samples))
    return accuracies


def exact_shapley(values, n_players):
    """Exact Shapley vector from a full coalition-value table.

    `values[i]` is v(c) for row i of coalition_table(n_players), the
    coalition whose bit m of i is set when player m is present; the table
    has 2^n entries.
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
    # without[m]: the 2^(n-1) coalitions that lack player m, in increasing
    # order: every index with a 0 bit inserted at position m
    players = np.arange(n_players)[:, None]
    low = np.arange((1 << n_players) >> 1)
    without = (low >> players << players + 1) | (low & (1 << players) - 1)
    # inserting a 0 bit keeps the bit count: without[m][i] has low[i]'s size
    size = (low[:, None] >> np.arange(n_players) & 1).sum(axis=1)
    terms = weight[size] * (values[without | 1 << players] - values[without])
    # summed left to right from 0.0, each player's terms in coalition order:
    # the order of a loop over the coalitions, so the sums agree bit for bit
    start = np.zeros((n_players, 1))
    return np.add.accumulate(np.hstack([start, terms]), axis=1)[:, -1]


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
    rows = coalition_table(n, "modalities")
    phi = exact_shapley(_coalition_accuracies(samples, oracle, rows, policy), n)
    return ModalityImportance.from_phi(
        phi, policy.mi_variant, samples[0].volume.modality_names
    )
