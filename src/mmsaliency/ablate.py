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

from .oracle import _checked_class, _evaluate, _Plan
from .tensorio import MultiModalVolume, _dataset

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


def coalition_performance(data, oracle, keep, policy):
    """Oracle accuracy with each sample ablated down to the kept modalities;
    `keep`, a bool row of one entry per modality, is checked before any oracle call."""
    samples, (names, _) = _dataset(data)
    keep = np.asarray(keep)
    if keep.dtype != bool or keep.shape != (len(names),):
        raise ValueError(f"keep must be a bool row of {len(names)} modalities, "
                         f"got {keep.dtype} {keep.shape}")
    return _coalition_accuracies(samples, oracle, keep[None], policy)[0]


def _coalition_accuracies(samples, oracle, rows, policy):
    """Accuracy per keep row, from one plan per sample with no head: its items
    are the rows, built by _removal. Under `zero`, a first row that keeps
    nothing is the all-zero volume for every sample, and is marked so (see
    oracle._evaluate). A label the oracle does not predict is a ValueError
    naming the sample."""
    zeroes = policy.variant is AblationVariant.ZERO_WHOLE_MODALITY
    zero = 0 if zeroes and not np.any(rows[0]) else None
    dropped = np.flatnonzero(~np.all(rows, axis=0))

    def plan(s):
        label, what = s.record.label, f"sample {s.record.sample_id}: label"
        return _Plan(s.volume, rows, _removal(s, policy, dropped),
                     lambda preds: [p.argmax == _checked_class(p, label, what) for p in preds],
                     zero=zero)

    hit_rows = [row for row, _ in _evaluate(map(plan, samples), oracle)]
    return [sum(hits) / len(samples) for hits in zip(*hit_rows)]


def _removal(sample, policy, dropped):
    """`build(volume, keep)` of a sample's coalitions: np.where(keep mask,
    volume data, fill). The mask is the keep row over the modalities, or
    under `feature` that row or outside the sample's mask; the fill is +0.0,
    or under `nonlesion`, for each modality in `dropped`, draws with
    replacement from its non-lesion voxels, made here from a generator keyed
    by the policy seed and the modality's name, so the same in every
    coalition and sample order. The mask is read only if the policy needs it."""
    mask = sample.mask if policy.needs_mask else None
    if policy.needs_mask and mask is None:
        raise ValueError(f"policy {policy.variant.value!r} requires a mask")
    names, data, fill = sample.volume.modality_names, sample.volume.data, 0.0
    outside = ~mask.data if policy.variant is AblationVariant.ZERO_FEATURE_REGION else False
    if policy.variant is AblationVariant.NONLESION_SAMPLE_WHOLE_MODALITY:
        fill = np.zeros_like(data)
        for m in dropped:
            pool = data[m][~mask.data[m]]
            if pool.size == 0:
                raise ValueError(f"modality {m}: non-lesion sampling pool is empty "
                                 "(mask covers the whole modality)")
            # made only where it draws: numpy.random is not imported for the zero policies
            rng = np.random.default_rng([policy.rng_seed, *names[m].encode()])
            fill[m] = pool[rng.integers(0, pool.size, size=data.shape[1:])]
    shape = (-1,) + (1,) * (data.ndim - 1)
    # the full coalition is the volume itself: no copy is held while it is predicted
    return lambda volume, keep: volume if keep.all() else MultiModalVolume._trusted(
        volume.modality_names, np.where(keep.reshape(shape) | outside, volume.data, fill))


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
    marginal contributions; all 2^M x N ablated volumes, each built by one
    keep-mask rule (see _removal), are evaluated as one stream, sample by
    sample, but under `zero` the empty coalition's all-zero volume once for
    all samples. `data` is a list of loaded samples or a
    DatasetView, which reads each sample from disk as the stream reaches it;
    either must keep to one layout (see tensorio._dataset), whose modality
    names label the result, and is checked before any oracle call.
    """
    samples, (names, _) = _dataset(data)
    rows = coalition_table(len(names), "modalities")
    phi = exact_shapley(_coalition_accuracies(samples, oracle, rows, policy), len(names))
    return ModalityImportance.from_phi(phi, policy.mi_variant, names)
