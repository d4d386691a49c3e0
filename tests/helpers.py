"""Shared test fixtures: analytic oracles and independent reference
implementations (brute force / closed form) that the library code never uses.
"""

import itertools
import math
import os
from pathlib import Path

import numpy as np

from mmsaliency.ablate import AblationVariant
from mmsaliency.oracle import ClassProbabilities
from mmsaliency.tensorio import LoadedSample, ManifestRecord, MultiModalVolume

REPO = Path(__file__).resolve().parents[1]


def src_env():
    """The caller's environment with this checkout's `src/` first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


class FunctionOracle:
    """Two-class oracle with p(class0) = fn(data), fn expected to stay in [0,1]."""

    def __init__(self, fn):
        self.fn = fn

    def predict(self, volume):
        p = float(np.clip(self.fn(volume.data), 0.0, 1.0))
        return ClassProbabilities((p, 1.0 - p))


class FixedOracle:
    def __init__(self, probs):
        self.probs = ClassProbabilities(tuple(probs))

    def predict(self, volume):
        return self.probs


def make_volume(rng, n_modalities=2, dims=(4, 4), names=None, low=0.0, high=1.0):
    data = rng.uniform(low, high, size=(n_modalities, *dims))
    if names is None:
        names = tuple(f"mod{i}" for i in range(n_modalities))
    return MultiModalVolume(names, data)


def make_sample(sample_id, volume, mask=None, label=0):
    record = ManifestRecord(sample_id, label, volume_path=f"{sample_id}.mmv")
    return LoadedSample(record, volume, mask)


def apply_ablation_reference(volume, keep, policy, mask=None):
    """A volume with every modality whose `keep` entry is False ablated, one
    modality at a time: set to +0.0 (`zero`), its mask region set to +0.0
    (`feature`), or drawn i.i.d. with replacement from its non-lesion voxels
    (`nonlesion`), from one generator seeded with the policy seed per call
    and drawn in ascending modality order. The zero policies are the
    reference that MI's keep-mask build must meet byte for byte.
    """
    keep = np.asarray(keep)
    if keep.all():
        return volume
    data = volume.data.copy()
    rng = np.random.default_rng(policy.rng_seed)
    for m in np.flatnonzero(~keep):
        if policy.variant is AblationVariant.ZERO_WHOLE_MODALITY:
            data[m] = 0.0
        elif policy.variant is AblationVariant.ZERO_FEATURE_REGION:
            data[m][mask.data[m]] = 0.0
        else:
            pool = volume.data[m][~mask.data[m]]
            data[m] = pool[rng.integers(0, pool.size, size=data[m].shape)]
    return MultiModalVolume(volume.modality_names, data)


def permutation_shapley(values_by_mask, n):
    """Average marginal contribution over all n! player orderings."""
    phi = np.zeros(n)
    for perm in itertools.permutations(range(n)):
        mask = 0
        prev = values_by_mask[0]
        for player in perm:
            mask |= 1 << player
            cur = values_by_mask[mask]
            phi[player] += cur - prev
            prev = cur
    return phi / math.factorial(n)


def sequential_shapley_sampling(volume, oracle, grid, target, n_orderings, seed):
    """Shapley sampling one marginal at a time: for each of the seeded
    orderings, add the segments in order from an all-zero volume and add each
    probability step to the segment just added. Returns one value per segment.
    """
    rng = np.random.default_rng(seed)
    k_segments = grid.n_segments
    orderings = [rng.permutation(k_segments) for _ in range(n_orderings)]

    def value(keep):
        kept = MultiModalVolume(volume.modality_names, volume.data * keep[grid.segment_ids])
        return oracle.predict(kept).probs[target]

    marginals = np.zeros(k_segments)
    for ordering in orderings:
        keep = np.zeros(k_segments, dtype=bool)
        prev = value(keep)
        for k in ordering:
            keep[k] = True
            cur = value(keep)
            marginals[k] += cur - prev
            prev = cur
    return marginals / n_orderings


def sequential_occlusion(volume, oracle, window, stride, seed, target=None):
    """Occlusion one window at a time. The windows come modality-major, then
    corner by corner in C order, each axis's corners stepping by the stride
    plus the flush-to-edge one. Each window's noise is drawn in that order
    from default_rng(seed); its probability drop and its coverage are added
    window by window. target None explains the volume's predicted class.
    """
    rng = np.random.default_rng(seed)
    data = volume.data
    head = oracle.predict(volume)
    target = head.argmax if target is None else target
    corners = []
    for d, w, s in zip(data.shape[1:], window, stride):
        axis = list(range(0, d - w + 1, s))
        if axis[-1] != d - w:
            axis.append(d - w)
        corners.append(axis)
    total = np.zeros(data.shape)
    cover = np.zeros(data.shape, dtype=np.int64)
    for m in range(len(data)):
        mu, sd = float(data[m].mean()), float(data[m].std())
        for corner in itertools.product(*corners):
            where = (m, *(slice(c, c + w) for c, w in zip(corner, window)))
            noisy = data.copy()
            noisy[where] = rng.normal(mu, sd, size=window) if sd > 0.0 else mu
            p = oracle.predict(MultiModalVolume(volume.modality_names, noisy)).probs[target]
            total[where] += head.probs[target] - p
            cover[where] += 1
    out = np.zeros(data.shape)
    covered = cover > 0
    out[covered] = total[covered] / cover[covered]
    return out


def sampled_keep_rows(method, k, n_samples, seed):
    """The keep rows a sampling estimator draws, repeats included, in row
    order, each a tuple of K bools: its seeded draws replayed one at a time.

    method is "lime" (uniform rows), "shapley_sampling" (the empty baseline,
    then each ordering's growing prefixes) or "kernel_shap" (the full and
    empty coalitions, then sizes drawn with the Shapley-kernel mass).
    """
    rng = np.random.default_rng(seed)
    if method == "lime":
        return [tuple(map(bool, z)) for z in rng.integers(0, 2, size=(n_samples, k))]
    if method == "shapley_sampling":
        rows = [(False,) * k]
        for _ in range(n_samples):
            keep = [False] * k
            for player in rng.permutation(k):
                keep[player] = True
                rows.append(tuple(keep))
        return rows
    sizes = np.arange(1, k)
    mass = np.array([
        math.comb(k, s) * ((k - 1.0) / (math.comb(k, s) * s * (k - s))) for s in sizes
    ])
    rows = [(True,) * k, (False,) * k]
    for _ in range(n_samples):
        size = int(rng.choice(sizes, p=mass / mass.sum()))
        keep = [False] * k
        for player in rng.choice(k, size=size, replace=False):
            keep[player] = True
        rows.append(tuple(keep))
    return rows


def subset_shapley(value_fn, n):
    """Direct subset-enumeration Shapley; value_fn takes a bitmask."""
    phi = np.zeros(n)
    for k in range(n):
        for mask in range(1 << n):
            if mask >> k & 1:
                continue
            size = bin(mask).count("1")
            w = (
                math.factorial(size)
                * math.factorial(n - size - 1)
                / math.factorial(n)
            )
            phi[k] += w * (value_fn(mask | (1 << k)) - value_fn(mask))
    return phi


def brute_tau_b(a, b):
    """Pair-counting Kendall tau-b with the zero-denominator -> 0 convention."""
    n = len(a)
    conc = disc = ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da = int(a[i] > a[j]) - int(a[i] < a[j])
            db = int(b[i] > b[j]) - int(b[i] < b[j])
            if da != 0 and db != 0:
                if da == db:
                    conc += 1
                else:
                    disc += 1
            elif da == 0 and db != 0:
                ties_a += 1
            elif db == 0 and da != 0:
                ties_b += 1
    denom = math.sqrt((conc + disc + ties_a) * (conc + disc + ties_b))
    if denom == 0:
        return 0.0
    return (conc - disc) / denom


def circularity_reference(component):
    """Set-based circularity: 4*pi*A/P^2 with P counted pixel by pixel."""
    ys, xs = np.nonzero(component)
    points = set(zip(ys.tolist(), xs.tolist()))
    perimeter = 0
    for y, x in points:
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if (y + dy, x + dx) not in points:
                perimeter += 1
                break
    return 4.0 * math.pi * len(points) / perimeter**2


def boundary_count_reference(component):
    """Boundary-pixel count by padding with background and rolling each axis."""
    padded = np.pad(component, 1, mode="constant", constant_values=False)
    on_boundary = np.zeros_like(component, dtype=bool)
    inner = tuple(slice(1, -1) for _ in range(component.ndim))
    for axis in range(component.ndim):
        for shift in (-1, 1):
            neighbor = np.roll(padded, shift, axis=axis)[inner]
            on_boundary |= component & ~neighbor
    return int(np.count_nonzero(on_boundary))


def chi2_sf_reference(x, df):
    """Chi-square upper tail from closed forms (no gamma-function library).

    Even df uses the exact finite Poisson series; odd df uses erfc plus the
    survival-function recurrence S(x; v+2) = S(x; v) + (x/2)^(v/2) e^(-x/2) / Gamma(v/2+1).
    """
    if df % 2 == 0:
        half = df // 2
        term = 1.0
        total = 1.0
        for j in range(1, half):
            term *= (x / 2.0) / j
            total += term
        return math.exp(-x / 2.0) * total
    s = math.erfc(math.sqrt(x / 2.0))
    v = 1
    while v < df:
        s += (x / 2.0) ** (v / 2.0) * math.exp(-x / 2.0 - math.lgamma(v / 2.0 + 1.0))
        v += 2
    return s


def percentile_clamp_reference(values, q):
    """Linear-interpolation percentile by explicit sort, then clamp above it."""
    flat = sorted(float(v) for v in np.asarray(values).ravel())
    n = len(flat)
    pos = (q / 100.0) * (n - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    pct = flat[lo] + (pos - lo) * (flat[hi] - flat[lo])
    return np.minimum(np.asarray(values, dtype=float), pct), pct
