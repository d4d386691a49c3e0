"""Black-box perturbation saliency methods and saliency post-processing.

All methods probe a prediction oracle only through input-output pairs. The
"superpixels" are regular grid blocks: deterministic and dimension-agnostic.
Methods on per-modality grids produce modality-specific maps; methods on
shared grids broadcast one map across all modalities.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .ablate import coalition_table, exact_shapley
from .oracle import _checked_class, _evaluate, _Plan
from .tensorio import MultiModalVolume, SaliencyMap, _dataset


class SaliencyMethod(Enum):
    OCCLUSION = "occlusion"
    FEATURE_ABLATION = "feature_ablation"
    FEATURE_PERMUTATION = "feature_permutation"
    LIME = "lime"
    SHAPLEY_SAMPLING = "shapley_sampling"
    KERNEL_SHAP = "kernel_shap"


# Methods whose segment grid is shared across modalities; their maps are
# identical on every modality by construction.
SHARED_MAP_METHODS = (SaliencyMethod.FEATURE_PERMUTATION, SaliencyMethod.KERNEL_SHAP)


@dataclass(frozen=True, eq=False)
class SegmentGrid:
    """Regular-block partition of a volume into attribution units.

    per_modality=True gives each modality its own segment ids; otherwise one
    spatial segment spans all modalities. Ids are dense from 0 and every voxel
    belongs to exactly one segment.
    """

    per_modality: bool
    segment_ids: np.ndarray

    def __post_init__(self):
        ids = np.ascontiguousarray(self.segment_ids, dtype=np.int32)
        # checked without np.unique, which imports numpy.ma (about 12 ms); the
        # range check comes first, so that bincount allocates at most ids.size
        flat = ids.reshape(-1)
        in_range = flat.size and 0 <= flat.min() and flat.max() < flat.size
        if not (in_range and np.bincount(flat).all()):
            raise ValueError("segment ids must be dense from 0")
        ids.setflags(write=False)
        object.__setattr__(self, "segment_ids", ids)

    @property
    def n_segments(self):
        return int(self.segment_ids.max()) + 1


def build_grid(n_modalities, dims, block_shape, per_modality=True) -> SegmentGrid:
    """Partition (n_modalities, *dims) into regular blocks of block_shape."""
    block_shape = _axis_tuple(block_shape, len(dims), "block_shape")
    if any(b < 1 for b in block_shape):
        raise ValueError(f"block_shape must be positive, got {block_shape}")
    axes = [np.arange(d) // b for d, b in zip(dims, block_shape)]
    n_axis_blocks = [int(a[-1]) + 1 for a in axes]
    spatial = np.zeros(dims, dtype=np.int64)
    for k, ax in enumerate(axes):
        shape = [1] * len(dims)
        shape[k] = dims[k]
        spatial = spatial * n_axis_blocks[k] + ax.reshape(shape)
    n_blocks = int(np.prod(n_axis_blocks))
    if per_modality:
        ids = spatial[None] + n_blocks * np.arange(n_modalities).reshape(
            (-1,) + (1,) * len(dims)
        )
    else:
        ids = np.broadcast_to(spatial, (n_modalities, *dims)).copy()
    return SegmentGrid(per_modality, ids)


@dataclass(frozen=True)
class MethodConfig:
    """Configuration shared by all saliency methods.

    target_class=None means "explain the predicted class". n_samples counts
    the random draws of lime, shapley_sampling and kernel_shap; the oracle
    evaluates only the distinct keep rows among them, and a row that drops
    every segment once for all the samples of one dtype, shape and modality
    names (see _segment_plans). `exhaustive` makes the
    sampling estimators (shapley_sampling, kernel_shap) return exact Shapley
    values from all 2^K coalitions (K <= 12 segments); n_samples is ignored
    in that mode.
    """

    method: SaliencyMethod
    target_class: int | None = None
    rng_seed: int = 0
    window: tuple | int | None = None
    stride: tuple | int | None = None
    block_shape: tuple | int = 8
    n_samples: int = 128
    ridge_lambda: float = 1e-3
    kernel_width: float = 0.25
    exhaustive: bool = False

    def __post_init__(self):
        if self.target_class is not None and self.target_class < 0:
            raise ValueError(f"target_class must be nonnegative, got {self.target_class}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        # NaN fails every comparison, so these also reject NaN
        if not self.kernel_width > 0:
            raise ValueError(f"kernel_width must be positive, got {self.kernel_width}")
        if not 0 <= self.ridge_lambda < math.inf:
            raise ValueError(
                f"ridge_lambda must be finite and nonnegative, got {self.ridge_lambda}"
            )

    @classmethod
    def param_fields(cls):
        """The method parameters: every field except the method and the seed."""
        return [f for f in fields(cls) if f.name not in ("method", "rng_seed")]


def _axis_tuple(value, ndim, name):
    if np.isscalar(value):
        return (int(value),) * ndim
    out = tuple(int(v) for v in value)
    if len(out) != ndim:
        raise ValueError(f"{name} must have {ndim} entries, got {out}")
    return out


def _explain(plans, oracle, cfg):
    """Each plan's map and evaluation count, from oracle._evaluate. The target
    is cfg.target_class, or else the volume's predicted class, which then heads
    the share; reduce gets target probabilities, the head's only if plan.head."""

    def resolved(plan):
        head = plan.head or cfg.target_class is None

        def reduce(preds):
            target = preds[0].argmax if cfg.target_class is None else cfg.target_class
            probs = [p.probs[_checked_class(p, target, "target_class")]
                     for p in (preds if plan.head else preds[head:])]
            return SaliencyMap(plan.volume.modality_names, plan.reduce(np.array(probs)))

        return plan._replace(reduce=reduce, head=head)

    return _evaluate(map(resolved, plans), oracle)


def _explain_one(make_plans, volume, oracle, cfg, grid=None):
    """The map of one volume from the plan builder `make_plans`."""
    plans = make_plans([volume], volume.data.shape, cfg, grid)
    _check_grid(grid, volume.data.shape)
    [(smap, _)] = _explain(plans, oracle, cfg)
    return smap


def _segment_plans(volumes, grid, rows, reduce):
    """One plan per volume, made as it is taken from the iterator returned,
    from keep rows: each row is a boolean keep mask over the grid's segments.

    A row's volume has its dropped segments zeroed; `reduce` turns the rows'
    target probabilities into one value per segment, broadcast over the grid.
    The rows are deduplicated once for all volumes: each distinct row is
    evaluated once per volume, in order of first occurrence, and its
    probability is passed to `reduce` for every row equal to it. A distinct
    row that drops every segment is marked as each plan's `zero`, so the
    stream evaluates one all-+0.0 volume for all samples in its place.
    """
    # seen[row bytes]: the row's position among the distinct rows and the
    # first row with those bytes. A dict over the row bytes is >10x faster
    # here than np.unique(rows, axis=0), which also imports numpy.ma.
    seen = {}
    positions = [seen.setdefault(r.tobytes(), (len(seen), i))[0] for i, r in enumerate(rows)]
    where = np.array(positions, dtype=np.intp)
    distinct = rows[[i for _, i in seen.values()]]
    # the grid's segment ids in C order as runs: a keep row becomes a mask
    # of the volume by one repeat of its entries over the runs (the method:
    # np.repeat's dispatch costs as much again); intp, as int32 indices
    # would be converted on every call. When every modality has the first
    # one's ids, the runs and the mask cover one modality's voxels and
    # _masked broadcasts the mask over the modalities.
    ids = grid.segment_ids
    if (ids == ids[0]).all():
        ids = ids[0]
    flat = ids.reshape(-1)
    starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
    run_segment = flat[starts].astype(np.intp)
    run_length = np.diff(starts, append=flat.size)

    def kept(volume, row):
        # 0/1 in the volume's dtype: the product equals the one with a bool mask
        keep = row.astype(volume.data.dtype)[run_segment].repeat(run_length)
        return MultiModalVolume._masked(volume, keep.reshape(ids.shape))

    def reduce_rows(probs):
        return reduce(probs[where])[grid.segment_ids]

    # the position of the distinct row that keeps nothing, if any
    blank = seen.get(bytes(rows.shape[1]), (None,))[0]
    return map(lambda v: _Plan(v, distinct, kept, reduce_rows, zero=blank), volumes)


def _solve(gram, rhs, what):
    """Solve the normal equations; a singular system raises ValueError(what)."""
    try:
        x = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{what}: {exc}") from exc
    if not np.isfinite(x).all():
        raise ValueError(what)
    return x


def postprocess(raw: SaliencyMap) -> SaliencyMap:
    """Cap outliers at the joint 99th percentile, zero negatives, scale to [0,1].

    The percentile (linear-interpolation definition) is taken over all values
    of the whole multi-modal map. All-zero maps pass through unchanged. The
    operation is idempotent.
    """
    # the cap from a partition of the map itself; one float64 copy, clipped and scaled in place
    cap = _percentile_99(raw.data.reshape(-1))
    values = raw.data.astype(np.float64)
    np.minimum(values, cap, out=values)
    np.maximum(values, 0.0, out=values)
    top = values.max()
    if top > 0.0:
        np.divide(values, top, out=values)
    return SaliencyMap(raw.modality_names, values, postprocessed=True)


def _percentile_99(values):
    """np.percentile(values.astype(np.float64), 99.0) of a flat array, bit for bit.

    numpy's linear method, step by step: the same partition, so that equal
    values of opposite sign land alike, the same two order statistics and
    the same lerp. np.percentile itself imports numpy.ma, about 12 ms in a
    fresh process.
    """
    n = values.size
    index = (n - 1) * 0.99
    # the neighbours of the index; at or past the last position both are -1
    lo = -1 if index >= n - 1 else math.floor(index)
    hi = -1 if lo == -1 else lo + 1
    ordered = np.partition(values, sorted({0, -1, lo, hi}))
    # a float32 statistic converts exactly; as Python floats, the lerp is in float64
    a, b = float(ordered[lo]), float(ordered[hi])
    t = index - lo
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def occlusion(volume, oracle, cfg) -> SaliencyMap:
    """Modality-wise sliding-window occlusion with Gaussian replacement.

    Each window in one modality is replaced by draws from a normal with that
    modality's mean and standard deviation (a constant-modality's draws equal
    its mean); the drop in the target probability is accumulated over the
    window's voxels and averaged by per-voxel window coverage. Window
    positions step by `stride` plus a final flush-to-edge position; voxels a
    stride > window leaves uncovered keep attribution 0.
    """
    return _explain_one(_occlusion_plans, volume, oracle, cfg)


def _occlusion_plans(volumes, shape, cfg, grid):
    """One plan per volume, made as it is taken from the iterator returned,
    each with its own noise and headed by its volume; the plans share one
    list of the windows of `shape`, made and checked here. The grid is unused."""
    windows = _occlusion_windows(shape, cfg)
    return map(lambda v: _occlusion_plan(v, windows, cfg), volumes)


def _occlusion_windows(shape, cfg):
    """Every (modality, slice...) window of a volume of `shape`: modality-major,
    then the corners in C order."""
    n_modalities, dims = shape[0], shape[1:]
    window = _axis_tuple(8 if cfg.window is None else cfg.window, len(dims), "window")
    stride = _axis_tuple(4 if cfg.stride is None else cfg.stride, len(dims), "stride")
    if any(w < 1 or w > d for w, d in zip(window, dims)):
        raise ValueError(f"window {window} must fit inside dims {dims}")
    if any(s < 1 for s in stride):
        raise ValueError(f"stride {stride} must be positive")
    # each axis's corners step by the stride, plus the one flush to its edge
    axes = [
        [slice(c, c + w) for c in sorted({*range(0, d - w + 1, s), d - w})]
        for d, w, s in zip(dims, window, stride)
    ]
    return [(m, *sl) for m in range(n_modalities) for sl in itertools.product(*axes)]


def _occlusion_plan(volume, windows, cfg):
    rng = np.random.default_rng(cfg.rng_seed)
    stats = [(float(d.mean()), float(d.std())) for d in volume.data]

    def replaced(volume, sl):
        mu, sd = stats[sl[0]]
        data = volume.data.copy()
        data[sl] = rng.normal(mu, sd, size=data[sl].shape) if sd > 0.0 else mu
        # only the window changed, so only its values are checked
        if not np.isfinite(data[sl]).all():
            raise ValueError("data contains non-finite values")
        return MultiModalVolume._trusted(volume.modality_names, data)

    def reduce(probs):
        accum = np.zeros_like(volume.data, dtype=np.float64)
        cover = np.zeros_like(volume.data, dtype=np.int64)
        for sl, p in zip(windows, probs[1:]):
            accum[sl] += probs[0] - p
            cover[sl] += 1
        return np.divide(accum, cover, out=np.zeros_like(accum), where=cover > 0)

    return _Plan(volume, windows, replaced, reduce, head=True)


def feature_ablation(volume, oracle, cfg, grid: SegmentGrid) -> SaliencyMap:
    """Zero one segment at a time; its voxels get the target-probability drop.

    Requires a per-modality grid so the maps are modality-specific.
    """
    return _explain_one(_feature_ablation_plans, volume, oracle, cfg, grid)


def _feature_ablation_plans(volumes, shape, cfg, grid):
    if not grid.per_modality:
        raise ValueError("feature_ablation requires a per-modality segment grid")
    # row 0 keeps everything; row k + 1 drops segment k
    rows = ~np.eye(grid.n_segments + 1, grid.n_segments, k=-1, dtype=bool)
    return _segment_plans(volumes, grid, rows, lambda p: p[0] - p[1:])


def feature_permutation(data, oracle, cfg, grid: SegmentGrid):
    """Shuffle each segment's content across the batch (the whole dataset).

    The grid is shared across modalities, so one spatial map is broadcast to
    every modality. The per-segment shuffle prefers derangements (falls back
    to a random full cycle), is seeded, and swaps the segment's content in all
    modalities at once. Returns {sample_id: SaliencyMap}.
    """
    cfg = replace(cfg, method=SaliencyMethod.FEATURE_PERMUTATION)
    return generate_maps(data, oracle, cfg, grid)[0]


def _feature_permutation_plans(volumes, shape, cfg, grid):
    """One plan per volume, headed by it, all made at once: each sample's
    donors are the whole dataset's volumes, which generate_maps has checked
    to be at least two."""
    if grid.per_modality:
        raise ValueError("feature_permutation requires a shared segment grid")
    volumes = list(volumes)
    rng = np.random.default_rng(cfg.rng_seed)
    # perms[k][j]: the sample whose segment k sample j gets
    perms = [_derangement_preferring(rng, len(volumes)) for _ in range(grid.n_segments)]
    # segments[k]: segment k's flat voxel indices, ascending: one stable sort
    # of the ids, split at each segment's end
    flat = grid.segment_ids.reshape(-1)
    segments = np.split(np.argsort(flat, kind="stable"), np.cumsum(np.bincount(flat))[:-1])

    def reduce(probs):
        # the unperturbed probability, then one per shuffled segment
        return (probs[0] - probs[1:])[grid.segment_ids]

    # sample j's items: per segment, its voxels and the data of its donor
    return [
        _Plan(v, [(voxels, volumes[int(p[j])].data) for voxels, p in zip(segments, perms)],
              _shuffled, reduce, head=True)
        for j, v in enumerate(volumes)
    ]


def _shuffled(volume, item):
    """`volume` with one segment's voxels taken from a donor's data."""
    voxels, donor = item
    data = volume.data.copy()
    # the assignment casts as a masked one does
    data.reshape(-1)[voxels] = donor.reshape(-1)[voxels]
    return MultiModalVolume(volume.modality_names, data)


def _derangement_preferring(rng, n):
    identity = np.arange(n)
    for _ in range(10):
        perm = rng.permutation(n)
        if not np.any(perm == identity):
            return perm
    order = rng.permutation(n)
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.roll(order, -1)
    return perm


def lime(volume, oracle, cfg, grid: SegmentGrid) -> SaliencyMap:
    """Local ridge surrogate on uniformly sampled keep/drop segment masks.

    Dropped segments are zeroed; sample weights follow
    exp(-(1 - |z|/K)^2 / kernel_width^2). The fit includes an unpenalized
    intercept; each segment's voxels receive its coefficient. n_samples
    masks are drawn; each distinct one is evaluated once.
    """
    return _explain_one(_lime_plans, volume, oracle, cfg, grid)


def _lime_plans(volumes, shape, cfg, grid):
    k_segments = grid.n_segments
    if cfg.n_samples < k_segments:
        raise ValueError(
            f"n_samples={cfg.n_samples} < {k_segments} segments: "
            "surrogate system is underdetermined"
        )
    rng = np.random.default_rng(cfg.rng_seed)
    rows = rng.integers(0, 2, size=(cfg.n_samples, k_segments)).astype(bool)
    Z = rows.astype(np.float64)
    frac = Z.sum(axis=1) / k_segments
    with np.errstate(divide="ignore", invalid="ignore"):  # kernel_width**2 may be 0
        weights = np.exp(-((1.0 - frac) ** 2) / cfg.kernel_width**2)
    design = np.hstack([np.ones((cfg.n_samples, 1)), Z])
    penalty = np.eye(k_segments + 1) * cfg.ridge_lambda
    penalty[0, 0] = 0.0  # intercept unpenalized
    gram = design.T @ (design * weights[:, None]) + penalty
    singular = "lime normal equations are singular"
    _solve(gram, np.zeros(len(gram)), singular)  # a singular fit fails before any oracle call

    def reduce(y):
        return _solve(gram, design.T @ (weights * y), singular)[1:]

    return _segment_plans(volumes, grid, rows, reduce)


def shapley_sampling(volume, oracle, cfg, grid: SegmentGrid) -> SaliencyMap:
    """Mean marginal contribution of each segment over segment orderings.

    Segments are added in permutation order starting from an all-zero
    baseline, over n_samples random orderings: n_samples * K + 1 keep rows,
    of which each distinct one is evaluated once (every ordering ends on the
    full coalition); the all-zero baseline is evaluated once for all the
    samples of a run. cfg.exhaustive returns exact Shapley values instead (the
    mean over all K! orderings) from the 2^K coalition table; see
    _exact_shapley_plans.
    """
    return _explain_one(_shapley_sampling_plans, volume, oracle, cfg, grid)


def _shapley_sampling_plans(volumes, shape, cfg, grid):
    if cfg.exhaustive:
        return _exact_shapley_plans(volumes, grid)
    k_segments = grid.n_segments
    rng = np.random.default_rng(cfg.rng_seed)
    perms = np.array([rng.permutation(k_segments) for _ in range(cfg.n_samples)])
    # row 0 is the empty baseline, then each ordering's K growing prefixes
    added = np.eye(k_segments, dtype=bool)[perms]
    prefixes = np.logical_or.accumulate(added, axis=1).reshape(-1, k_segments)
    rows = np.vstack([np.zeros(k_segments, dtype=bool), prefixes])

    def reduce(probs):
        steps = probs[1:].reshape(len(perms), k_segments)
        marginals = np.zeros(k_segments)
        # unbuffered: each segment's marginals are added one by one, in ordering order
        np.add.at(marginals, perms, np.diff(steps, axis=1, prepend=probs[0]))
        return marginals / len(perms)

    return _segment_plans(volumes, grid, rows, reduce)


def _exact_shapley_plans(volumes, grid):
    """Exact Shapley segment values from all 2^K keep rows, broadcast over the grid.

    The rows are coalition_table(K); the cap on K is checked before any
    oracle call.
    """
    k_segments = grid.n_segments
    rows = coalition_table(k_segments, "segments")
    return _segment_plans(volumes, grid, rows, lambda values: exact_shapley(values, k_segments))


def _kernel_shap_weight(k, size):
    # in Python ints: a numpy int64 size would overflow the product from K = 57
    size = int(size)
    return (k - 1.0) / (math.comb(k, size) * size * (k - size))


def kernel_shap(volume, oracle, cfg, grid: SegmentGrid) -> SaliencyMap:
    """Shapley values via the weighted-least-squares (LIME-style) formulation.

    Sampled coalitions exclude the empty and full sets, which enter as the
    efficiency constraint sum(phi) = p(full) - p(empty); coalition sizes are
    drawn with weights (K-1)/(C(K,|z|)|z|(K-|z|)). n_samples coalitions are
    drawn; each distinct one is evaluated once. The grid is shared across
    modalities, so the map is not modality-specific. cfg.exhaustive, and any
    K = 1 grid, return exact Shapley values from the 2^K coalition table
    (exhaustive KernelSHAP is exact Shapley); see _exact_shapley_plans.
    """
    return _explain_one(_kernel_shap_plans, volume, oracle, cfg, grid)


def _kernel_shap_plans(volumes, shape, cfg, grid):
    if grid.per_modality:
        raise ValueError("kernel_shap requires a shared segment grid")
    k_segments = grid.n_segments
    if cfg.exhaustive or k_segments == 1:
        return _exact_shapley_plans(volumes, grid)
    if cfg.n_samples < k_segments + 2:
        raise ValueError(
            f"kernel_shap needs n_samples >= K+2 = {k_segments + 2}, "
            f"got {cfg.n_samples}"
        )
    rng = np.random.default_rng(cfg.rng_seed)
    sizes = np.arange(1, k_segments)
    try:
        size_mass = np.array(
            [math.comb(k_segments, s) * _kernel_shap_weight(k_segments, s) for s in sizes]
        )
    except OverflowError:
        raise ValueError(
            f"kernel_shap: the coalition-size weights of K = {k_segments} segments "
            "overflow a float; use a larger block_shape"
        ) from None
    size_probs = size_mass / size_mass.sum()
    # rows 0 and 1 are the full and empty coalitions, then the sampled ones
    rows = np.zeros((cfg.n_samples + 2, k_segments), dtype=bool)
    rows[0] = True
    for i in range(cfg.n_samples):
        s = int(rng.choice(sizes, p=size_probs))
        rows[i + 2, rng.choice(k_segments, size=s, replace=False)] = True
    Z = rows[2:].astype(np.float64)
    coalition_sizes = Z.sum(axis=1).astype(int)
    weights = np.array([_kernel_shap_weight(k_segments, s) for s in coalition_sizes])
    # Eliminate the last player with the efficiency constraint, then solve WLS.
    B = Z[:, :-1] - Z[:, -1:]
    gram = B.T @ (B * weights[:, None])
    singular = "kernel_shap system is singular"
    _solve(gram, np.zeros(len(gram)), singular)  # a singular fit fails before any oracle call

    def reduce(probs):
        p_full, p_empty, y = probs[0], probs[1], probs[2:]
        delta = p_full - p_empty
        t = y - p_empty - Z[:, -1] * delta
        head = _solve(gram, B.T @ (weights * t), singular)
        return np.concatenate([head, [delta - head.sum()]])

    return _segment_plans(volumes, grid, rows, reduce)


def _check_grid(grid, shape):
    """Whether the grid, if any, fits volumes of data shape `shape`."""
    if grid is not None and grid.segment_ids.shape != shape:
        raise ValueError(
            f"grid shape {grid.segment_ids.shape} does not match volume shape {shape}"
        )


def default_grid_for(method, n_modalities, dims, block_shape):
    """Grid with the conventional sharing mode for a method (None for occlusion)."""
    method = SaliencyMethod(method)
    if method is SaliencyMethod.OCCLUSION:
        return None
    shared = method in SHARED_MAP_METHODS
    return build_grid(n_modalities, dims, block_shape, per_modality=not shared)


# each method's plan builder: (volumes, shape, cfg, grid) -> one oracle._Plan
# per volume, every volume of data shape `shape`, whose reduce gets target
# probabilities (see _explain). A builder checks its parameters and draws its
# rows (occlusion: its windows) when called, and takes each volume from the
# iterable only as that volume's plan is taken; but feature_permutation's,
# whose donors are the whole dataset, takes them all.
_PLANS = {
    SaliencyMethod.OCCLUSION: _occlusion_plans,
    SaliencyMethod.FEATURE_ABLATION: _feature_ablation_plans,
    SaliencyMethod.FEATURE_PERMUTATION: _feature_permutation_plans,
    SaliencyMethod.LIME: _lime_plans,
    SaliencyMethod.SHAPLEY_SAMPLING: _shapley_sampling_plans,
    SaliencyMethod.KERNEL_SHAP: _kernel_shap_plans,
}


def generate_maps(data, oracle, cfg: MethodConfig, grid=None, on_map=None):
    """Run one method over a dataset; returns ({sample_id: map}, runlog dict).

    `data` is a list of loaded samples or a DatasetView, which reads each
    sample from disk as it is reached. Before any oracle call, it is checked
    to keep to one layout (see tensorio._dataset), the grid is checked
    against the layout's shape and feature_permutation's dataset for a
    second sample, all before any payload is read; then the plan builder
    checks the method's parameters (occlusion: its windows against the
    shape) and draws its rows. Each sample's plan is then made only when
    the one oracle stream reaches the sample (see oracle._evaluate): with a
    view, which reads no mask, on the per-item path, the call holds one
    volume while the oracle runs; with a batch oracle, the
    volumes its current chunk spans; feature_permutation, whose donors are
    the whole dataset, holds every volume. Given `on_map`, each sample's map
    goes to `on_map(sample_id, map)` as soon as it is made, in sample order,
    and is not kept: the returned dict is empty, and the call holds one
    finished map at a time. The runlog records method, params, seed, and per
    sample its oracle evaluations and its wall time: the time from the
    previous sample's map, or from the start of the call, to its own,
    without the time spent in `on_map`. Wall times are measurement, not a
    deterministic output.
    """
    t0 = time.perf_counter()
    samples, (_, shape) = _dataset(data)
    method = SaliencyMethod(cfg.method)
    if grid is None:
        grid = default_grid_for(method, shape[0], shape[1:], cfg.block_shape)
    _check_grid(grid, shape)
    if method is SaliencyMethod.FEATURE_PERMUTATION and len(samples) < 2:
        raise ValueError("feature_permutation needs at least 2 samples in the batch")
    # the ids from a second pass over the samples, which reads no payload of a view
    ids = (s.record.sample_id for s in samples)
    plans = _PLANS[method]((s.volume for s in samples), shape, cfg, grid)
    maps, wall, evals = {}, {}, {}
    for smap, n_evals in _explain(plans, oracle, cfg):
        sid = next(ids)
        wall[sid] = time.perf_counter() - t0
        evals[sid] = n_evals
        if on_map is None:
            maps[sid] = smap
        else:
            on_map(sid, smap)
        del smap  # not held while the next map is made
        t0 = time.perf_counter()
    runlog = {
        "method": method.value,
        "params": {f.name: getattr(cfg, f.name) for f in MethodConfig.param_fields()},
        "seed": cfg.rng_seed,
        "wall_time": wall,
        "oracle_evals": evals,
    }
    return maps, runlog

