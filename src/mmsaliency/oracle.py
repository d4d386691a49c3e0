"""Black-box prediction oracles: a reference shape classifier, an external
batch-command adapter, and the one plan stream (`_evaluate`) through which the
package calls an oracle (`predict_volumes`, which states the contract) and
checks a target or a label against a prediction (`_checked_class`).

The reference classifier grades a combined image by the circularity of its
largest thresholded component, so the whole attribution pipeline is testable
without any trained model. Real models plug in through the batch protocol.
"""

from __future__ import annotations

import collections
import itertools
import math
import struct
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .tensorio import (
    DatasetManifest,
    ManifestRecord,
    MultiModalVolume,
    _dataset,
    _read_csv,
    save_manifest,
    write_volume,
)

PROB_TOL = 1e-6
# Volume bytes per predict_batch call; one BraTS volume (4 x 240 x 240 x 155
# float32) is about 143 MB.
BATCH_BYTES = 512 << 20
# Bytes of memory a classifier's foreground memo may hold, each entry counted
# as its packed bits plus MEMO_ENTRY_BYTES, the rest of its memory (about 130
# at 64x64 and 155 at 48x48 by tracemalloc on Python 3.11: the bytes header,
# the float and the dict's share): 1979 fields of 64x64, 2992 of 48x48, 8295
# of 8x8; a field larger than this is kept alone.
MEMO_BYTES = 1280 << 10
MEMO_ENTRY_BYTES = 150


@dataclass(frozen=True)
class ClassProbabilities:
    """Probability simplex over classes; each value in [0,1], summing to 1."""

    probs: tuple

    def __post_init__(self):
        p = tuple(float(v) for v in self.probs)
        if len(p) < 2:
            raise ValueError("need at least two classes")
        if not all(map(math.isfinite, p)):
            raise ValueError(f"probabilities must be finite: {p}")
        if any(v < -PROB_TOL or v > 1 + PROB_TOL for v in p):
            raise ValueError(f"probabilities out of [0,1]: {p}")
        if abs(sum(p) - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {sum(p)}, not 1")
        object.__setattr__(self, "probs", p)

    @property
    def argmax(self):
        # ties break toward the lower class index
        return int(np.argmax(self.probs))


def _checked_class(pred, cls, what):
    """`cls`, if `pred` has that class; else a ValueError that names `what`."""
    if cls >= len(pred.probs):
        raise ValueError(f"{what}={cls}, but the oracle predicts {len(pred.probs)} classes")
    return cls


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _pad(field):
    """The field with one False pixel added on every side, so that runs and
    neighbours can be read off its flat view without wrapping."""
    padded = np.zeros(tuple(n + 2 for n in field.shape), dtype=bool)
    padded[(slice(1, -1),) * field.ndim] = field
    return padded


def _runs(flat):
    """(starts, ends) of the runs of True in a flat mask whose first and last
    elements are False; ends are exclusive."""
    edges = (flat[1:] != flat[:-1]).nonzero()[0] + 1
    return edges[0::2], edges[1::2]


# Below this many joins the Python loop beats the vectorized rounds, whose
# fixed cost is a few dozen numpy calls (crossover about 250 joins, 2-core x86)
_LOOP_MAX_JOINS = 256


def _label_runs(padded):
    """Face-connected components of a padded boolean field, as runs.

    Returns (starts, roots, best, area), or None for an empty field. Run r
    (numbered from 1, in raster order) starts at flat index starts[r - 1] of
    padded.reshape(-1) and runs along the last axis; roots[r] is the lowest
    run number in its component. best is the root of the largest component
    and area its pixel count. Equal sizes go to the component met first in
    raster order, the one `ndimage.label` numbers first. Works for any
    ndim >= 1.
    """
    flat = padded.reshape(-1)
    s, e = _runs(flat)
    if not s.size:
        return None
    # one join per overlap of two runs that neighbour along an axis, looked up
    # at the overlap's first pixel; bool strides count elements
    lo, hi = [], []
    for stride in padded.strides[:-1]:
        p = _runs(flat[:-stride] & flat[stride:])[0]
        lo.append(s.searchsorted(p, "right"))
        hi.append(s.searchsorted(p + stride, "right"))
    lo = np.concatenate(lo) if lo else np.zeros(0, dtype=np.intp)
    hi = np.concatenate(hi) if hi else lo
    union = _union_loop if lo.size < _LOOP_MAX_JOINS else _union_rounds
    roots = union(s.size, lo, hi)
    sizes = np.bincount(roots[1:], e - s)
    best = sizes.argmax()
    return s, roots, best, int(sizes[best])


def _union_loop(n, lo, hi):
    """roots[r] for runs r = 0..n: the lowest run that the joins
    (lo[i], hi[i]) connect to r.

    A union-find with path halving that unions toward the lower run number,
    so parent[r] <= r throughout.
    """
    parent = list(range(n + 1))
    for a, b in zip(lo.tolist(), hi.tolist()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for r in range(n + 1):
        parent[r] = parent[parent[r]]
    return np.array(parent)


def _union_rounds(n, lo, hi):
    """`_union_loop`'s roots in vectorized rounds, for fields with many joins.

    Each round hooks the higher root of every join whose ends still have
    different roots onto the lower one, then points every run at its root by
    pointer jumping. roots[r] <= r throughout, so each tree's root is its
    lowest run.
    """
    roots = np.arange(n + 1)
    while True:
        a, b = roots[lo], roots[hi]
        cross = a != b
        if not cross.any():
            return roots
        lo, hi, a, b = lo[cross], hi[cross], a[cross], b[cross]
        # a root hooked by several joins keeps one of them; the rest stay
        # crossing and are hooked in a later round
        roots[np.maximum(a, b)] = np.minimum(a, b)
        up = roots[roots]
        while (up != roots).any():
            roots, up = up, up[up]


def _in_component(runs, flat_index):
    """Which of the foreground pixels at `flat_index` lie in the largest component."""
    s, roots, best, _ = runs
    return roots[s.searchsorted(flat_index, "right")] == best


def _interior(padded):
    """Flat indices into padded.reshape(-1) of the foreground pixels whose
    axis neighbours are all foreground."""
    flat = padded.reshape(-1)
    n, reach = flat.size, padded.strides[0]
    inner = flat[reach:n - reach].copy()
    for stride in padded.strides:
        inner &= flat[reach - stride:n - reach - stride]
        inner &= flat[reach + stride:n - reach + stride]
    return inner.nonzero()[0] + reach


def largest_component(foreground):
    """Largest face-connected component (4-connected in 2D, 6 in 3D) of a
    boolean field, as a mask; None when the field is empty."""
    padded = _pad(foreground)
    runs = _label_runs(padded)
    if runs is None:
        return None
    on = padded.reshape(-1).nonzero()[0]
    mask = np.zeros(padded.size, dtype=bool)
    mask[on[_in_component(runs, on)]] = True
    return mask.reshape(padded.shape)[(slice(1, -1),) * foreground.ndim]


def boundary_count(component):
    """Number of foreground pixels with at least one axis-neighbor outside.

    Positions beyond the array edge count as background.
    """
    return int(np.count_nonzero(component)) - len(_interior(_pad(component)))


def _roundness(area, perim, ndim):
    """`circularity` from a component's pixel count and boundary count."""
    if ndim == 2:
        return 4.0 * np.pi * area / perim**2
    return np.pi ** (1.0 / 3.0) * (6.0 * area) ** (2.0 / 3.0) / perim


def circularity(component):
    """4*pi*A/P^2 in 2D; the sphericity analog pi^(1/3)*(6V)^(2/3)/S in 3D.

    A/V is the pixel/voxel count, P/S the boundary-pixel count.
    """
    area = int(np.count_nonzero(component))
    if area == 0:
        raise ValueError("empty component")
    return _roundness(area, boundary_count(component), component.ndim)


class _ForegroundMemo:
    """The round-class probability of thresholded fields of one shape, by
    their packed bits, least recently used first. A field of another shape
    empties it. Each entry counts as its packed bits plus MEMO_ENTRY_BYTES,
    and the entries besides the newest count at most MEMO_BYTES in all. Only
    get and add change the entries, so the count stays true."""

    def __init__(self):
        self._entries = {}
        self._shape = None
        self.nbytes = 0

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def get(self, shape, bits):
        """The remembered probability, now the most recent, or None."""
        if shape != self._shape:
            return None
        p_round = self._entries.pop(bits, None)
        if p_round is not None:
            self._entries[bits] = p_round
        return p_round

    def add(self, shape, bits, p_round):
        if shape != self._shape:
            self._entries.clear()
            self._shape, self.nbytes = shape, 0
        self._entries[bits] = p_round
        self.nbytes += len(bits) + MEMO_ENTRY_BYTES
        while self.nbytes > MEMO_BYTES and len(self._entries) > 1:
            old = next(iter(self._entries))
            del self._entries[old]
            self.nbytes -= len(old) + MEMO_ENTRY_BYTES


def predict_shape_rule(cfg: ShapeRuleClassifier, volume: MultiModalVolume) -> ClassProbabilities:
    """Apply the shape rule; empty foreground yields uniform probabilities.

    The uniform output is a documented degenerate case, not an error:
    modality ablation legitimately empties the foreground. Everything after
    the threshold reads only the foreground and cfg, so a foreground met
    before gets its remembered prediction, the very one labeling would give.
    """
    w = cfg._weight_row
    data = volume.data.astype(np.float64, copy=False)
    if w.shape[1] != data.shape[0]:
        raise ValueError(
            f"classifier has {w.shape[1]} weights but volume has "
            f"{volume.n_modalities} modalities"
        )
    # the product tensordot(w, data, axes=(0, 0)) computes, without its set-up;
    # above the cut exactly where its quotient by the weight sum is above the
    # threshold. fg is one flat row, its bits in C order as the field's.
    fg = np.dot(w, data.reshape(w.shape[1], -1)) > cfg._cut
    bits = np.packbits(fg).tobytes()
    p_round = cfg._memo.get(data.shape, bits)
    if p_round is None:
        p_round = _shape_rule_probs(cfg, fg.reshape(data.shape[1:]))
        cfg._memo.add(data.shape, bits, p_round)
    # a logistic and its complement, a simplex as they stand: built without
    # ClassProbabilities' checks, as MultiModalVolume._masked builds volumes
    probs = object.__new__(ClassProbabilities)
    object.__setattr__(probs, "probs", (p_round, 1.0 - p_round))
    return probs


@dataclass(frozen=True)
class ShapeRuleClassifier:
    """Deterministic two-class (round vs. irregular) shape-based classifier.

    Combines modalities with fixed weights, thresholds, keeps the largest
    connected component, and maps its circularity through a logistic with
    the given cutoff and temperature. Class 0 is the round class.

    Each instance remembers the round-class probability of its recent
    thresholded fields, all of one shape, in about MEMO_BYTES of memory, so a
    perturbation that leaves the foreground as it was is not labeled again;
    and it holds its weights as a float64 row and the threshold's cut on
    their weighted sum (see _threshold_cut), made once. The memo, the row and
    the cut take no part in equality, hashing or repr. The memo is not
    locked: threads that share an instance must lock around predict.
    """

    modality_weights: tuple
    intensity_threshold: float = 0.5
    circularity_cutoff: float = 0.7
    softness: float = 0.1
    _memo: _ForegroundMemo = field(
        default_factory=_ForegroundMemo, init=False, repr=False, compare=False
    )
    _weight_row: np.ndarray = field(init=False, repr=False, compare=False)
    _cut: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = tuple(float(v) for v in self.modality_weights)
        if not w or any(not np.isfinite(v) or v < 0 for v in w):
            raise ValueError(f"weights must be finite and nonnegative: {w}")
        if sum(w) <= 0:
            raise ValueError("weights must not all be zero")
        if not 0 < self.intensity_threshold < 1:
            raise ValueError("intensity_threshold must lie in (0,1)")
        if not 0 < self.circularity_cutoff < 1:
            raise ValueError("circularity_cutoff must lie in (0,1)")
        if not self.softness > 0:
            raise ValueError("softness must be positive")
        object.__setattr__(self, "modality_weights", w)
        row = np.asarray(w, dtype=np.float64)[None]
        with np.errstate(over="ignore"):
            weight_sum = float(row.sum())
        if not math.isfinite(weight_sum):
            raise ValueError(f"weights must have a finite sum: {w}")
        # a 0-d array, which numpy compares a field against sooner than a float
        cut = np.array(_threshold_cut(self.intensity_threshold, weight_sum))
        row.setflags(write=False)
        cut.setflags(write=False)
        object.__setattr__(self, "_weight_row", row)
        object.__setattr__(self, "_cut", cut)

    predict = predict_shape_rule


def _threshold_cut(threshold, weight_sum):
    """The largest float64 x for which `x / weight_sum > threshold` is false.

    Correctly rounded division is monotone in x, so for every float64 x,
    NaN and infinities too, `x / weight_sum > threshold` holds exactly when
    `x > cut`. The cut lies in [0, inf], since 0 / weight_sum is 0. It is
    found by bisection over the bit patterns of the nonnegative float64s,
    which as integers are in the floats' order: 63 steps, where a walk by
    `math.nextafter` from threshold * weight_sum can take billions (5e11 at
    threshold 5e-324 and weight sum 1e12).
    """

    def value(bits):
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    lo, hi = 0, 0x7FF0000000000001  # the bits of 0.0, and one past those of inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if value(mid) / weight_sum > threshold:
            hi = mid
        else:
            lo = mid
    return value(lo)


def _shape_rule_probs(cfg, fg):
    """The shape rule's round-class probability for a thresholded field."""
    padded = _pad(fg)
    runs = _label_runs(padded)
    if runs is None:
        return 0.5
    # every foreground axis neighbour of a component pixel is in the component,
    # so its boundary count is its area less its foreground-interior pixels
    area = runs[3]
    perim = area - int(np.count_nonzero(_in_component(runs, _interior(padded))))
    c = _roundness(area, perim, fg.ndim)
    return float(_sigmoid((c - cfg.circularity_cutoff) / cfg.softness))


def accuracy(data, oracle) -> float:
    """Fraction of samples whose argmax prediction equals the label, the
    dataset's layout checked first (see _predictions); a label the oracle does
    not predict is a ValueError naming the sample. Argmax ties break toward
    the lower class index."""
    hits = [p.argmax == _checked_class(p, r.label, f"sample {r.sample_id}: label")
            for r, p in _predictions(data, oracle)]
    return sum(hits) / len(hits)


def predict_all(data, oracle):
    """Predict every sample: {sample_id: ClassProbabilities}."""
    return {record.sample_id: p for record, p in _predictions(data, oracle)}


def _predictions(data, oracle):
    """(record, prediction) of each sample of a dataset of one layout, checked
    before any oracle call (see tensorio._dataset), in order: one plan per
    sample through _evaluate, its volume as its head and no items. The records
    come from a second pass over the samples, which reads no payload of a view."""
    samples, _ = _dataset(data)
    plans = (_Plan(s.volume, (), None, lambda preds: preds[0], head=True) for s in samples)
    for record, (pred, _) in zip((s.record for s in samples), _evaluate(plans, oracle)):
        yield record, pred


class _Plan(NamedTuple):
    """One sample's share of an evaluation stream: `build(volume, item)` makes
    one volume per entry of `items` (a keep row, an occlusion window or a
    (voxels, donor data) pair), in item order; `reduce` turns the share's
    predictions, in order, into its result; `head` puts the volume itself
    first, evaluated apart from any equal perturbed volume; `zero`, if not
    None, is the position in `items` of one whose volume is all zeros, of either sign."""

    volume: MultiModalVolume
    items: Sequence
    build: Callable[[MultiModalVolume, object], MultiModalVolume]
    reduce: Callable[[list], object]
    head: bool = False
    zero: int | None = None


def _evaluate(plans, oracle):
    """Evaluate the plans' shares as one stream, each its head and then its
    items' volumes, built here and nowhere else; yield each plan's
    `reduce(predictions)` and its number of evaluations, in order. A `zero`
    item is not built: the one all-+0.0 volume of its dtype, shape and modality
    names is sent for the first plan that marks it and not for a later one,
    unless it is that plan's only evaluation: every plan has at least one, and
    a later plan's reduce gets the first one's prediction in its place. A batch
    oracle's chunks may span plans. `plans` is iterated once, as the stream
    reaches each plan, and no plan is held once reduced: only the plans that
    the current chunk spans are alive, and on the per-item path one, whose
    volumes are each built only after the one before it is predicted."""
    started = collections.deque()  # (plan, zero key, zero skipped): reached, not yet reduced
    sent, zeros = set(), {}  # the zero keys sent, and their predictions once reduced

    def stream():
        for plan in plans:
            key = skip = None
            if plan.zero is not None:
                key = (plan.volume.data.dtype, plan.volume.data.shape, plan.volume.modality_names)
                skip = key in sent and plan.head + len(plan.items) > 1
                sent.add(key)
            started.append((plan, key, skip))
            if plan.head:
                yield plan.volume
            for i, item in enumerate(plan.items):
                if i != plan.zero:
                    yield plan.build(plan.volume, item)
                elif not skip:
                    yield MultiModalVolume._trusted(key[2], np.zeros(key[1], key[0]))
            del plan  # not held while the next plan is made

    preds = predict_volumes(oracle, stream())
    for first in preds:
        plan, key, skip = started.popleft()
        n_evals = plan.head + len(plan.items) - bool(skip)
        got = [first, *itertools.islice(preds, n_evals - 1)]
        if skip:
            got.insert(plan.head + plan.zero, zeros[key])
        elif key is not None:
            zeros.setdefault(key, got[plan.head + plan.zero])
        yield plan.reduce(got), n_evals
        del plan


def predict_volumes(oracle, volumes):
    """Yield a prediction for each of an iterable of volumes, in input order;
    only _evaluate calls it. An oracle has `predict(volume)`, returning one
    ClassProbabilities, and may offer `predict_batch(volumes)`, used instead,
    returning one per volume of a list, in order. A prediction must be a
    function of the volume alone, in any call and any batch, whatever the
    sign of a zero: the saliency methods evaluate each distinct perturbation
    once and reuse its prediction, and a stream evaluates one all-+0.0 volume
    in place of the all-drop row, which may hold -0.0, of every sample whose
    volume has its dtype, shape and modality names.

    A batch oracle gets lists of up to BATCH_BYTES of volume data; a volume
    larger than the budget goes alone, and a call that returns a different
    number of predictions than it was given volumes is a RuntimeError. Any
    other oracle gets one `predict` per volume as the iterable yields it, so
    a generator of perturbed volumes is never held in full.
    """
    batch = getattr(oracle, "predict_batch", None)
    if batch is None:
        yield from map(oracle.predict, volumes)
        return
    chunk, size = [], 0
    for volume in volumes:
        if chunk and size + volume.data.nbytes > BATCH_BYTES:
            yield from _predict_chunk(batch, chunk)
            chunk, size = [], 0
        chunk.append(volume)
        size += volume.data.nbytes
    if chunk:
        yield from _predict_chunk(batch, chunk)


def _predict_chunk(batch, volumes):
    out = list(batch(volumes))
    if len(out) != len(volumes):
        raise RuntimeError(
            f"predict_batch returned {len(out)} predictions for {len(volumes)} volumes"
        )
    return out


class ExternalCommandOracle:
    """Adapter for an external scorer: `<command> {input_dir} {output_csv}`.

    Each batch call writes the volumes plus a manifest.json to a fresh input
    directory under TMPDIR, invokes the command once (its stdout and stderr
    read as UTF-8 with replacement), and reads the output CSV, headed
    `sample_id,p0,...,p{C-1}` for C classes, with tensorio._read_csv. The
    batch's sample ids are its positions, "0".."n-1". The batch manifest
    carries `class_names`, which should be the dataset manifest's; every
    record's label in it is 0, a placeholder the scorer must not read. The
    template has no other field; `{{` and `}}` are braces.
    """

    def __init__(self, command_template, class_names=("class0", "class1")):
        parts = _command_parts(command_template)
        self.class_names = tuple(str(c) for c in class_names)
        if len(self.class_names) < 2:
            raise ValueError(f"need at least two class names, got {self.class_names}")
        self.command = parts

    def predict(self, volume: MultiModalVolume) -> ClassProbabilities:
        return self.predict_batch([volume])[0]

    def predict_batch(self, volumes):
        # imported here, as the built-in oracle never spawns a process
        import subprocess
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            input_dir = tmp / "input"
            input_dir.mkdir()
            ids = [str(i) for i in range(len(volumes))]
            records = tuple(
                ManifestRecord(sid, 0, str(input_dir / f"{sid}.mmv")) for sid in ids
            )
            manifest = DatasetManifest(records, self.class_names)
            for record, volume in zip(records, volumes):
                write_volume(volume, record.volume_path)
            save_manifest(manifest, input_dir / "manifest.json")
            output_csv = str(tmp / "predictions.csv")
            cmd = [p.format(input_dir=str(input_dir), output_csv=output_csv) for p in self.command]
            proc = subprocess.run(cmd, capture_output=True, encoding="utf-8", errors="replace")
            if proc.returncode != 0:
                raise RuntimeError(
                    f"external oracle exited with {proc.returncode}: "
                    f"{proc.stderr.strip() or proc.stdout.strip()}"
                )
            return _parse_prediction_csv(output_csv, ids, self.class_names)


def _command_parts(template):
    """The template split as a shell would, each part to be filled by
    str.format; a template whose fields are not {input_dir} and {output_csv},
    bare, or that does not split or parse, is a ValueError."""
    import shlex
    import string

    try:
        parts = shlex.split(template)
        # (field, format spec, conversion) of each field; None stands for trailing text
        fields = [(f, spec, conv) for part in parts
                  for _, f, spec, conv in string.Formatter().parse(part) if f is not None]
    except ValueError as exc:
        raise ValueError(f"command template: {exc}") from None
    names = {f for f, _, _ in fields}
    if names != {"input_dir", "output_csv"}:
        named = " ".join(f"{{{f}}}" for f in sorted(names)) or "none"
        raise ValueError(
            f"command template fields: {named}; it must have {{input_dir}} and "
            "{output_csv} and no other (write {{ and }} for a literal brace)"
        )
    for f, spec, conv in fields:
        if spec or conv:
            written = f"{{{f}{'!' + conv if conv else ''}{':' + spec if spec else ''}}}"
            raise ValueError(
                f"command template field {written} has a conversion or format spec; "
                f"write {{{f}}}"
            )
    return parts


def _parse_prediction_csv(path, expected_ids, class_names):
    header = ["sample_id", *(f"p{i}" for i in range(len(class_names)))]
    try:
        table = _read_csv(path, header, header[1:])
    except OSError as exc:
        raise RuntimeError(f"external oracle produced no output CSV: {exc}") from exc
    except ValueError as exc:
        raise RuntimeError(str(exc)) from exc
    rows = {}
    for line, (sid, *probs) in table.items():
        if sid in rows:
            raise RuntimeError(f"{path}: line {line}: duplicate predictions for {sid}")
        try:
            rows[sid] = ClassProbabilities(probs)
        except ValueError as exc:
            raise RuntimeError(f"{path}: line {line}: {exc}") from exc
    missing = [sid for sid in expected_ids if sid not in rows]
    if missing:
        raise RuntimeError(f"{path}: missing predictions for {missing}")
    unexpected = sorted(rows.keys() - set(expected_ids))
    if unexpected:
        raise RuntimeError(f"{path}: predictions for samples not in the batch: {unexpected}")
    return [rows[sid] for sid in expected_ids]
