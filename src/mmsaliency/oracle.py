"""Black-box prediction oracles: the contract, a reference shape classifier,
and an external batch-command adapter.

The reference classifier grades a combined image by the circularity of its
largest thresholded component, so the whole attribution pipeline is testable
without any trained model. Real models plug in through the batch protocol.
"""

from __future__ import annotations

import csv
import math
import shlex
import string
import struct
import subprocess
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from .tensorio import (
    DatasetManifest,
    ManifestRecord,
    MultiModalVolume,
    save_manifest,
    write_volume,
)

PROB_TOL = 1e-6
# Volume bytes per predict_batch call; one BraTS volume (4 x 240 x 240 x 155
# float32) is about 143 MB.
BATCH_BYTES = 512 << 20
# Bytes of memory a classifier's foreground memo may hold, each entry counted
# as its packed key plus MEMO_ENTRY_BYTES (435-476 by tracemalloc): 2202 fields
# of 64x64, 2880 of 48x48, 4681 of 8x8; a field larger than this is kept alone.
MEMO_BYTES = 2 << 20
MEMO_ENTRY_BYTES = 440


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


@runtime_checkable
class PredictionOracle(Protocol):
    """One prediction per volume. An oracle may also offer
    `predict_batch(volumes)`, taking a list of volumes and returning one
    ClassProbabilities per volume, in order; `predict_volumes` then sends it
    chunks.

    A prediction must be a function of the input volume alone: equal volumes
    get equal probabilities, in any call and any batch. The saliency methods
    evaluate each distinct perturbation once and reuse its prediction.
    """

    def predict(self, volume: MultiModalVolume) -> ClassProbabilities: ...


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
    """Predictions by (shape, packed bits) of a thresholded field, least
    recently used first. Each entry counts as its packed key plus
    MEMO_ENTRY_BYTES, and the entries besides the newest count at most
    MEMO_BYTES in all. Only get and add change the entries, so the count
    stays true."""

    def __init__(self):
        self._entries = OrderedDict()
        self.nbytes = 0

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def get(self, key):
        """The remembered prediction, now the most recent, or None."""
        probs = self._entries.get(key)
        if probs is not None:
            self._entries.move_to_end(key)
        return probs

    def add(self, key, probs):
        self._entries[key] = probs
        self.nbytes += len(key[1]) + MEMO_ENTRY_BYTES
        while self.nbytes > MEMO_BYTES and len(self._entries) > 1:
            old, _ = self._entries.popitem(last=False)
            self.nbytes -= len(old[1]) + MEMO_ENTRY_BYTES


@dataclass(frozen=True)
class ShapeRuleClassifier:
    """Deterministic two-class (round vs. irregular) shape-based classifier.

    Combines modalities with fixed weights, thresholds, keeps the largest
    connected component, and maps its circularity through a logistic with
    the given cutoff and temperature. Class 0 is the round class.

    Each instance remembers the predictions of its recent thresholded fields
    in about MEMO_BYTES of memory, so a perturbation that leaves the
    foreground as it was is not labeled again, and holds its weights as a
    float64 row and the threshold's cut on their weighted sum (see
    _threshold_cut), made once. The memo, the row and the cut take no part
    in equality, hashing or repr. The memo is not locked: threads that share
    an instance must lock around predict.
    """

    modality_weights: tuple
    intensity_threshold: float = 0.5
    circularity_cutoff: float = 0.7
    softness: float = 0.1
    _memo: _ForegroundMemo = field(
        default_factory=_ForegroundMemo, init=False, repr=False, compare=False
    )
    _weight_row: np.ndarray = field(init=False, repr=False, compare=False)
    _cut: float = field(init=False, repr=False, compare=False)

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
        row.setflags(write=False)
        object.__setattr__(self, "_weight_row", row)
        object.__setattr__(self, "_cut", _threshold_cut(self.intensity_threshold, weight_sum))

    def predict(self, volume: MultiModalVolume) -> ClassProbabilities:
        return predict_shape_rule(self, volume)


def predict_shape_rule(cfg: ShapeRuleClassifier, volume: MultiModalVolume):
    """Apply the shape rule; empty foreground yields uniform probabilities.

    The uniform output is a documented degenerate case, not an error:
    modality ablation legitimately empties the foreground. Everything after
    the threshold reads only the foreground and cfg, so a foreground met
    before gets its remembered prediction, the very one labeling would give.
    """
    w = cfg._weight_row
    if w.shape[1] != volume.n_modalities:
        raise ValueError(
            f"classifier has {w.shape[1]} weights but volume has "
            f"{volume.n_modalities} modalities"
        )
    data = volume.data.astype(np.float64, copy=False)
    # the product tensordot(w, data, axes=(0, 0)) computes, without its set-up;
    # above the cut exactly where its quotient by the weight sum is above the
    # threshold. fg is one flat row, its bits in C order as the field's.
    fg = np.dot(w, data.reshape(w.shape[1], -1)) > cfg._cut
    key = (data.shape[1:], np.packbits(fg).tobytes())
    probs = cfg._memo.get(key)
    if probs is None:
        probs = _shape_rule_probs(cfg, fg.reshape(data.shape[1:]))
        cfg._memo.add(key, probs)
    return probs


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
    """The shape rule's prediction for a thresholded field."""
    padded = _pad(fg)
    runs = _label_runs(padded)
    if runs is None:
        return ClassProbabilities((0.5, 0.5))
    # every foreground axis neighbour of a component pixel is in the component,
    # so its boundary count is its area less its foreground-interior pixels
    area = runs[3]
    perim = area - int(np.count_nonzero(_in_component(runs, _interior(padded))))
    c = _roundness(area, perim, fg.ndim)
    p_round = float(_sigmoid((c - cfg.circularity_cutoff) / cfg.softness))
    return ClassProbabilities((p_round, 1.0 - p_round))


def _iter_samples(data):
    """The loaded samples as a list; an empty dataset is a ValueError."""
    samples = list(data)
    if not samples:
        raise ValueError("empty dataset")
    return samples


def accuracy(data, oracle) -> float:
    """Fraction of samples whose argmax prediction equals the label.

    Argmax ties break toward the lower class index.
    """
    samples = _iter_samples(data)
    preds = predict_all(samples, oracle)
    hits = sum(
        1 for s in samples if preds[s.record.sample_id].argmax == s.record.label
    )
    return hits / len(samples)


def predict_all(samples, oracle):
    """Predict every sample: {sample_id: ClassProbabilities}."""
    preds = predict_volumes(oracle, (s.volume for s in samples))
    return {s.record.sample_id: p for s, p in zip(samples, preds)}


def predict_volumes(oracle, volumes):
    """Yield a prediction for each of an iterable of volumes, in input order.

    An oracle with `predict_batch` gets lists of up to BATCH_BYTES of volume
    data; a volume larger than the budget goes alone, and a call that returns
    a different number of predictions than it was given volumes is a
    RuntimeError. Any other oracle gets one `predict` per volume as the
    iterable yields it, so a generator of perturbed volumes is never held in
    full.
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
    directory under TMPDIR, invokes the command once, and parses the output CSV
    (`sample_id,p0,p1[,...]`, one row per sample and one probability column
    per class). The batch's sample ids are its positions, "0".."n-1". The
    batch manifest carries `class_names`, which should be the dataset
    manifest's; every record's label in it is 0, a placeholder the scorer
    must not read. The template has no other field; `{{` and `}}` are braces.
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
            proc = subprocess.run(cmd, capture_output=True, text=True)
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
    try:
        fp = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise RuntimeError(f"external oracle produced no output CSV: {exc}") from exc
    with fp:
        reader = csv.reader(fp)
        header = next(reader, None)
        if not header or header[0] != "sample_id":
            raise RuntimeError(f"{path}: expected header sample_id,p0,p1[,...]")
        if len(header) - 1 != len(class_names):
            raise RuntimeError(
                f"{path}: {len(header) - 1} probability columns for "
                f"{len(class_names)} classes {list(class_names)}"
            )
        rows = {}
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise RuntimeError(f"{path}: ragged row {row}")
            try:
                probs = ClassProbabilities(tuple(float(v) for v in row[1:]))
            except ValueError as exc:
                raise RuntimeError(f"{path}: row {row[0]}: {exc}") from exc
            if row[0] in rows:
                raise RuntimeError(f"{path}: duplicate predictions for {row[0]}")
            rows[row[0]] = probs
    missing = [sid for sid in expected_ids if sid not in rows]
    if missing:
        raise RuntimeError(f"{path}: missing predictions for {missing}")
    unexpected = sorted(rows.keys() - set(expected_ids))
    if unexpected:
        raise RuntimeError(f"{path}: predictions for samples not in the batch: {unexpected}")
    return [rows[sid] for sid in expected_ids]
