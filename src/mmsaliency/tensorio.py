"""Typed containers for volumes, masks and saliency maps, and all of the file I/O.

The on-disk format ("MMV") is one UTF-8 JSON header line terminated by '\\n',
followed immediately by the raw payload: little-endian IEEE-754 float32,
modality-major, row-major within each modality. Writes round-trip bit-exactly.
All containers are immutable after construction.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import reprlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MMV_VERSION = 1
KIND_VOLUME = "volume"
KIND_MASK = "mask"
KIND_SALIENCY = "saliency"


class MMVFormatError(ValueError):
    """An MMV file, or a JSON document or CSV table the toolkit reads, is malformed."""


def _finite(number):
    """Whether an int or float is finite as a float: an int too large for
    one is not."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


# bool is neither a JSON integer nor a number, and numbers are finite
_JSON_TYPES = {
    "integer": lambda v: type(v) is int,
    "number": lambda v: type(v) in (int, float) and _finite(v),
    "string": lambda v: type(v) is str,
    "array": lambda v: type(v) is list,
    "object": lambda v: type(v) is dict,
}


def _json_entry(doc, key, kind, where, each=None):
    """doc[key] when it has the JSON type `kind` and, given `each`, so does every
    element or value of it; else an MMVFormatError naming `where` (the file),
    the key and the bad value."""
    if type(doc) is not dict or key not in doc:
        raise MMVFormatError(
            f"{where}: expected a JSON object with a {key!r} entry, got {reprlib.repr(doc)}"
        )
    value = doc[key]
    if not _JSON_TYPES[kind](value):
        raise MMVFormatError(f"{where}: {key} must be a JSON {kind}, got {reprlib.repr(value)}")
    for k, item in (value.items() if kind == "object" else enumerate(value)) if each else ():
        if not _JSON_TYPES[each](item):
            raise MMVFormatError(
                f"{where}: {key} entry {k!r} must be a JSON {each}, got {reprlib.repr(item)}"
            )
    return value


def _read_json(where, data=None):
    """The JSON document in the bytes `data`, or if None in the file at `where`,
    decoded as UTF-8; one not UTF-8 or not JSON is an MMVFormatError naming `where`."""
    try:
        return json.loads((Path(where).read_bytes() if data is None else data).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MMVFormatError(f"{where}: {exc}") from exc


def _write_text(path, text):
    """Write `text` at `path` as UTF-8, with "\\n" line ends on every platform."""
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _write_json(path, doc):
    """Write `doc` as JSON, indented, with sorted keys and one final newline."""
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path, rows):
    """Write `rows` as a CSV table, quoted by the `csv` module, each row ending "\\n"."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    _write_text(path, text.getvalue())


def _read_csv(path, header, numbers=()):
    """{line number: row} of the rows under `header` in the UTF-8 CSV file at
    `path`, blank rows skipped, each of the header's length and with finite
    floats in the `numbers` columns; else an MMVFormatError naming the file
    and, unless the header is wrong, the line."""
    lines = Path(path).read_bytes().splitlines(keepends=True)
    reader = csv.reader(line.decode("utf-8") for line in lines)
    try:
        rows = [(reader.line_num, row) for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as exc:  # a line that fails to decode is not yet read
        line = reader.line_num + isinstance(exc, UnicodeDecodeError)
        raise MMVFormatError(f"{path}: line {line}: {exc}") from exc
    if not rows:
        raise MMVFormatError(f"{path}: empty file, expected header {header}")
    (_, found), *rows = rows
    if found != header:
        raise MMVFormatError(f"{path}: unexpected header {found}, expected {header}")
    for line, row in rows:
        if len(row) != len(header):
            raise MMVFormatError(
                f"{path}: line {line}: row {row} does not have the columns {header}")
        for i in map(header.index, numbers):
            try:
                value = float(row[i])
            except ValueError:  # not a number: rejected with nan and inf below
                value = math.nan
            if not math.isfinite(value):
                raise MMVFormatError(
                    f"{path}: line {line}: {header[i]!r} must be a finite number, got {row[i]!r}"
                )
            row[i] = value
    return dict(rows)


def _freeze(data, modality_names, *, binary=False):
    """Validate and return the canonical read-only array for a field.

    float32 input stays float32 (the file payload dtype); everything else is
    held as float64. Writing a float64 field quantizes it to f32le on disk.
    A binary field (a mask) is held as bool, one byte per voxel: bool input
    as it is, and any other input only if its every value is 0 or 1.
    """
    names = tuple(str(n) for n in modality_names)
    if not names:
        raise ValueError("at least one modality is required")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate modality names: {names}")
    arr = np.asarray(data)
    if binary and arr.dtype == bool:
        dtype = bool
    else:
        dtype = np.float32 if arr.dtype == np.float32 else np.float64
    arr = np.ascontiguousarray(arr, dtype=dtype)
    if arr.ndim not in (3, 4):
        raise ValueError(
            f"data must have shape (M, H, W) or (M, H, W, D), got {arr.shape}"
        )
    if arr.shape[0] != len(names):
        raise ValueError(
            f"{len(names)} modality names but data has {arr.shape[0]} modalities"
        )
    if min(arr.shape) < 1:
        raise ValueError(f"all dimensions must be positive, got {arr.shape}")
    if dtype is not bool:
        if not np.isfinite(arr).all():
            raise ValueError("data contains non-finite values")
        if binary:
            ones = arr == 1.0
            if not (ones | (arr == 0.0)).all():
                raise ValueError("mask values must be 0 or 1")
            arr = ones
    arr.setflags(write=False)
    return names, arr


@dataclass(frozen=True, eq=False)
class _Field:
    """Per-modality field of shape (M, H, W) or (M, H, W, D); KIND names its MMV kind."""

    KIND = None

    modality_names: tuple
    data: np.ndarray

    def __post_init__(self):
        names, arr = _freeze(self.data, self.modality_names, binary=self.KIND == KIND_MASK)
        object.__setattr__(self, "modality_names", names)
        object.__setattr__(self, "data", arr)

    @property
    def n_modalities(self):
        return len(self.modality_names)

    @property
    def dims(self):
        return self.data.shape[1:]


@dataclass(frozen=True, eq=False)
class MultiModalVolume(_Field):
    """Dense real-valued image with one channel per modality.

    data has shape (M, H, W) or (M, H, W, D) and is finite float32.
    """

    KIND = KIND_VOLUME

    def with_data(self, data):
        return MultiModalVolume(self.modality_names, data)

    @classmethod
    def _trusted(cls, modality_names, data):
        """A volume made without the checks of _freeze, for data that pass
        them: a fresh finite array of a checked volume's dtype and shape,
        made read-only here, and that volume's names."""
        data.setflags(write=False)
        volume = object.__new__(cls)
        object.__setattr__(volume, "modality_names", modality_names)
        object.__setattr__(volume, "data", data)
        return volume

    @classmethod
    def _masked(cls, volume, keep):
        """`volume` times `keep`, an array of its shape, or of its dims to be
        broadcast over the modalities, that is bool or holds 0 and 1 in the
        volume's dtype, made by _trusted: that product of a validated volume
        keeps its dtype, shape and finiteness, and a dropped negative voxel
        or -0.0 becomes -0.0 (see oracle._evaluate for the all-drop row)."""
        return cls._trusted(volume.modality_names, volume.data * keep)


@dataclass(frozen=True, eq=False)
class SegmentationMask(_Field):
    """Per-modality binary feature-localization field aligned with a volume.

    data is bool, True inside the feature; it is made from bool data, or from
    numbers that are all 0 or 1. On disk it is f32le 0.0 and 1.0.
    """

    KIND = KIND_MASK


@dataclass(frozen=True, eq=False)
class SaliencyMap(_Field):
    """Per-modality real importance field aligned with a volume.

    postprocessed=True asserts values already lie in [0, 1].
    """

    KIND = KIND_SALIENCY

    postprocessed: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.postprocessed and (self.data.min() < 0.0 or self.data.max() > 1.0):
            raise ValueError("postprocessed saliency values must lie in [0, 1]")


def _encode_header(kind, modality_names, dims):
    header = {
        "mmv": MMV_VERSION,
        "kind": kind,
        "modalities": list(modality_names),
        "dims": [int(d) for d in dims],
        "dtype": "f32le",
    }
    return json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"


def _write_field(field, path):
    payload = np.ascontiguousarray(field.data, dtype="<f4")
    with open(path, "wb") as fp:
        fp.write(_encode_header(field.KIND, field.modality_names, field.dims))
        fp.write(payload.tobytes(order="C"))


def _read_header(cls, fp, path, broadcast_to=None):
    """The modality names and data shape of the MMV file of kind cls.KIND
    open as `fp`, as _read_field reads it, from its header line; fp is left
    at the payload, whose size is checked against the file's length."""
    line = fp.readline()
    if not line.endswith(b"\n"):
        raise MMVFormatError(f"{path}: missing header line terminator")
    header = _read_json(f"{path}: malformed header", line)
    if _json_entry(header, "mmv", "integer", path) != MMV_VERSION:
        raise MMVFormatError(f"{path}: not an MMV v{MMV_VERSION} header")
    kind = _json_entry(header, "kind", "string", path)
    if kind != cls.KIND:
        raise MMVFormatError(f"{path}: expected kind {cls.KIND!r}, found {kind!r}")
    if _json_entry(header, "dtype", "string", path) != "f32le":
        raise MMVFormatError(f"{path}: unsupported dtype {header['dtype']!r}")
    modalities = _json_entry(header, "modalities", "array", path, each="string")
    dims = _json_entry(header, "dims", "array", path, each="integer")
    if not modalities:
        raise MMVFormatError(f"{path}: invalid modality list")
    if len(dims) not in (2, 3) or min(dims) < 1:
        raise MMVFormatError(f"{path}: invalid dims {dims!r}")
    expected = 4 * len(modalities) * math.prod(dims)
    size = os.fstat(fp.fileno()).st_size - fp.tell()
    if size != expected:
        raise MMVFormatError(f"{path}: payload is {size} bytes, expected {expected}")
    if broadcast_to is not None and len(modalities) == 1 and len(broadcast_to) > 1:
        modalities = broadcast_to
    return tuple(modalities), (len(modalities), *dims)


def _read_field(cls, path, broadcast_to=None):
    """Read an MMV file of kind cls.KIND; a single-modality file may be
    repeated onto the `broadcast_to` names, once its one channel is checked
    and held in the field's dtype."""
    with open(path, "rb") as fp:
        names, shape = _read_header(cls, fp, path, broadcast_to)
        data = np.frombuffer(fp.read(), dtype="<f4").reshape(-1, *shape[1:])
    try:
        field = cls(names[:len(data)], data)
        if len(data) != len(names):
            field = cls(names, np.repeat(field.data, len(names), axis=0))
        return field
    except ValueError as exc:
        raise MMVFormatError(f"{path}: {exc}") from exc


def _field_header(cls, path, broadcast_to=None):
    """(path, modality names, data shape) of an MMV file as _read_field would
    read it, from its header and its length, without reading the payload."""
    with open(path, "rb") as fp:
        return (path, *_read_header(cls, fp, path, broadcast_to))


def write_volume(volume: MultiModalVolume, path):
    """Write a volume in MMV format. Round-trips bit-exactly through read_volume."""
    _write_field(volume, path)


def read_volume(path) -> MultiModalVolume:
    return _read_field(MultiModalVolume, path)


def write_mask(mask: SegmentationMask, path):
    _write_field(mask, path)


def read_mask(path, broadcast_to=None) -> SegmentationMask:
    """Read a mask; a single-modality file may be broadcast to `broadcast_to` names."""
    return _read_field(SegmentationMask, path, broadcast_to)


def write_saliency(smap: SaliencyMap, path):
    _write_field(smap, path)


def read_saliency(path) -> SaliencyMap:
    return _read_field(SaliencyMap, path)


@dataclass(frozen=True)
class ManifestRecord:
    sample_id: str
    label: int
    volume_path: str
    mask_path: str | None = None


@dataclass(frozen=True, eq=False)
class DatasetManifest:
    """List of samples with class names; paths are resolvable on load."""

    records: tuple
    class_names: tuple

    def __post_init__(self):
        records = tuple(self.records)
        names = tuple(str(c) for c in self.class_names)
        ids = [r.sample_id for r in records]
        if len(set(ids)) != len(ids):
            raise ValueError("sample_ids must be unique")
        for r in records:
            sid = str(r.sample_id)
            if sid in ("", ".", "..") or "/" in sid or "\\" in sid:
                raise ValueError(f"unsafe sample_id {sid!r}: ids are used as file names")
            if not 0 <= r.label < len(names):
                raise ValueError(
                    f"{r.sample_id}: label {r.label} out of range for {len(names)} classes"
                )
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "class_names", names)

    def __len__(self):
        return len(self.records)


def save_manifest(manifest: DatasetManifest, path):
    """Write the manifest as JSON; paths under the manifest dir become relative."""
    path = Path(path)
    base = path.parent.resolve()

    def _rel(p):
        if p is None:
            return None
        rp = Path(p).resolve()  # relative record paths are CWD-relative
        try:
            return rp.relative_to(base).as_posix()
        except ValueError:
            return str(rp)

    doc = {
        "class_names": list(manifest.class_names),
        "records": [
            {
                "sample_id": r.sample_id,
                "label": r.label,
                "volume": _rel(r.volume_path),
                "mask": _rel(r.mask_path),
            }
            for r in manifest.records
        ],
    }
    _write_json(path, doc)


def load_manifest(path) -> DatasetManifest:
    """Load a manifest and resolve its volume and mask paths, failing if one is missing."""
    path = Path(path)
    doc = _read_json(path)

    def _path(rec, key, sid):
        full = path.parent / _json_entry(rec, key, "string", f"{path}: {sid}")
        if not full.exists():
            raise FileNotFoundError(f"{sid}: referenced path {full} does not exist")
        return str(full)

    def _record(i, rec):
        sid = _json_entry(rec, "sample_id", "string", f"{path}: record {i}")
        return ManifestRecord(
            sample_id=sid,
            label=_json_entry(rec, "label", "integer", f"{path}: {sid}"),
            volume_path=_path(rec, "volume", sid),
            mask_path=None if rec.get("mask") is None else _path(rec, "mask", sid),
        )

    records = _json_entry(doc, "records", "array", path, each="object")
    class_names = _json_entry(doc, "class_names", "array", path, each="string")
    return DatasetManifest(tuple(_record(i, r) for i, r in enumerate(records)), tuple(class_names))


@dataclass(frozen=True, eq=False)
class LoadedSample:
    record: ManifestRecord
    volume: MultiModalVolume
    mask: SegmentationMask | None


class DatasetView:
    """A manifest's samples, whose payloads are read only when a command uses them.

    Made by checking every volume and mask header, before any payload is
    read: each must be a valid MMV header whose payload size the file's
    length bears out, and all keep to one `layout` (see _fit_layout; None
    for an empty manifest), a single-modality mask broadcast to its volume's
    names. A failed check is an error that names the sample. Iteration then
    yields one _ViewSample at a time, in manifest order, and holds none of
    them: a sample reads its volume and its mask each on first access, so a
    command that never takes a sample's mask, or its volume, never reads
    that file's payload. Each pass reads the files again.
    """

    def __init__(self, manifest: DatasetManifest):
        self.records = manifest.records
        self.layout = None
        for rec in self.records:
            with _naming(rec):
                fields = [_field_header(MultiModalVolume, rec.volume_path)]
                if rec.mask_path is not None:
                    fields.append(_field_header(SegmentationMask, rec.mask_path, fields[0][1]))
            self.layout = _fit_layout(self.layout, rec.sample_id, *fields)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        for rec in self.records:
            # yielded without a name, so that no sample is held while the next is read
            yield _ViewSample(rec, self.layout)


class _ViewSample:
    """A DatasetView's sample: its record, and its volume and its mask (None
    without a mask path), each read on first access, checked against the
    view's layout by _fit_layout, and kept."""

    def __init__(self, record, layout):
        self.record = record
        self._layout = layout

    @functools.cached_property
    def volume(self):
        return self._read(read_volume, self.record.volume_path)

    @functools.cached_property
    def mask(self):
        path = self.record.mask_path
        return None if path is None else self._read(read_mask, path, self._layout[0])

    def _read(self, read, path, *args):
        with _naming(self.record):
            field = read(path, *args)
        _fit_layout(self._layout, self.record.sample_id,
                    (path, field.modality_names, field.data.shape))
        return field


def _fit_layout(layout, sample_id, *fields):
    """The dataset's layout, (modality names, data shape), once a sample fits
    it; `layout` is None before the first sample, whose volume fixes it.

    The fields, each (path, modality names, data shape), are the sample's
    volume and then its mask if any, or a map file in the volume's place.
    Each must list the layout's names in its order, as channels are read by
    position, and have its shape; else a ValueError names the sample and the file.
    """
    names, shape = layout = layout or fields[0][1:]
    for path, field_names, field_shape in fields:
        if field_names != names:
            raise ValueError(
                f"{sample_id}: {path} lists modalities {list(field_names)}, "
                f"but the first volume lists {list(names)}"
            )
        if field_shape != shape:
            raise ValueError(
                f"{sample_id}: {path} has dims {list(field_shape[1:])}, "
                f"but the first volume has {list(shape[1:])}"
            )
    return layout


def _fit_sample(layout, sample):
    """_fit_layout of a loaded sample's volume and mask, at its record's paths."""
    rec = sample.record
    fields = [(rec.volume_path, sample.volume), (rec.mask_path, sample.mask)]
    return _fit_layout(layout, rec.sample_id, *[
        (path, f.modality_names, f.data.shape) for path, f in fields if f is not None])


def _dataset(data):
    """(samples, layout) of a DatasetView, as it is, or of any other iterable
    of loaded samples as a list, each checked by _fit_layout against the
    first. An empty dataset is a ValueError."""
    if isinstance(data, DatasetView):
        samples, layout = data, data.layout
    else:
        samples, layout = list(data), None
        for sample in samples:
            layout = _fit_sample(layout, sample)
    if not samples:
        raise ValueError("empty dataset")
    return samples, layout


@contextlib.contextmanager
def _naming(rec):
    """Put the sample id in front of a read error's message."""
    try:
        yield
    except (OSError, MMVFormatError) as exc:
        raise type(exc)(f"{rec.sample_id}: {exc}") from exc


def load_dataset(manifest: DatasetManifest):
    """Every sample of a manifest, its volume and its mask read into memory,
    as a list of LoadedSample.

    The samples of a DatasetView of the manifest, so every header is checked,
    one layout among them, before any payload is read, and each payload is
    read and checked as the view reads it, the volume before the mask. A
    DatasetView itself holds one sample at a time, and reads only the
    payloads a command uses.
    """
    return [LoadedSample(s.record, s.volume, s.mask) for s in DatasetView(manifest)]
