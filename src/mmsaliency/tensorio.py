"""Typed containers and file I/O for multi-modal volumes, masks, and saliency maps.

The on-disk format ("MMV") is one UTF-8 JSON header line terminated by '\\n',
followed immediately by the raw payload: little-endian IEEE-754 float32,
modality-major, row-major within each modality. Writes round-trip bit-exactly.
All containers are immutable after construction.
"""

from __future__ import annotations

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
    """An MMV file, or a JSON entry of a file the CLI reads, is malformed."""


# bool is neither a JSON integer nor a number, and numbers are finite
_JSON_TYPES = {
    "integer": lambda v: type(v) is int,
    "number": lambda v: type(v) in (int, float) and math.isfinite(v),
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


def _freeze(data, modality_names, *, binary=False):
    """Validate and return the canonical read-only float array for a field.

    float32 input stays float32 (the file payload dtype); everything else is
    held as float64. Writing a float64 field quantizes it to f32le on disk.
    """
    names = tuple(str(n) for n in modality_names)
    if not names:
        raise ValueError("at least one modality is required")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate modality names: {names}")
    arr = np.asarray(data)
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
    if not np.isfinite(arr).all():
        raise ValueError("data contains non-finite values")
    if binary:
        if not np.logical_or(arr == 0.0, arr == 1.0).all():
            raise ValueError("mask values must be 0 or 1")
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
    def _masked(cls, volume, keep):
        """`volume` times `keep`, an array of its shape that is bool or holds
        0 and 1 in the volume's dtype, made without the checks of _freeze:
        that product of a validated volume keeps its dtype, shape and
        finiteness."""
        data = volume.data * keep
        data.setflags(write=False)
        masked = object.__new__(cls)
        object.__setattr__(masked, "modality_names", volume.modality_names)
        object.__setattr__(masked, "data", data)
        return masked


@dataclass(frozen=True, eq=False)
class SegmentationMask(_Field):
    """Per-modality binary feature-localization field aligned with a volume."""

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


def _read_field(cls, path, broadcast_to=None):
    """Read an MMV file of kind cls.KIND; a single-modality file may be
    repeated onto the `broadcast_to` names."""
    with open(path, "rb") as fp:
        line = fp.readline()
        payload = fp.read()
    if not line.endswith(b"\n"):
        raise MMVFormatError(f"{path}: missing header line terminator")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MMVFormatError(f"{path}: malformed header: {exc}") from exc
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
    expected = 4 * len(modalities) * int(np.prod(dims))
    if len(payload) != expected:
        raise MMVFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape(len(modalities), *dims)
    if broadcast_to is not None and len(modalities) == 1 and len(broadcast_to) > 1:
        data = np.repeat(data, len(broadcast_to), axis=0)
        modalities = list(broadcast_to)
    try:
        return cls(tuple(modalities), data)
    except ValueError as exc:
        raise MMVFormatError(f"{path}: {exc}") from exc


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
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")


def load_manifest(path) -> DatasetManifest:
    """Load a manifest and resolve its volume and mask paths, failing if one is missing."""
    path = Path(path)
    with open(path, encoding="utf-8") as fp:
        doc = json.load(fp)

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


def load_dataset(manifest: DatasetManifest):
    """Load all volumes (and masks, broadcast if single-modality) into memory.

    Every volume and mask must list the first volume's modality names, in
    its order: the channels are read by position.
    """
    samples, names = [], None
    for rec in manifest.records:
        try:
            volume = read_volume(rec.volume_path)
            mask = None
            if rec.mask_path is not None:
                mask = read_mask(rec.mask_path, broadcast_to=volume.modality_names)
        except (OSError, MMVFormatError) as exc:
            raise type(exc)(f"{rec.sample_id}: {exc}") from exc
        names = names or volume.modality_names
        for field, path in ((volume, rec.volume_path), (mask, rec.mask_path)):
            if field is not None and field.modality_names != names:
                raise ValueError(
                    f"{rec.sample_id}: {path} lists modalities {list(field.modality_names)}, "
                    f"but the first volume lists {list(names)}"
                )
        if mask is not None and mask.data.shape != volume.data.shape:
            raise ValueError(
                f"{rec.sample_id}: mask shape {mask.data.shape} does not match "
                f"volume shape {volume.data.shape}"
            )
        samples.append(LoadedSample(rec, volume, mask))
    return samples
