import json
import re
from pathlib import Path

import numpy as np
import pytest

from mmsaliency.tensorio import (
    DatasetManifest,
    ManifestRecord,
    MMVFormatError,
    MultiModalVolume,
    SaliencyMap,
    SegmentationMask,
    _encode_header,
    _json_entry,
    load_dataset,
    load_manifest,
    read_mask,
    read_volume,
    save_manifest,
    write_mask,
    write_volume,
)


def test_roundtrip_tiny_volume(tmp_path):
    vol = MultiModalVolume(("m0",), np.array([[[0.0, 1.0], [2.0, 3.0]]]))
    path = tmp_path / "v.mmv"
    write_volume(vol, path)
    raw = path.read_bytes()
    header, payload = raw.split(b"\n", 1)
    assert json.loads(header) == {
        "mmv": 1,
        "kind": "volume",
        "modalities": ["m0"],
        "dims": [2, 2],
        "dtype": "f32le",
    }
    assert len(payload) == 16
    back = read_volume(path)
    assert back.modality_names == ("m0",)
    assert np.array_equal(back.data, vol.data)


def test_header_matches_format_spec_exactly():
    header = _encode_header("volume", ("T1", "T1C", "T2", "FLAIR"), (240, 240, 155))
    assert header == (
        b'{"mmv":1,"kind":"volume","modalities":["T1","T1C","T2","FLAIR"],'
        b'"dims":[240,240,155],"dtype":"f32le"}\n'
    )
    # payload for that header would be 4 * 240*240*155 little-endian float32
    assert 4 * 4 * 240 * 240 * 155 == 142_848_000


def test_roundtrip_random_volumes_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    for i in range(25):
        m = int(rng.integers(1, 5))
        ndim = int(rng.integers(2, 4))
        dims = tuple(int(d) for d in rng.integers(1, 7, size=ndim))
        data = rng.standard_normal((m, *dims)).astype(np.float32)
        vol = MultiModalVolume(tuple(f"mod{k}" for k in range(m)), data)
        path = tmp_path / f"v{i}.mmv"
        write_volume(vol, path)
        back = read_volume(path)
        assert back.data.tobytes() == vol.data.tobytes()
        assert back.modality_names == vol.modality_names
        # writing the read volume again reproduces the file byte for byte
        path2 = tmp_path / f"v{i}b.mmv"
        write_volume(back, path2)
        assert path2.read_bytes() == path.read_bytes()


def test_volume_invariants_rejected():
    with pytest.raises(ValueError):
        MultiModalVolume(("a",), np.array([[[np.nan, 0.0], [0.0, 0.0]]]))
    with pytest.raises(ValueError):
        MultiModalVolume(("a", "a"), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        MultiModalVolume(("a", "b"), np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        MultiModalVolume((), np.zeros((0, 2, 2)))
    with pytest.raises(ValueError):
        MultiModalVolume(("a",), np.zeros((1, 4)))


def test_volume_data_is_immutable():
    vol = MultiModalVolume(("a",), np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_volume_equals_the_checked_product(dtype):
    rng = np.random.default_rng(4)
    vol = MultiModalVolume(("a", "b"), rng.normal(size=(2, 3, 4)).astype(dtype))
    keep = rng.random((2, 3, 4)) < 0.5
    masked = MultiModalVolume._masked(vol, keep)
    checked = MultiModalVolume(vol.modality_names, vol.data * keep)
    assert type(masked) is MultiModalVolume
    assert masked.modality_names == checked.modality_names
    assert masked.data.dtype == checked.data.dtype == dtype
    assert np.array_equal(masked.data, checked.data)
    assert masked.data.flags.c_contiguous and not masked.data.flags.writeable


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_volume_takes_a_mask_of_its_dtype(dtype):
    rng = np.random.default_rng(5)
    vol = MultiModalVolume(("a", "b"), rng.normal(size=(2, 3, 4)).astype(dtype))
    keep = rng.random((2, 3, 4)) < 0.5
    masked = MultiModalVolume._masked(vol, keep.astype(dtype))
    assert masked.data.dtype == dtype
    # a negative voxel dropped is -0.0 either way
    assert masked.data.tobytes() == MultiModalVolume._masked(vol, keep).data.tobytes()


def test_payload_length_mismatch(tmp_path):
    path = tmp_path / "bad.mmv"
    header = _encode_header("volume", ("a",), (2, 2))
    path.write_bytes(header + b"\x00" * 12)
    with pytest.raises(MMVFormatError, match="12 bytes"):
        read_volume(path)


def test_duplicate_modalities_rejected_on_read(tmp_path):
    path = tmp_path / "dup.mmv"
    header = _encode_header("volume", ("a", "a"), (2, 2))
    path.write_bytes(header + b"\x00" * 32)
    with pytest.raises(MMVFormatError, match="duplicate"):
        read_volume(path)


def test_nonfinite_payload_rejected(tmp_path):
    path = tmp_path / "inf.mmv"
    header = _encode_header("volume", ("a",), (1, 2))
    payload = np.array([np.inf, 0.0], dtype="<f4").tobytes()
    path.write_bytes(header + payload)
    with pytest.raises(MMVFormatError):
        read_volume(path)


def test_malformed_header(tmp_path):
    path = tmp_path / "junk.mmv"
    path.write_bytes(b"not json\n\x00\x00\x00\x00")
    with pytest.raises(MMVFormatError):
        read_volume(path)


@pytest.mark.parametrize("edit, match", [
    ({"mmv": True}, "mmv must be a JSON integer, got True"),
    ({"mmv": 1.0}, r"mmv must be a JSON integer, got 1\.0"),
    ({"dims": [True, 4]}, "dims entry 0 must be a JSON integer, got True"),
    ({"dims": [1.0, 4]}, r"dims entry 0 must be a JSON integer, got 1\.0"),
])
def test_header_integers_must_be_json_integers(tmp_path, edit, match):
    # the payload fits the dims, so only the entry's type is wrong
    header = {"mmv": 1, "kind": "volume", "modalities": ["a"], "dims": [1, 4],
              "dtype": "f32le", **edit}
    path = tmp_path / "v.mmv"
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 16)
    with pytest.raises(MMVFormatError, match=match):
        read_volume(path)


@pytest.mark.parametrize("modalities", [[1], ["a", None], "a", None])
def test_header_modalities_must_be_json_strings(tmp_path, modalities):
    header = {"mmv": 1, "kind": "volume", "modalities": modalities, "dims": [1, 4],
              "dtype": "f32le"}
    path = tmp_path / "v.mmv"
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"\x00" * 16)
    with pytest.raises(MMVFormatError, match=re.escape(f"{path}: modalities ")):
        read_volume(path)


def test_json_entry_returns_a_value_of_the_type():
    doc = {"i": 3, "x": 2.5, "s": "a", "a": [1, 2], "o": {"k": "v"}, "e": []}
    assert _json_entry(doc, "i", "integer", "f.json") == 3
    assert _json_entry(doc, "i", "number", "f.json") == 3  # an integer is a number
    assert _json_entry(doc, "x", "number", "f.json") == 2.5
    assert _json_entry(doc, "s", "string", "f.json") == "a"
    assert _json_entry(doc, "a", "array", "f.json", each="integer") == [1, 2]
    assert _json_entry(doc, "o", "object", "f.json", each="string") == {"k": "v"}
    assert _json_entry(doc, "e", "array", "f.json", each="string") == []


@pytest.mark.parametrize("doc, key, kind, each, match", [
    ({"n": True}, "n", "integer", None, "f.json: n must be a JSON integer, got True"),
    ({"n": True}, "n", "number", None, "f.json: n must be a JSON number, got True"),
    ({"n": 1.5}, "n", "integer", None, "f.json: n must be a JSON integer, got 1.5"),
    ({"n": float("nan")}, "n", "number", None, "f.json: n must be a JSON number, got nan"),
    ({"n": float("-inf")}, "n", "number", None, "f.json: n must be a JSON number, got -inf"),
    ({"n": "1"}, "n", "number", None, "f.json: n must be a JSON number, got '1'"),
    ({"s": None}, "s", "string", None, "f.json: s must be a JSON string, got None"),
    ({"a": {}}, "a", "array", None, "f.json: a must be a JSON array, got {}"),
    ({"o": []}, "o", "object", None, "f.json: o must be a JSON object, got []"),
    ({"a": [1, "2"]}, "a", "array", "integer", "f.json: a entry 1 must be a JSON integer, got '2'"),
    ({"o": {"k": None}}, "o", "object", "string",
     "f.json: o entry 'k' must be a JSON string, got None"),
    ({}, "n", "integer", None, "f.json: expected a JSON object with a 'n' entry, got {}"),
    ([1], "n", "integer", None, "f.json: expected a JSON object with a 'n' entry, got [1]"),
])
def test_json_entry_names_the_file_the_key_and_the_bad_value(doc, key, kind, each, match):
    with pytest.raises(MMVFormatError, match=re.escape(match)):
        _json_entry(doc, key, kind, "f.json", each=each)


def test_kind_mismatch(tmp_path):
    vol = MultiModalVolume(("a",), np.zeros((1, 2, 2)))
    path = tmp_path / "v.mmv"
    write_volume(vol, path)
    with pytest.raises(MMVFormatError, match="expected kind"):
        read_mask(path)


def test_mask_binary_enforced(tmp_path):
    with pytest.raises(ValueError, match="0 or 1"):
        SegmentationMask(("a",), np.array([[[0.5, 0.0], [1.0, 0.0]]]))
    mask = SegmentationMask(("a",), np.array([[[1.0, 0.0], [1.0, 1.0]]]))
    path = tmp_path / "m.mmv"
    write_mask(mask, path)
    back = read_mask(path)
    assert np.array_equal(back.data, mask.data)


def test_mask_broadcast_loader(tmp_path):
    mask = SegmentationMask(("shared",), np.array([[[1.0, 0.0], [0.0, 1.0]]]))
    path = tmp_path / "m.mmv"
    write_mask(mask, path)
    wide = read_mask(path, broadcast_to=("T1", "T1C", "T2"))
    assert wide.modality_names == ("T1", "T1C", "T2")
    assert wide.data.shape == (3, 2, 2)
    for m in range(3):
        assert np.array_equal(wide.data[m], mask.data[0])


def test_saliency_postprocessed_range_checked():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        SaliencyMap(("a",), np.array([[[2.0, 0.0], [0.0, 0.0]]]), postprocessed=True)
    raw = SaliencyMap(("a",), np.array([[[2.0, -1.0], [0.0, 0.0]]]))
    assert not raw.postprocessed


def test_manifest_roundtrip_and_validation(tmp_path):
    vol = MultiModalVolume(("a", "b"), np.zeros((2, 3, 3)))
    mask = SegmentationMask(("a", "b"), np.zeros((2, 3, 3)))
    write_volume(vol, tmp_path / "s0.mmv")
    write_mask(mask, tmp_path / "s0_mask.mmv")
    manifest = DatasetManifest(
        (
            ManifestRecord(
                "s0", 1, str(tmp_path / "s0.mmv"), str(tmp_path / "s0_mask.mmv")
            ),
        ),
        ("neg", "pos"),
    )
    save_manifest(manifest, tmp_path / "manifest.json")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["records"][0]["volume"] == "s0.mmv"  # relative path
    loaded = load_manifest(tmp_path / "manifest.json")
    assert loaded.records[0].sample_id == "s0"
    samples = load_dataset(loaded)
    assert samples[0].volume.data.shape == (2, 3, 3)
    assert samples[0].mask is not None

    with pytest.raises(ValueError, match="unique"):
        DatasetManifest(
            (
                ManifestRecord("dup", 0, "x"),
                ManifestRecord("dup", 0, "y"),
            ),
            ("a", "b"),
        )
    with pytest.raises(ValueError, match="label"):
        DatasetManifest((ManifestRecord("s", 2, "x"),), ("a", "b"))


@pytest.mark.parametrize("sample_id", ["", ".", "..", "a/b", "../s0", "a\\b"])
def test_manifest_rejects_unsafe_sample_ids(sample_id):
    # ids become file names in `saliency run` and in the external oracle
    with pytest.raises(ValueError, match="unsafe sample_id"):
        DatasetManifest((ManifestRecord(sample_id, 0, "x"),), ("a", "b"))


def test_manifest_accepts_cwd_relative_record_paths(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sub = Path("nested/dir")
    sub.mkdir(parents=True)
    vol = MultiModalVolume(("a",), np.zeros((1, 2, 2)))
    write_volume(vol, sub / "s0.mmv")
    manifest = DatasetManifest(
        (ManifestRecord("s0", 0, str(sub / "s0.mmv")),), ("x", "y")
    )
    save_manifest(manifest, sub / "manifest.json")
    doc = json.loads((sub / "manifest.json").read_text())
    assert doc["records"][0]["volume"] == "s0.mmv"
    loaded = load_manifest(sub / "manifest.json")
    assert load_dataset(loaded)[0].volume.data.shape == (1, 2, 2)


def test_load_dataset_names_failing_sample(tmp_path):
    vol = MultiModalVolume(("a",), np.zeros((1, 2, 2)))
    write_volume(vol, tmp_path / "ok.mmv")
    (tmp_path / "bad.mmv").write_bytes(b"garbage\n\x00\x00")
    manifest = DatasetManifest(
        (
            ManifestRecord("good", 0, str(tmp_path / "ok.mmv")),
            ManifestRecord("broken", 0, str(tmp_path / "bad.mmv")),
        ),
        ("x", "y"),
    )
    with pytest.raises(MMVFormatError, match="broken"):
        load_dataset(manifest)


def test_manifest_missing_path_fails(tmp_path):
    (tmp_path / "manifest.json").write_text(
        json.dumps(
            {
                "class_names": ["a", "b"],
                "records": [
                    {"sample_id": "s0", "label": 0, "volume": "missing.mmv"}
                ],
            }
        )
    )
    with pytest.raises(FileNotFoundError, match="missing.mmv"):
        load_manifest(tmp_path / "manifest.json")


def _write_manifest(tmp_path, records):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"class_names": ["a", "b"], "records": records}))
    return path


def test_saved_manifest_has_no_saliency_entry(tmp_path):
    write_volume(MultiModalVolume(("a",), np.zeros((1, 2, 2))), tmp_path / "s0.mmv")
    manifest = DatasetManifest((ManifestRecord("s0", 0, str(tmp_path / "s0.mmv")),),
                               ("x", "y"))
    save_manifest(manifest, tmp_path / "manifest.json")
    [record] = json.loads((tmp_path / "manifest.json").read_text())["records"]
    assert sorted(record) == ["label", "mask", "sample_id", "volume"]


def test_an_old_saliency_map_is_ignored(tmp_path):
    write_volume(MultiModalVolume(("a",), np.arange(4.0).reshape(1, 2, 2)),
                 tmp_path / "s0.mmv")
    record = {"sample_id": "s0", "label": 1, "volume": "s0.mmv", "mask": None}
    plain = load_manifest(_write_manifest(tmp_path, [record]))
    # an older manifest's map, naming a file that does not exist
    old = load_manifest(_write_manifest(
        tmp_path, [{**record, "saliency": {"lime": "missing_lime.mmv"}}]
    ))
    assert old.records == plain.records
    [a], [b] = load_dataset(old), load_dataset(plain)
    assert a.record == b.record and a.mask is None and b.mask is None
    assert np.array_equal(a.volume.data, b.volume.data)


@pytest.mark.parametrize("label", [1.7, -0.5, 1.0, "1", True, None])
def test_manifest_label_must_be_a_json_integer(tmp_path, label):
    write_volume(MultiModalVolume(("a",), np.zeros((1, 2, 2))), tmp_path / "s0.mmv")
    path = _write_manifest(tmp_path, [{"sample_id": "s0", "label": label, "volume": "s0.mmv"}])
    with pytest.raises(ValueError, match=f"s0: label must be a JSON integer, got {label!r}"):
        load_manifest(path)


@pytest.mark.parametrize("sample_id", [7, 0.5, None, True, ["s0"]])
def test_manifest_sample_id_must_be_a_json_string(tmp_path, sample_id):
    write_volume(MultiModalVolume(("a",), np.zeros((1, 2, 2))), tmp_path / "s0.mmv")
    path = _write_manifest(tmp_path, [{"sample_id": sample_id, "label": 0, "volume": "s0.mmv"}])
    with pytest.raises(ValueError, match=re.escape(f"sample_id must be a JSON string, got {sample_id!r}")):
        load_manifest(path)


@pytest.mark.parametrize("class_names", [[None, "HGG"], ["LGG", 1], "ab", None])
def test_manifest_class_names_must_be_json_strings(tmp_path, class_names):
    # [null, "HGG"] used to load a class named "None"
    write_volume(MultiModalVolume(("a",), np.zeros((1, 2, 2))), tmp_path / "s0.mmv")
    path = _write_manifest(tmp_path, [{"sample_id": "s0", "label": 0, "volume": "s0.mmv"}])
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "class_names": class_names}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: class_names ")):
        load_manifest(path)


@pytest.mark.parametrize("entry, match", [
    ({"volume": None}, "s0: volume must be a JSON string, got None"),
    ({"volume": 1}, "s0: volume must be a JSON string, got 1"),
    ({"mask": True}, "s0: mask must be a JSON string, got True"),
    ({"mask": ["s0.mmv"]}, "s0: mask must be a JSON string, got ['s0.mmv']"),
])
def test_manifest_paths_must_be_json_strings(tmp_path, entry, match):
    # "volume": null used to end in a TypeError from open(None)
    write_volume(MultiModalVolume(("a",), np.zeros((1, 2, 2))), tmp_path / "s0.mmv")
    record = {"sample_id": "s0", "label": 0, "volume": "s0.mmv", **entry}
    with pytest.raises(ValueError, match=re.escape(match)):
        load_manifest(_write_manifest(tmp_path, [record]))


@pytest.mark.parametrize("mask", [{"mask": None}, {}])
def test_a_null_or_absent_mask_loads_as_none(tmp_path, mask):
    write_volume(MultiModalVolume(("a",), np.zeros((1, 2, 2))), tmp_path / "s0.mmv")
    record = {"sample_id": "s0", "label": 0, "volume": "s0.mmv", **mask}
    [loaded] = load_manifest(_write_manifest(tmp_path, [record])).records
    assert loaded.mask_path is None
    assert loaded.volume_path == str(tmp_path / "s0.mmv")
