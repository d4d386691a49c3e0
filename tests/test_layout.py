"""A dataset has one layout: the first volume's modality names, in order, and
its data shape. A list of loaded samples meets the check a DatasetView makes
of its headers: a later sample out of that layout is a ValueError naming it,
raised before any oracle call, with the view's message."""

from dataclasses import replace

import numpy as np
import pytest

from mmsaliency.ablate import AblationPolicy, AblationVariant, coalition_performance, shapley_mi
from mmsaliency.oracle import ShapeRuleClassifier, accuracy, predict_all
from mmsaliency.saliency import MethodConfig, SaliencyMethod, generate_maps
from mmsaliency.synthgen import SynthConfig, generate_dataset
from mmsaliency.tensorio import (
    DatasetManifest,
    DatasetView,
    LoadedSample,
    ManifestRecord,
    MultiModalVolume,
    SegmentationMask,
    _dataset,
    read_mask,
    read_volume,
    write_mask,
    write_volume,
)

POLICY = AblationPolicy(AblationVariant.ZERO_FEATURE_REGION)
METHOD_PARAMS = dict(rng_seed=1, window=16, stride=16, block_shape=16, n_samples=40)

# every entry that takes a dataset, called on (dataset, oracle)
ENTRIES = {
    "shapley_mi": lambda data, oracle: shapley_mi(data, oracle, POLICY),
    "coalition_performance": lambda data, oracle: coalition_performance(
        data, oracle, np.array([True, False, True, False]), POLICY),
    "accuracy": accuracy,
    "predict_all": predict_all,
    **{
        method.value: lambda data, oracle, method=method: generate_maps(
            data, oracle, MethodConfig(method, **METHOD_PARAMS))
        for method in SaliencyMethod
    },
}


class CountingOracle:
    """The built-in classifier, counting the volumes it is given; with
    `batch`, it has predict_batch too."""

    def __init__(self, batch):
        self.inner = ShapeRuleClassifier((0.0, 1.0, 0.0, 1.0), intensity_threshold=0.35)
        self.volumes = 0
        if batch:
            self.predict_batch = lambda volumes: [self.predict(v) for v in volumes]

    def predict(self, volume):
        self.volumes += 1
        return self.inner.predict(volume)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    return generate_dataset(SynthConfig(n_samples=4, image_size=32, seed=2),
                            tmp_path_factory.mktemp("data"))


def faulty(manifest, tmp_path, fault):
    """The manifest with its last volume or mask replaced by a copy with `fault`."""
    last = manifest.records[-1]
    if fault.startswith("volume"):
        field, key, write = read_volume(last.volume_path), "volume_path", write_volume
    else:
        field, key, write = read_mask(last.mask_path), "mask_path", write_mask
    if fault.endswith("names"):  # the same channels, labelled in reverse order
        field = type(field)(field.modality_names[::-1], field.data[::-1])
    else:
        field = type(field)(field.modality_names, np.zeros((4, 40, 40), dtype=np.float32))
    path = tmp_path / f"{fault}.mmv"
    write(field, path)
    records = (*manifest.records[:-1], replace(last, **{key: str(path)}))
    return DatasetManifest(records, manifest.class_names)


def listed(manifest):
    """Every sample of the manifest, read without the view's checks."""
    samples = []
    for rec in manifest.records:
        volume = read_volume(rec.volume_path)
        mask = read_mask(rec.mask_path, broadcast_to=volume.modality_names)
        samples.append(LoadedSample(rec, volume, mask))
    return samples


FAULTS = ["volume names", "volume dims", "mask names", "mask dims"]


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("entry", list(ENTRIES))
@pytest.mark.parametrize("fault", FAULTS)
def test_a_later_sample_out_of_layout_fails_before_any_oracle_call(manifest, tmp_path, fault,
                                                                   entry, batch):
    bad = faulty(manifest, tmp_path, fault)
    with pytest.raises(ValueError) as from_view:
        DatasetView(bad)
    oracle = CountingOracle(batch)
    with pytest.raises(ValueError) as from_list:
        ENTRIES[entry](listed(bad), oracle)
    assert str(from_list.value) == str(from_view.value)
    assert str(from_list.value).startswith(f"{bad.records[-1].sample_id}: ")
    assert oracle.volumes == 0


@pytest.mark.parametrize("fault, text", [
    ("volume names", "lists modalities ['FLAIR', 'T2', 'T1C', 'T1'], but the first volume "
                     "lists ['T1', 'T1C', 'T2', 'FLAIR']"),
    ("volume dims", "has dims [40, 40], but the first volume has [32, 32]"),
    ("mask names", "lists modalities ['FLAIR', 'T2', 'T1C', 'T1'], but the first volume "
                   "lists ['T1', 'T1C', 'T2', 'FLAIR']"),
    ("mask dims", "has dims [40, 40], but the first volume has [32, 32]"),
])
def test_the_message_names_the_sample_and_the_file(manifest, tmp_path, fault, text):
    bad = faulty(manifest, tmp_path, fault)
    last = bad.records[-1]
    path = last.mask_path if fault.startswith("mask") else last.volume_path
    with pytest.raises(ValueError) as err:
        _dataset(listed(bad))
    assert str(err.value) == f"{last.sample_id}: {path} {text}"


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_a_list_of_one_layout_is_evaluated(manifest, entry):
    oracle = CountingOracle(batch=False)
    ENTRIES[entry](listed(manifest), oracle)
    assert oracle.volumes > 0


def test_a_list_and_a_view_have_one_layout(manifest):
    view_samples, view_layout = _dataset(DatasetView(manifest))
    list_samples, list_layout = _dataset(listed(manifest))
    assert view_layout == list_layout == (("T1", "T1C", "T2", "FLAIR"), (4, 32, 32))
    assert len(view_samples) == len(list_samples) == 4


def test_an_empty_dataset_is_an_error():
    with pytest.raises(ValueError, match="^empty dataset$"):
        _dataset([])


def test_a_mask_held_in_memory_meets_the_same_check():
    rng = np.random.default_rng(3)
    names = ("a", "b")
    volume = MultiModalVolume(names, rng.uniform(size=(2, 4, 4)))
    mask = SegmentationMask(names[::-1], np.zeros((2, 4, 4)))
    first = LoadedSample(ManifestRecord("s0", 0, "s0.mmv"), volume, None)
    second = LoadedSample(ManifestRecord("s1", 0, "s1.mmv", "s1_mask.mmv"), volume, mask)
    with pytest.raises(ValueError, match=r"^s1: s1_mask.mmv lists modalities \['b', 'a'\], "
                                         r"but the first volume lists \['a', 'b'\]$"):
        _dataset([first, second])
