"""The chunked batch path: an oracle with `predict_batch` sees every evaluation
in chunks and gives the same answers as one `predict` per volume."""

import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import FunctionOracle, make_sample, make_volume, sampled_keep_rows
from mmsaliency import ablate, saliency
from mmsaliency import oracle as oracle_mod
from mmsaliency.ablate import AblationPolicy, AblationVariant, coalition_table, shapley_mi
from mmsaliency.oracle import predict_volumes
from mmsaliency.saliency import (
    MethodConfig,
    SaliencyMethod,
    default_grid_for,
    generate_maps,
)
from mmsaliency.tensorio import MultiModalVolume, SegmentationMask

INNER = FunctionOracle(lambda d: float(np.clip(d.mean() + d.std(), 0, 1)))
# occlusion's and feature_permutation's reductions read each sample's
# unperturbed prediction, so their originals are sent even when target_class
# is set
BASELINE_METHODS = (SaliencyMethod.OCCLUSION, SaliencyMethod.FEATURE_PERMUTATION)
HEADLESS_METHODS = [m for m in SaliencyMethod if m not in BASELINE_METHODS]


class BatchStub:
    """In-process oracle with `predict_batch`; records the size of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def predict(self, volume):
        raise AssertionError("an oracle with predict_batch must get only batches")

    def predict_batch(self, volumes):
        self.calls.append(len(volumes))
        return [self.inner.predict(volume) for volume in volumes]


def _samples(n=3):
    rng = np.random.default_rng(61)
    return [
        make_sample(f"s{i}", make_volume(rng, 2, (8, 8), low=0.1), label=i % 2)
        for i in range(n)
    ]


def _masked_samples(n=3):
    """_samples(n), each with a mask: a 3 x 3 lesion in every modality."""
    lesion = np.zeros((2, 8, 8), dtype=bool)
    lesion[:, 2:5, 3:6] = True
    return [
        make_sample(s.record.sample_id, s.volume,
                    SegmentationMask(s.volume.modality_names, lesion), s.record.label)
        for s in _samples(n)
    ]


POLICIES = [AblationPolicy(variant, rng_seed=3) for variant in AblationVariant]


def _cfg(method):
    return MethodConfig(
        method, rng_seed=9, window=4, stride=2, block_shape=4, n_samples=40
    )


def _assert_same_maps(a, b):
    assert list(a) == list(b)
    for sid in a:
        assert a[sid].data.dtype == b[sid].data.dtype
        assert np.array_equal(a[sid].data, b[sid].data)


def _stream_length(method):
    """The evaluations of one sample after the unperturbed head, for _cfg(method)."""
    if method is SaliencyMethod.OCCLUSION:
        return 2 * 3 * 3  # 2 modalities x 3 x 3 windows
    k = default_grid_for(method, 2, (8, 8), 4).n_segments
    if method is SaliencyMethod.FEATURE_ABLATION:
        return k + 1  # keep everything, then drop each segment
    if method is SaliencyMethod.FEATURE_PERMUTATION:
        return k  # one shuffled copy per segment
    return len(set(sampled_keep_rows(method.value, k, 40, seed=9)))


def _zero_row(method):
    """1 if one of _cfg(method)'s distinct rows drops every segment: its
    all-zero volume is evaluated for the first sample only (see
    oracle._evaluate)."""
    if method in (*BASELINE_METHODS, SaliencyMethod.FEATURE_ABLATION):
        return 0  # no keep rows, or one dropped segment of K = 8 per row
    k = default_grid_for(method, 2, (8, 8), 4).n_segments
    return int((False,) * k in sampled_keep_rows(method.value, k, 40, seed=9))


def _sample_evals(method, target_class):
    """The evaluations of the 3 samples of _samples(), in order."""
    n = _heads(method, target_class) + _stream_length(method)
    return [n, n - _zero_row(method), n - _zero_row(method)]


def _heads(method, target_class):
    """1 if each sample's unperturbed volume heads its share of the stream."""
    return int(target_class is None or method in BASELINE_METHODS)


VOLUME_BYTES = 2 * 8 * 8 * 8  # one float64 sample of _samples()


@pytest.mark.parametrize("chunk_volumes", [None, 3, 1])
@pytest.mark.parametrize("method", list(SaliencyMethod))
def test_maps_equal_the_per_item_path(method, chunk_volumes, monkeypatch):
    if chunk_volumes is not None:
        monkeypatch.setattr(oracle_mod, "BATCH_BYTES", chunk_volumes * VOLUME_BYTES)
    samples = _samples()
    stub = BatchStub(INNER)
    batched, _ = generate_maps(samples, stub, _cfg(method))
    per_item, _ = generate_maps(samples, INNER, _cfg(method))
    _assert_same_maps(batched, per_item)
    if chunk_volumes is not None:
        # at 1, the unperturbed head is a chunk of its own
        assert max(stub.calls) == chunk_volumes


@pytest.mark.parametrize("method", list(SaliencyMethod))
def test_keep_drop_methods_make_one_batch_call_per_sample(method):
    stub = BatchStub(INNER)
    generate_maps(_samples(), stub, _cfg(method))
    # per sample the unperturbed head, then every distinct perturbation but a
    # repeated all-zero volume; the 3 samples' streams make one stream, which
    # fits in one chunk
    assert stub.calls == [sum(_sample_evals(method, None))]


@pytest.mark.parametrize("method", HEADLESS_METHODS)
def test_a_set_target_sends_no_head(method):
    stub = BatchStub(INNER)
    batched, _ = generate_maps(_samples(), stub, replace(_cfg(method), target_class=1))
    assert stub.calls == [sum(_sample_evals(method, 1))]
    per_item, _ = generate_maps(_samples(), INNER, replace(_cfg(method), target_class=1))
    _assert_same_maps(batched, per_item)


@pytest.mark.parametrize("method", BASELINE_METHODS)
def test_a_set_target_still_sends_the_originals_a_reduction_reads(method):
    stub = BatchStub(INNER)
    cfg = replace(_cfg(method), target_class=1)
    samples = _samples()
    batched, runlog = generate_maps(samples, stub, cfg)
    # per sample its original, then its perturbations, as with no target set
    assert stub.calls == [3 * (1 + _stream_length(method))]
    assert set(runlog["oracle_evals"].values()) == {1 + _stream_length(method)}
    predicted = []

    class Recording:
        def predict(self, volume):
            predicted.append(volume)
            return INNER.predict(volume)

    _assert_same_maps(batched, generate_maps(samples, Recording(), cfg)[0])
    # the original itself, exactly once
    assert [sum(v is s.volume for v in predicted) for s in samples] == [1, 1, 1]


@pytest.mark.parametrize("target_class", [None, 1])
@pytest.mark.parametrize("method", list(SaliencyMethod))
def test_chunks_that_split_a_sample_give_the_per_item_maps(
    method, target_class, monkeypatch
):
    per_sample = _heads(method, target_class) + _stream_length(method)
    # 7 volumes, or 6 where 7 would divide a sample's share (lime's 1 + 34)
    chunk = 7 if per_sample % 7 else 6
    monkeypatch.setattr(oracle_mod, "BATCH_BYTES", chunk * VOLUME_BYTES)
    cfg = replace(_cfg(method), target_class=target_class)
    stub = BatchStub(INNER)
    batched, _ = generate_maps(_samples(), stub, cfg)
    # full chunks, so one holds the tail of sample 0 and the head of sample 1
    assert per_sample % chunk
    assert sum(stub.calls) == sum(_sample_evals(method, target_class))
    assert stub.calls[:-1] == [chunk] * (len(stub.calls) - 1)
    _assert_same_maps(batched, generate_maps(_samples(), INNER, cfg)[0])


@pytest.mark.parametrize("method", list(SaliencyMethod))
def test_per_item_path_builds_each_volume_after_the_last_is_predicted(
    method, monkeypatch
):
    events = []

    class Recorded(MultiModalVolume):
        def __post_init__(self):
            super().__post_init__()
            events.append(("built", self))

        @classmethod
        def _trusted(cls, modality_names, data):
            # keep-row and occlusion-window volumes are made without __post_init__
            volume = super()._trusted(modality_names, data)
            events.append(("built", volume))
            return volume

    class Recording:
        def predict(self, volume):
            events.append(("predicted", volume))
            return INNER.predict(volume)

    monkeypatch.setattr(saliency, "MultiModalVolume", Recorded)
    samples = _samples(2)
    generate_maps(samples, Recording(), _cfg(method))
    # the all-zero volume is made by the stream, not built from its row
    zeros = [volume for event, volume in events if not volume.data.any()]
    assert len(zeros) == _zero_row(method)
    events = [(event, volume) for event, volume in events if volume not in zeros]
    built = iter([volume for event, volume in events if event == "built"])
    expected = []
    for i, (evals, s) in enumerate(zip(_sample_evals(method, None), samples)):
        # the sample's own volume heads its share of the stream unbuilt
        expected.append(("predicted", s.volume))
        for _ in range(evals - 1 - (i == 0) * _zero_row(method)):
            volume = next(built)
            expected += [("built", volume), ("predicted", volume)]
    assert next(built, None) is None
    assert events == expected


@pytest.mark.parametrize("target_class", [None, 1])
@pytest.mark.parametrize("method", list(SaliencyMethod))
def test_runlog_oracle_evals_add_up_to_the_oracle_calls(method, target_class):
    calls = []

    class Counting:
        def predict(self, volume):
            calls.append(1)
            return INNER.predict(volume)

    cfg = replace(_cfg(method), target_class=target_class)
    start = time.perf_counter()
    maps, runlog = generate_maps(_samples(), Counting(), cfg)
    elapsed = time.perf_counter() - start
    assert set(runlog["oracle_evals"]) == set(runlog["wall_time"]) == set(maps)
    assert sum(runlog["oracle_evals"].values()) == len(calls)
    # the first sample pays for a shared all-zero volume
    assert list(runlog["oracle_evals"].values()) == _sample_evals(method, target_class)
    # each sample's time runs from the previous map, or the call's start, to its own
    assert all(t >= 0.0 for t in runlog["wall_time"].values())
    assert sum(runlog["wall_time"].values()) <= elapsed


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.variant.value)
@pytest.mark.parametrize("budget", [None, 5 * VOLUME_BYTES])
def test_shapley_mi_is_one_stream(budget, policy, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(oracle_mod, "BATCH_BYTES", budget)
    samples = _masked_samples()
    stub = BatchStub(INNER)
    assert shapley_mi(samples, stub, policy) == shapley_mi(samples, INNER, policy)
    # 2^2 coalitions x 3 samples, and no head; under zero the empty
    # coalition's all-zero volume is sent for the first sample only
    zero = policy.variant is AblationVariant.ZERO_WHOLE_MODALITY
    if budget is None:
        assert stub.calls == [10 if zero else 12]
    else:
        assert stub.calls == ([5, 5] if zero else [5, 5, 2])


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.variant.value)
def test_per_item_path_builds_each_ablated_volume_after_the_last_is_predicted(
    policy, monkeypatch
):
    events = []

    class Recorded(MultiModalVolume):
        @classmethod
        def _trusted(cls, modality_names, data):
            volume = super()._trusted(modality_names, data)
            events.append(("built", volume))
            return volume

    class Recording:
        def predict(self, volume):
            events.append(("predicted", volume))
            return INNER.predict(volume)

    monkeypatch.setattr(ablate, "MultiModalVolume", Recorded)
    samples = _masked_samples(2)
    shapley_mi(samples, Recording(), policy)
    zero = policy.variant is AblationVariant.ZERO_WHOLE_MODALITY
    # under zero, row 0's all-zero volume is made by the stream, not built
    # from its row, and sent for the first sample only
    zeros = [volume for event, volume in events if not volume.data.any()]
    assert len(zeros) == zero
    events = [(event, volume) for event, volume in events if volume not in zeros]
    built = iter([volume for event, volume in events if event == "built"])
    expected = []
    for s in samples:
        # 2^M coalitions and no head: every row but the last is built just
        # before it is predicted, and the last, which keeps every modality,
        # is the sample's own volume
        for _ in coalition_table(2, "modalities")[int(zero):-1]:
            volume = next(built)
            expected += [("built", volume), ("predicted", volume)]
        expected.append(("predicted", s.volume))
    assert next(built, None) is None
    assert events == expected


@pytest.mark.parametrize("call", [oracle_mod.accuracy, oracle_mod.predict_all])
@pytest.mark.parametrize("budget, calls", [(None, [5]), (2 * VOLUME_BYTES, [2, 2, 1])])
def test_accuracy_and_predict_all_send_the_samples_in_chunks(call, budget, calls, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(oracle_mod, "BATCH_BYTES", budget)
    samples = _samples(5)
    stub = BatchStub(INNER)
    assert call(samples, stub) == call(samples, INNER)
    assert stub.calls == calls


def test_chunks_split_by_budget_and_keep_order(monkeypatch):
    small = [MultiModalVolume(("a",), np.full((1, 4, 4), v / 10)) for v in range(7)]
    large = MultiModalVolume(("a",), np.full((1, 8, 8), 0.95))
    volumes = small[:3] + [large] + small[3:]
    monkeypatch.setattr(oracle_mod, "BATCH_BYTES", 2 * small[0].data.nbytes)
    stub = BatchStub(INNER)
    preds = list(predict_volumes(stub, volumes))
    assert preds == [INNER.predict(v) for v in volumes]
    # the larger-than-budget volume goes alone
    assert stub.calls == [2, 1, 1, 2, 2]


def test_per_item_path_streams_one_volume_at_a_time():
    events = []

    def volumes():
        for i in range(3):
            events.append(("built", i))
            yield MultiModalVolume(("a",), np.full((1, 2, 2), 0.25 * (i + 1)))

    class Recording:
        def predict(self, volume):
            events.append(("predicted", int(volume.data[0, 0, 0] * 4) - 1))
            return INNER.predict(volume)

    for _ in predict_volumes(Recording(), volumes()):
        events.append(("consumed", None))
    assert events == [
        event
        for i in range(3)
        for event in (("built", i), ("predicted", i), ("consumed", None))
    ]


class BytesRecording:
    """Records the bytes of every volume it predicts, by INNER's rule."""

    def __init__(self):
        self.seen = []

    def predict(self, volume):
        self.seen.append((volume.data.dtype.str, volume.data.tobytes()))
        return INNER.predict(volume)


def _zero_volumes(seen):
    """The dtypes of the all-+0.0 volumes among BytesRecording.seen."""
    return [dtype for dtype, data in seen if not any(data)]


SHARING_METHODS = [SaliencyMethod.SHAPLEY_SAMPLING, SaliencyMethod.KERNEL_SHAP]


@pytest.mark.parametrize("fault", ["negative voxel", "negative zero"])
@pytest.mark.parametrize("method", SHARING_METHODS)
def test_every_all_drop_row_is_the_one_plus_zero_volume(method, fault):
    samples = _samples()
    data = samples[1].volume.data.copy()
    data[1, 2, 3] = -0.25 if fault == "negative voxel" else -0.0
    samples[1] = make_sample("s1", MultiModalVolume(samples[1].volume.modality_names, data))
    shared = BytesRecording()
    maps, runlog = generate_maps(samples, shared, _cfg(method))
    # what each sample sends alone, where nothing is shared
    alone = BytesRecording()
    for s in samples:
        _assert_same_maps({s.record.sample_id: maps[s.record.sample_id]},
                          generate_maps([s], alone, _cfg(method))[0])
    n = 1 + _stream_length(method)
    assert list(runlog["oracle_evals"].values()) == [n, n - 1, n - 1]
    # the same bytes in the same order, but for the all-zero volumes of s1
    # and s2, which s0's stands for
    zero_volume = (data.dtype.str, bytes(data.nbytes))
    first, second, third = (alone.seen[i * n:(i + 1) * n] for i in range(3))
    assert zero_volume in second and zero_volume in third
    assert shared.seen == first + [v for v in second + third if v != zero_volume]
    # s1's all-drop row is sent as +0.0, not with the sign of a negative voxel or a -0.0
    signed_zero = (data.dtype.str, (data * 0).tobytes())
    assert signed_zero != zero_volume and signed_zero not in alone.seen
    assert _zero_volumes(shared.seen) == [data.dtype.str]


@pytest.mark.parametrize("method", SHARING_METHODS)
def test_mixed_dtypes_get_one_zero_volume_each(method):
    samples = [make_sample(s.record.sample_id,
                           MultiModalVolume(s.volume.modality_names,
                                            s.volume.data.astype([np.float32, np.float64][i % 2])))
               for i, s in enumerate(_samples(4))]
    recording = BytesRecording()
    maps, runlog = generate_maps(samples, recording, _cfg(method))
    assert _zero_volumes(recording.seen) == [np.dtype(np.float32).str, np.dtype(np.float64).str]
    n = 1 + _stream_length(method)
    assert list(runlog["oracle_evals"].values()) == [n, n, n - 1, n - 1]
    assert sum(runlog["oracle_evals"].values()) == len(recording.seen)
    _assert_same_maps(maps, generate_maps(samples, INNER, _cfg(method))[0])
