"""The chunked batch path: an oracle with `predict_batch` sees every evaluation
in chunks and gives the same answers as one `predict` per volume."""

import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import FunctionOracle, make_sample, make_volume, sampled_keep_rows
from mmsaliency import oracle as oracle_mod
from mmsaliency import saliency
from mmsaliency.ablate import AblationPolicy, AblationVariant, shapley_mi
from mmsaliency.oracle import predict_volumes
from mmsaliency.saliency import (
    MethodConfig,
    SaliencyMethod,
    default_grid_for,
    generate_maps,
)
from mmsaliency.tensorio import MultiModalVolume

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
    # per sample the unperturbed head, then every distinct perturbation; the
    # 3 samples' streams make one stream, which fits in one chunk
    assert stub.calls == [3 * (1 + _stream_length(method))]


@pytest.mark.parametrize("method", HEADLESS_METHODS)
def test_a_set_target_sends_no_head(method):
    stub = BatchStub(INNER)
    batched, _ = generate_maps(_samples(), stub, replace(_cfg(method), target_class=1))
    assert stub.calls == [3 * _stream_length(method)]
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
    assert sum(stub.calls) == 3 * per_sample
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
        def _masked(cls, volume, keep):
            # keep-row volumes are made without __post_init__
            masked = super()._masked(volume, keep)
            events.append(("built", masked))
            return masked

    class Recording:
        def predict(self, volume):
            events.append(("predicted", volume))
            return INNER.predict(volume)

    monkeypatch.setattr(saliency, "MultiModalVolume", Recorded)
    samples = _samples(2)
    generate_maps(samples, Recording(), _cfg(method))
    built = iter([volume for event, volume in events if event == "built"])
    expected = []
    for s in samples:
        # the sample's own volume heads its share of the stream unbuilt
        expected.append(("predicted", s.volume))
        for _ in range(_stream_length(method)):
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
    assert set(runlog["oracle_evals"].values()) == {
        _heads(method, target_class) + _stream_length(method)
    }
    # each sample's time runs from the previous map, or the call's start, to its own
    assert all(t >= 0.0 for t in runlog["wall_time"].values())
    assert sum(runlog["wall_time"].values()) <= elapsed


@pytest.mark.parametrize("budget", [None, 5 * 2 * 8 * 8 * 8])
def test_shapley_mi_is_one_stream(budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(oracle_mod, "BATCH_BYTES", budget)
    samples = _samples()
    policy = AblationPolicy(AblationVariant.ZERO_WHOLE_MODALITY)
    stub = BatchStub(INNER)
    assert shapley_mi(samples, stub, policy) == shapley_mi(samples, INNER, policy)
    # 2^2 coalitions x 3 samples
    assert stub.calls == ([12] if budget is None else [5, 5, 2])


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
