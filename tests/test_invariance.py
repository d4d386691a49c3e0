"""Invariances the evaluation protocol implies, each stated as exact equality.

A sample's saliency map depends only on that sample and the method's
configuration, and modality importance only on the set of samples. So
reversing the sample order, or running on a subset of the samples, leaves
each sample's map byte for byte and the MI vector bit for bit; only the
evaluation counts follow the order, as the first sample of a run pays for
the all-zero volume that the later ones share. `feature_permutation` is the
exception by design: its donors are the other samples of the run. The
zero policies draw nothing, so their MI does not depend on the policy seed.
Every relation on samples is checked on a list of loaded samples and on a
DatasetView. The Friedman test reads a score table as a set of rows, so
their order does not change its output.
"""

import functools

import numpy as np
import pytest

from mmsaliency.ablate import AblationPolicy, AblationVariant, shapley_mi
from mmsaliency.cli import main
from mmsaliency.oracle import ShapeRuleClassifier
from mmsaliency.saliency import MethodConfig, SaliencyMethod, generate_maps
from mmsaliency.synthgen import SynthConfig, generate_dataset
from mmsaliency.tensorio import DatasetManifest, DatasetView, load_dataset

METHODS = [m for m in SaliencyMethod if m is not SaliencyMethod.FEATURE_PERMUTATION]
METHOD_PARAMS = dict(rng_seed=1, window=16, stride=8, block_shape=16, n_samples=40)
KINDS = pytest.mark.parametrize("as_view", [False, True], ids=["list", "view"])


def classifier():
    """A classifier that reads every modality, so that the nonlesion draws
    move the MI game: phi would show draws that depended on the sample order."""
    return ShapeRuleClassifier((0.5, 1.0, 0.5, 1.0), intensity_threshold=0.35)


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    return generate_dataset(SynthConfig(n_samples=5, image_size=32, seed=3),
                            tmp_path_factory.mktemp("data"))


def samples(manifest, records, as_view):
    """The samples of `records`, in their order, as a DatasetView or a list."""
    part = DatasetManifest(tuple(records), manifest.class_names)
    return DatasetView(part) if as_view else load_dataset(part)


def map_bytes(manifest, records, method, as_view):
    """{sample id: (names, dtype, shape, payload bytes)} of a run on `records`."""
    cfg = MethodConfig(method, **METHOD_PARAMS)
    maps, _ = generate_maps(samples(manifest, records, as_view), classifier(), cfg)
    assert list(maps) == [r.sample_id for r in records]
    return {sid: (m.modality_names, m.data.dtype.str, m.data.shape, m.data.tobytes())
            for sid, m in maps.items()}


@pytest.fixture(scope="module")
def full_run(manifest):
    """map_bytes of a run on every sample, in manifest order, made once per
    method and kind of dataset."""
    return functools.cache(
        lambda method, as_view: map_bytes(manifest, manifest.records, method, as_view))


@KINDS
@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_reversed_sample_order_keeps_every_map(manifest, full_run, method, as_view):
    reversed_run = map_bytes(manifest, manifest.records[::-1], method, as_view)
    assert reversed_run == full_run(method, as_view)


@KINDS
@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_a_subset_run_gives_each_sample_its_full_run_map(manifest, full_run, method, as_view):
    part = manifest.records[1::2]
    full = full_run(method, as_view)
    assert map_bytes(manifest, part, method, as_view) == {r.sample_id: full[r.sample_id]
                                                          for r in part}


@KINDS
@pytest.mark.parametrize("method", [SaliencyMethod.SHAPLEY_SAMPLING, SaliencyMethod.KERNEL_SHAP],
                         ids=lambda m: m.value)
def test_the_first_sample_of_a_run_pays_for_the_all_zero_volume(manifest, method, as_view):
    cfg = MethodConfig(method, **METHOD_PARAMS)
    counts = {}
    for records in (manifest.records, manifest.records[1::2]):
        _, runlog = generate_maps(samples(manifest, records, as_view), classifier(), cfg)
        counts[len(records)] = list(runlog["oracle_evals"].values())
    first = counts[5][0]
    assert counts == {5: [first] + [first - 1] * 4, 2: [first, first - 1]}


@KINDS
@pytest.mark.parametrize("variant", [AblationVariant.ZERO_WHOLE_MODALITY,
                                     AblationVariant.ZERO_FEATURE_REGION], ids=lambda v: v.value)
def test_a_zero_policy_ignores_the_seed(manifest, variant, as_view):
    phi = [shapley_mi(samples(manifest, manifest.records, as_view), classifier(),
                      AblationPolicy(variant, rng_seed=seed)).phi for seed in (0, 7)]
    assert any(phi[0])
    assert np.array(phi[1]).tobytes() == np.array(phi[0]).tobytes()


def test_permuted_score_rows_keep_the_friedman_output(tmp_path, capsys):
    rng = np.random.default_rng(8)
    rows = [[f"s{i}", method, "msfi", repr(float(v))]
            for i in range(6) for method, v in zip(("a", "b", "c"), rng.random(3))]
    printed = []
    for order in (np.arange(len(rows)), rng.permutation(len(rows)), np.arange(len(rows))[::-1]):
        path = tmp_path / "scores.csv"
        path.write_text("".join(",".join(row) + "\n" for row in
                                [["sample_id", "method", "metric", "value"],
                                 *(rows[i] for i in order)]))
        assert main(["stats", "friedman", "--scores", str(path)]) == 0
        printed.append(capsys.readouterr().out)
    assert "chi2=" in printed[0]
    assert printed[1] == printed[2] == printed[0]


@KINDS
@pytest.mark.parametrize("variant", list(AblationVariant), ids=lambda v: v.value)
def test_reversed_sample_order_keeps_phi(manifest, variant, as_view):
    policy = AblationPolicy(variant, rng_seed=4)
    forward, backward = (shapley_mi(samples(manifest, records, as_view), classifier(), policy)
                         for records in (manifest.records, manifest.records[::-1]))
    assert any(forward.phi)  # a game in which some modality matters
    assert np.array(backward.phi).tobytes() == np.array(forward.phi).tobytes()
    assert backward.normalized == forward.normalized
