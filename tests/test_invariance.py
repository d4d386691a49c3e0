"""Invariances the evaluation protocol implies, each stated as exact equality
or with a named tolerance.

A sample's saliency map depends only on that sample and the method's
configuration, and modality importance only on the set of samples. So
reversing the sample order, or running on a subset of the samples, leaves
each sample's map byte for byte and the MI vector bit for bit; only the
evaluation counts follow the order, as the first sample of a run pays for
the all-zero volume that the later ones share. `feature_permutation` is the
exception by design: its donors are the other samples of the run. The
zero policies draw nothing, so their MI does not depend on the policy seed.
Renaming the samples changes no MI bit and no map byte. Permuting the
modalities, with their masks and the classifier's weights, permutes the
deterministic maps and phi: bit for bit, but within one unit in the last
place where exact Shapley's players are the modalities, as its sums follow
the channel order. Swapping the two classes, in the labels and in the
oracle's output, keeps the maps of the predicted class bit for bit, and MI
for an oracle that never ties: argmax breaks a tie toward class 0 in either
order. Every relation on samples is checked on a list of loaded samples and
on a DatasetView. The Friedman test reads a score table as a set of rows, so
their order does not change its output.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from mmsaliency.ablate import AblationPolicy, AblationVariant, coalition_performance, shapley_mi
from mmsaliency.cli import main
from mmsaliency.oracle import ClassProbabilities, ShapeRuleClassifier
from mmsaliency.saliency import MethodConfig, SaliencyMethod, generate_maps
from mmsaliency.synthgen import SynthConfig, generate_dataset
from mmsaliency.tensorio import (
    DatasetManifest,
    DatasetView,
    ManifestRecord,
    MultiModalVolume,
    SegmentationMask,
    load_dataset,
    save_manifest,
    write_mask,
    write_volume,
)

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


# -- modality permutation ----------------------------------------------------

PERM = (2, 0, 3, 1)  # position j of the permuted files holds modality PERM[j]
WEIGHTS = (0.5, 1.0, 0.5, 1.0)  # classifier()'s, by modality


@pytest.fixture(scope="module")
def permuted(manifest, tmp_path_factory):
    """The manifest's samples with their volumes' and masks' channels, and
    their names, in PERM's order, written as a dataset of their own."""
    root = tmp_path_factory.mktemp("permuted")
    records = []
    for s in load_dataset(manifest):
        sid = s.record.sample_id
        names = tuple(s.volume.modality_names[m] for m in PERM)
        write_volume(MultiModalVolume(names, s.volume.data[list(PERM)]), root / f"{sid}.mmv")
        write_mask(SegmentationMask(names, s.mask.data[list(PERM)]), root / f"{sid}_mask.mmv")
        records.append(ManifestRecord(sid, s.record.label, str(root / f"{sid}.mmv"),
                                      str(root / f"{sid}_mask.mmv")))
    out = DatasetManifest(tuple(records), manifest.class_names)
    save_manifest(out, root / "manifest.json")
    return out


def permuted_classifier():
    return ShapeRuleClassifier(tuple(WEIGHTS[m] for m in PERM), intensity_threshold=0.35)


@KINDS
@pytest.mark.parametrize("variant", list(AblationVariant), ids=lambda v: v.value)
def test_permuted_modalities_permute_phi(manifest, permuted, variant, as_view):
    policy = AblationPolicy(variant, rng_seed=4)
    mi = shapley_mi(samples(manifest, manifest.records, as_view), classifier(), policy)
    moved = shapley_mi(samples(permuted, permuted.records, as_view), permuted_classifier(),
                       policy)
    assert moved.modality_names == tuple(mi.modality_names[m] for m in PERM)
    phi = np.array(mi.phi)[list(PERM)]
    assert any(phi)
    assert_within_an_ulp(np.array(moved.phi), phi)


def assert_within_an_ulp(moved, expected):
    """Equal within one unit in the last place of the largest |value|: the
    tolerance of exact_shapley, which sums each player's terms in coalition
    order, an order that follows the players' channel positions."""
    assert np.abs(moved - expected).max() <= np.spacing(np.abs(expected).max())


@KINDS
@pytest.mark.parametrize("method, params", [
    (SaliencyMethod.FEATURE_ABLATION, {}),
    (SaliencyMethod.SHAPLEY_SAMPLING, {"exhaustive": True, "block_shape": 32}),
    (SaliencyMethod.KERNEL_SHAP, {"exhaustive": True}),
], ids=lambda v: getattr(v, "value", ""))
def test_permuted_modalities_permute_the_deterministic_maps(manifest, permuted, method, params,
                                                           as_view):
    cfg = MethodConfig(method, **{**METHOD_PARAMS, **params})
    maps, _ = generate_maps(samples(manifest, manifest.records, as_view), classifier(), cfg)
    moved, _ = generate_maps(samples(permuted, permuted.records, as_view),
                             permuted_classifier(), cfg)
    assert any(m.data.any() for m in maps.values())
    for sid, smap in maps.items():
        assert moved[sid].modality_names == tuple(smap.modality_names[m] for m in PERM)
        expected = smap.data[list(PERM)]
        if method is SaliencyMethod.SHAPLEY_SAMPLING:
            # one segment per modality: the players are the modalities, in
            # channel order, so the sums round as phi's do
            assert_within_an_ulp(moved[sid].data, expected)
        else:
            # feature_ablation's values are single differences, and
            # kernel_shap's players are the shared grid's segments
            assert moved[sid].data.tobytes() == expected.tobytes()


# -- sample-id renaming ------------------------------------------------------

def renamed(manifest):
    """The manifest's records under other sample ids, in the same order."""
    return DatasetManifest(tuple(replace(r, sample_id=f"case-{9 - i}")
                                 for i, r in enumerate(manifest.records)), manifest.class_names)


@KINDS
@pytest.mark.parametrize("variant", list(AblationVariant), ids=lambda v: v.value)
def test_renamed_samples_keep_phi(manifest, variant, as_view):
    policy = AblationPolicy(variant, rng_seed=4)
    other = renamed(manifest)
    mi, again = (shapley_mi(samples(m, m.records, as_view), classifier(), policy)
                 for m in (manifest, other))
    assert any(mi.phi)
    assert again == mi


@KINDS
@pytest.mark.parametrize("method", list(SaliencyMethod), ids=lambda m: m.value)
def test_renamed_samples_keep_every_map(manifest, method, as_view):
    other = renamed(manifest)
    cfg = MethodConfig(method, **METHOD_PARAMS)
    runs = [generate_maps(samples(m, m.records, as_view), classifier(), cfg)
            for m in (manifest, other)]
    (maps, runlog), (again, again_log) = runs
    assert list(again) == [r.sample_id for r in other.records]
    assert [(m.modality_names, m.data.dtype.str, m.data.tobytes()) for m in again.values()] == [
        (m.modality_names, m.data.dtype.str, m.data.tobytes()) for m in maps.values()]
    assert list(again_log["oracle_evals"].values()) == list(runlog["oracle_evals"].values())


# -- class relabeling --------------------------------------------------------

def relabeled(manifest):
    """The manifest with its two classes swapped: each label and the class names."""
    return DatasetManifest(tuple(replace(r, label=1 - r.label) for r in manifest.records),
                           manifest.class_names[::-1])


class Swapped:
    """An oracle's predictions with the two classes in the other order."""

    def __init__(self, inner):
        self.inner = inner

    def predict(self, volume):
        return ClassProbabilities(self.inner.predict(volume).probs[::-1])


class Untied:
    """classifier()'s predictions, a tie moved off 0.5/0.5 toward class 0;
    argmax breaks a tie toward the lower index, which a swap of the classes
    does not follow."""

    def __init__(self):
        self.inner = classifier()

    def predict(self, volume):
        p = self.inner.predict(volume).probs[0]
        p = 0.5 + 2.0**-20 if p == 0.5 else p
        return ClassProbabilities((p, 1.0 - p))


@KINDS
@pytest.mark.parametrize("method", list(SaliencyMethod), ids=lambda m: m.value)
def test_swapped_classes_keep_every_map_of_the_predicted_class(manifest, method, as_view):
    cfg = MethodConfig(method, **METHOD_PARAMS)
    other = relabeled(manifest)
    maps, _ = generate_maps(samples(manifest, manifest.records, as_view), classifier(), cfg)
    again, _ = generate_maps(samples(other, other.records, as_view), Swapped(classifier()), cfg)
    assert list(again) == list(maps)
    assert any(m.data.any() for m in maps.values())
    for sid, smap in maps.items():
        assert again[sid].data.tobytes() == smap.data.tobytes()


@KINDS
@pytest.mark.parametrize("variant", list(AblationVariant), ids=lambda v: v.value)
def test_swapped_classes_keep_phi_of_an_oracle_that_never_ties(manifest, variant, as_view):
    policy = AblationPolicy(variant, rng_seed=4)
    other = relabeled(manifest)
    mi = shapley_mi(samples(manifest, manifest.records, as_view), Untied(), policy)
    again = shapley_mi(samples(other, other.records, as_view), Swapped(Untied()), policy)
    assert any(mi.phi)
    assert again == mi


@KINDS
def test_a_tie_goes_to_class_0_under_either_class_order(manifest, as_view):
    # the built-in classifier gives 0.5/0.5 on the empty foreground of the
    # all-drop row, and argmax takes class 0: the empty coalition's accuracy
    # is the share of class-0 labels, whichever class that is
    other = relabeled(manifest)
    empty = [False] * 4
    zero = AblationPolicy(AblationVariant.ZERO_WHOLE_MODALITY)
    for m, oracle in ((manifest, classifier()), (other, Swapped(classifier()))):
        share = sum(r.label == 0 for r in m.records) / len(m.records)
        assert coalition_performance(samples(m, m.records, as_view), oracle, empty, zero) == share
    assert sum(r.label == 0 for r in manifest.records) != sum(r.label == 1
                                                              for r in manifest.records)
