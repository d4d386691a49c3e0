"""The shapley-accuracy workload: in-process estimator accuracy per evaluation.

On one grid of K=9 segments shared by all modalities, exhaustive kernel_shap
gives the exact Shapley values (part of set-up). Each measured pass then runs
shapley_sampling and sampled kernel_shap at the same per-sample evaluation
budget and scores them by RMSE against the exact values.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
from common import (
    Outcome,
    check_against_earlier_runs,
    file_digests,
    median,
    peak_rss_mb,
)
from layers import per_layer
from probe import instrument

from mmsaliency.ablate import exact_shapley
from mmsaliency.oracle import ShapeRuleClassifier
from mmsaliency import saliency, synthgen, tensorio
from mmsaliency.saliency import MethodConfig, SaliencyMethod, build_grid
from mmsaliency.synthgen import SynthConfig
from mmsaliency.tensorio import MultiModalVolume

# Set-ups per run. The measured passes run in the gaps between them, so that
# setup_s and run_s both sample the whole run rather than one stretch of the
# machine's load.
SETUPS = 3
N_SAMPLES = 12
SIZE = 48
BLOCK = 16  # 3 x 3 blocks: K = 9
# Oracle evaluations per sample the estimators are configured for, including
# the one that picks the target class. The benchmark counts the evaluations
# actually made (oracle_evals), so an estimator that needs fewer shows it.
BUDGET = 128
CLASSIFIER = ShapeRuleClassifier(
    (0.0, 1.0, 0.0, 1.0), intensity_threshold=0.35, circularity_cutoff=0.7, softness=0.08
)


def estimator_configs(seed, k_segments):
    """Both estimators at BUDGET evaluations per sample."""
    # shapley_sampling: target + empty coalition + K per ordering
    # kernel_shap: target + full + empty + one per sampled coalition
    return {
        "shapley_sampling": MethodConfig(
            SaliencyMethod.SHAPLEY_SAMPLING, rng_seed=seed,
            n_samples=(BUDGET - 2) // k_segments,
        ),
        "kernel_shap": MethodConfig(
            SaliencyMethod.KERNEL_SHAP, rng_seed=seed, n_samples=BUDGET - 3
        ),
    }


def _segment_values(maps, samples, grid):
    """(samples, K) attribution per segment, read off the broadcast maps."""
    first = np.unique(grid.segment_ids.ravel(), return_index=True)[1]
    return np.array([maps[s.record.sample_id].data.ravel()[first] for s in samples])


def _set_up(data_dir, seed):
    """Generate, load, and compute the exact reference."""
    cfg = SynthConfig(n_samples=N_SAMPLES, image_size=SIZE, seed=seed)
    synthgen.generate_dataset(cfg, data_dir)
    samples = tensorio.load_dataset(tensorio.load_manifest(data_dir / "manifest.json"))
    first = samples[0].volume
    grid = build_grid(first.n_modalities, first.dims, BLOCK, per_modality=False)
    exact_cfg = MethodConfig(SaliencyMethod.KERNEL_SHAP, exhaustive=True)
    exact = _segment_values(saliency.generate_maps(samples, CLASSIFIER, exact_cfg, grid)[0],
                            samples, grid)
    return samples, grid, exact


def _timed_set_up(data_dir, seed, trace):
    """One set-up; returns its seconds, records, file digests and results."""
    with instrument(trace) as recorder:
        start = time.perf_counter()
        built = _set_up(data_dir, seed)
        seconds = time.perf_counter() - start
    records = [recorder.to_json()] if trace else []
    return seconds, records, file_digests(data_dir), built


def _reference_agrees(sample, grid, exact_row):
    """The exact reference equals ablate.exact_shapley over the full value table."""
    volume = sample.volume
    target = CLASSIFIER.predict(volume).argmax
    k = grid.n_segments
    values = np.empty(1 << k)
    for mask in range(1 << k):
        keep = np.array([mask >> j & 1 for j in range(k)], dtype=np.float64)
        perturbed = MultiModalVolume(volume.modality_names, volume.data * keep[grid.segment_ids])
        values[mask] = CLASSIFIER.predict(perturbed).probs[target]
    return np.allclose(exact_shapley(values, k), exact_row, rtol=0.0, atol=1e-9)


def _one_pass(samples, grid, configs):
    return {
        name: _segment_values(
            saliency.generate_maps(samples, CLASSIFIER, cfg, grid)[0], samples, grid
        )
        for name, cfg in configs.items()
    }


def run(workdir, seed, seconds, trace):
    """Returns (end-to-end metrics, per-layer metrics, outcome).

    Calls go through module attributes (`saliency.generate_maps`, ...), so the
    probes that probe.instrument installs see them.
    """
    outcome = Outcome()
    setups, results, times, records, evals = [], [], [], [], []
    for i in range(SETUPS):
        setups.append(_timed_set_up(workdir / f"setup{i}", seed, trace))
        if i == 0:
            samples, grid, exact = setups[0][3]
            configs = estimator_configs(seed, grid.n_segments)
        # Untraced: passes until i/(SETUPS-1) of `seconds` have been measured.
        # Traced: one untraced pass, then one traced pass, after the first set-up.
        while (i == 0 and len(results) < 2) if trace else (
            i < SETUPS - 1 and sum(times) < seconds * (i + 1) / (SETUPS - 1)
        ):
            traced = trace and len(results) == 1
            with instrument(traced) as recorder:
                start = time.perf_counter()
                results.append(_one_pass(samples, grid, configs))
                times.append(time.perf_counter() - start)
            evals.append(recorder.evals)
            records.append(recorder.to_json())

    setup_s, setup_records, digests, built = zip(*setups)
    outcome.check(
        all(d == digests[0] for d in digests)
        and all(np.array_equal(b[2], exact) for b in built),
        "set-up is not byte-identical across repeats",
    )
    outcome.check(grid.n_segments == 9, f"grid has {grid.n_segments} segments, not 9")
    outcome.check(_reference_agrees(samples[0], grid, exact[0]),
                  "exhaustive kernel_shap disagrees with exact_shapley")
    outcome.check(
        all(np.array_equal(r[m], results[0][m]) for r in results for m in configs),
        "estimators gave different values on repeated passes",
    )
    outcome.check(len(set(evals)) == 1, f"oracle evaluations differ between passes: {evals}")

    outputs = {"exact": exact, **results[0]}
    check_against_earlier_runs(
        "shapley-accuracy",
        seed,
        {
            "files": digests[0],
            "evals": evals[0],
            **{k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in outputs.items()},
        },
        outcome,
    )
    rmse = {
        m: float(np.sqrt(np.mean((results[0][m] - exact) ** 2))) for m in configs
    }

    untraced = times[:1] if trace else times
    e2e = {
        "setup_s": median(setup_s),
        "run_s": median(untraced),
        "saliency_s": median(untraced),
        "oracle_evals": evals[0],
        "peak_rss_mb": peak_rss_mb(),
        "rmse.shapley_sampling": rmse["shapley_sampling"],
        "rmse.kernel_shap": rmse["kernel_shap"],
        "pass_s": times,
    }
    layer = None
    if trace:
        layer = per_layer(
            [records[1]], setup_records, overhead_s=times[1] - times[0], rmse=rmse
        )
    return e2e, layer, outcome
