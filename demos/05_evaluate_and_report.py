"""End-to-end evaluation: MSFI, MI correlation, statistics, and the report.

MSFI weights each modality's in-mask fraction of positive saliency by the
normalized ground-truth modality importance, so a good map must both rank
modalities correctly and localize each modality's feature. Kendall tau-b
between estimated and ground-truth MI scores the ranking alone. The Friedman
test (with Nemenyi post hoc) compares methods across samples, and the report
module renders the summary matrix as deterministic SVG.

Run:  python demos/05_evaluate_and_report.py
Equivalent CLI:  mmsaliency metrics msfi ... / stats friedman ... / report matrix ...
"""

from pathlib import Path

import numpy as np

from mmsaliency import (
    AblationPolicy,
    AblationVariant,
    MethodConfig,
    MetricRecord,
    SaliencyMethod,
    ShapeRuleClassifier,
    SynthConfig,
    estimated_mi,
    friedman,
    generate_dataset,
    generate_maps,
    iou,
    kendall_tau_b,
    load_dataset,
    msfi,
    nemenyi,
    postprocess,
    render_matrix,
    shapley_mi,
    summarize,
)

out = Path("demo_output/05")
out.mkdir(parents=True, exist_ok=True)
cfg = SynthConfig(n_samples=16, seed=7)
samples = load_dataset(generate_dataset(cfg, out / "data"))
clf = ShapeRuleClassifier(
    (0.0, 1.0, 0.0, 1.0), intensity_threshold=0.35,
    circularity_cutoff=0.7, softness=0.08,
)

mi = shapley_mi(samples, clf, AblationPolicy(AblationVariant.ZERO_WHOLE_MODALITY))
phi = np.array(mi.phi)
phi_norm = np.array(mi.normalized)
print("ground-truth MI:", {n: round(p, 3) for n, p in zip(mi.modality_names, mi.phi)})

methods = {
    "feature_ablation": MethodConfig(SaliencyMethod.FEATURE_ABLATION, block_shape=16),
    "occlusion": MethodConfig(SaliencyMethod.OCCLUSION, rng_seed=3, window=8, stride=4),
    "kernel_shap": MethodConfig(
        SaliencyMethod.KERNEL_SHAP, rng_seed=3, block_shape=16, n_samples=120
    ),
}

records, wall_times = [], {}
for name, mc in methods.items():
    maps, runlog = generate_maps(samples, clf, mc)
    wall_times[name] = list(runlog["wall_time"].values())
    for s in samples:
        raw = maps[s.record.sample_id]
        processed = postprocess(raw)
        records.append(
            MetricRecord(s.record.sample_id, name, "msfi",
                         msfi(processed, s.mask, phi_norm))
        )
        records.append(
            MetricRecord(s.record.sample_id, name, "mi_corr",
                         kendall_tau_b(estimated_mi(raw), phi))
        )
        records.append(
            MetricRecord(s.record.sample_id, name, "iou",
                         iou(processed, s.mask, threshold=0.5))
        )

for metric in ("msfi", "mi_corr", "iou"):
    print(f"\nmedian {metric} per method:")
    for name in methods:
        vals = [r.value for r in records if r.method == name and r.metric == metric]
        print(f"  {name:>18}: {np.median(vals):.3f}")

# Friedman across methods on MSFI, with the Nemenyi critical difference.
ids = sorted({r.sample_id for r in records})
cols = sorted(methods)
table = {(r.sample_id, r.method): r.value for r in records if r.metric == "msfi"}
matrix = np.array([[table[(sid, m)] for m in cols] for sid in ids])
chi2, df, p = friedman(matrix)
nem = nemenyi(matrix)
print(f"\nFriedman on MSFI: chi2={chi2:.3f}, df={df}, p={p:.4g}")
print(f"Nemenyi CD={nem.critical_difference:.3f}, mean ranks "
      + ", ".join(f"{m}={r:.2f}" for m, r in zip(cols, nem.mean_ranks)))

summaries = summarize(records, wall_times)
(out / "matrix.svg").write_text(render_matrix(summaries), encoding="utf-8")
print(f"\nwrote {out}/matrix.svg")
print("method order by summed MSFI:", [s.method for s in summaries])
