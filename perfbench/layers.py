"""Per-layer metrics of a traced run, computed from probe.Recorder records.

Every workload reports every metric in PER_LAYER; a layer the workload does
not exercise reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np

from probe import MMV_READS, MMV_WRITES

METHODS = (
    "occlusion",
    "feature_ablation",
    "feature_permutation",
    "lime",
    "shapley_sampling",
    "kernel_shap",
)
POLICIES = ("zero", "nonlesion", "feature")

PER_LAYER = (
    ("cli.startup_s", "s"),
    ("cli.invocations", "count"),
    ("synthgen.generate_ms_per_sample", "ms"),
    ("tensorio.read_MBps", "MB/s"),
    ("tensorio.write_MBps", "MB/s"),
    ("tensorio.files_written", "count"),
    ("oracle.calls", "count"),
    ("oracle.call_us_p50", "us"),
    ("oracle.call_us_p99", "us"),
    ("oracle.busy_s", "s"),
    ("oracle.ext.spawns", "count"),
    ("oracle.ext.spawn_s_p50", "s"),
    ("oracle.ext.items_per_spawn", "count"),
    *(
        (f"ablate.{policy}.{what}", "s")
        for policy in POLICIES
        for what in ("s", "outside_oracle_s")
    ),
    *(
        (f"saliency.{method}.{what}", unit)
        for method in METHODS
        for what, unit in (
            ("s", "s"),
            ("evals_per_sample", "count"),
            ("oracle_share", "ratio"),
            ("outside_oracle_s", "s"),
            ("sample_ms_p50", "ms"),
        )
    ),
    ("saliency.exact_ref.s", "s"),
    ("saliency.shapley_sampling.rmse", "prob"),
    ("saliency.kernel_shap.rmse", "prob"),
    ("metrics.maps_per_s", "1/s"),
    ("metrics.friedman_ms", "ms"),
    ("report.render_ms", "ms"),
    ("trace.overhead_s", "s"),
)
UNITS = dict(PER_LAYER)


def _spans(records, name=None, key=None):
    for rec in records:
        for span in rec["spans"]:
            if (name is None or span["name"] == name) and (
                key is None or span["key"] == key
            ):
                yield span


def _seconds(span):
    return span["end"] - span["start"]


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _top_level_in_layer(records, layer):
    """Spans of `layer` that no other span of the same layer encloses."""
    for rec in records:
        spans = rec["spans"]
        for span in spans:
            parent = span["parent"]
            if span["layer"] == layer and (
                parent is None or spans[parent]["layer"] != layer
            ):
                yield span


def _io_rate(records, names):
    spans = [s for n in names for s in _spans(records, n)]
    return _ratio(sum(s["size"] for s in spans) / 1e6, sum(map(_seconds, spans)))


def per_layer(records, setup_records=(), *, cli_startup_s=0.0, cli_invocations=0,
              overhead_s=0.0, rmse=None):
    """Metrics of one traced pass (`records`) and its traced set-ups.

    `setup_records` holds one list of records per set-up repetition; the
    set-up metrics are medians over the repetitions.
    """
    out = {
        "cli.startup_s": cli_startup_s,
        "cli.invocations": cli_invocations,
        "trace.overhead_s": overhead_s,
    }
    out["synthgen.generate_ms_per_sample"] = _median_over(
        setup_records,
        lambda recs: 1000.0 * _ratio(
            sum(map(_seconds, _spans(recs, "generate_dataset"))),
            sum(s["size"] for s in _spans(recs, "generate_dataset")),
        ),
    )
    out["saliency.exact_ref.s"] = _median_over(
        setup_records,
        lambda recs: sum(
            map(_seconds, _spans(recs, "generate_maps", "kernel_shap.exhaustive"))
        ),
    )

    out["tensorio.read_MBps"] = _io_rate(records, MMV_READS)
    out["tensorio.write_MBps"] = _io_rate(records, MMV_WRITES)
    out["tensorio.files_written"] = sum(
        1 for n in (*MMV_WRITES, "save_manifest") for _ in _spans(records, n)
    )

    builtin = [t for rec in records for t in rec["oracle_s"]["builtin"]]
    out["oracle.calls"] = len(builtin)
    out["oracle.call_us_p50"] = 1e6 * float(np.percentile(builtin, 50)) if builtin else 0.0
    out["oracle.call_us_p99"] = 1e6 * float(np.percentile(builtin, 99)) if builtin else 0.0
    out["oracle.busy_s"] = sum(builtin)
    ext = [t for rec in records for t in rec["oracle_s"]["ext"]]
    ext_items = sum(rec["oracle_items"]["ext"] for rec in records)
    out["oracle.ext.spawns"] = len(ext)
    out["oracle.ext.spawn_s_p50"] = statistics.median(ext) if ext else 0.0
    out["oracle.ext.items_per_spawn"] = _ratio(ext_items, len(ext))

    for policy in POLICIES:
        spans = list(_spans(records, "shapley_mi", policy))
        total = sum(map(_seconds, spans))
        out[f"ablate.{policy}.s"] = total
        out[f"ablate.{policy}.outside_oracle_s"] = (
            total - sum(s["oracle_s"] for s in spans)
        )

    for method in METHODS:
        spans = list(_spans(records, "generate_maps", method))
        total = sum(map(_seconds, spans))
        oracle = sum(s["oracle_s"] for s in spans)
        n_samples = sum(s["size"] for s in spans)
        if method == "feature_permutation":  # one call covers the whole batch
            per_sample = [_seconds(s) / s["size"] for s in spans]
        else:
            per_sample = [_seconds(s) for s in _spans(records, method)]
        prefix = f"saliency.{method}"
        out[f"{prefix}.s"] = total
        out[f"{prefix}.evals_per_sample"] = _ratio(
            sum(s["evals"] for s in spans), n_samples
        )
        out[f"{prefix}.oracle_share"] = _ratio(oracle, total)
        out[f"{prefix}.outside_oracle_s"] = total - oracle
        out[f"{prefix}.sample_ms_p50"] = (
            1000.0 * statistics.median(per_sample) if per_sample else 0.0
        )
    rmse = rmse or {}
    for method in ("shapley_sampling", "kernel_shap"):
        out[f"saliency.{method}.rmse"] = rmse.get(method, 0.0)

    scored = sum(1 for n in ("msfi", "iou", "estimated_mi") for _ in _spans(records, n))
    scoring = [
        s
        for s in _top_level_in_layer(records, "metrics")
        if s["name"] not in ("friedman", "nemenyi")
    ]
    out["metrics.maps_per_s"] = _ratio(scored, sum(map(_seconds, scoring)))
    out["metrics.friedman_ms"] = 1000.0 * sum(
        _seconds(s) for n in ("friedman", "nemenyi") for s in _spans(records, n)
    )
    out["report.render_ms"] = 1000.0 * sum(
        map(_seconds, _top_level_in_layer(records, "report"))
    )
    return {name: out[name] for name, _ in PER_LAYER}


def _median_over(setup_records, metric):
    values = [metric(recs) for recs in setup_records]
    return statistics.median(values) if values else 0.0
