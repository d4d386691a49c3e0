"""Command-line toolkit: synth | mi | saliency | metrics | stats | report.

Every output listed in the format contracts (MMV, CSV, SVG) is a deterministic
function of the inputs and seed; measured wall times live only in the runlog
JSON files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import report as report_mod
from .ablate import AblationPolicy, AblationVariant, shapley_mi
from .metrics import (
    MetricRecord,
    estimated_mi,
    friedman,
    iou,
    kendall_tau_b,
    msfi,
    nemenyi,
)
from .oracle import ExternalCommandOracle, ShapeRuleClassifier, _command_parts, _iter_samples
from .saliency import MethodConfig, SaliencyMethod, generate_maps, postprocess
from .synthgen import DEFAULT_MODALITIES, SynthConfig, generate_dataset, generate_probe
from .tensorio import _json_entry, load_dataset, load_manifest, read_saliency, write_saliency


def _named_floats(text, names, default, what):
    """Parse 't1:0.5,t1c:1.0,...' onto the order of `names` (case-insensitive);
    a name the text leaves out keeps its entry of `default`."""
    by_name = {}
    for part in text.split(","):
        if not part:
            continue
        try:
            name, value = part.split(":")
            value = float(value)
        except ValueError:
            raise ValueError(f"cannot parse {what} entry {part!r} (want name:value)")
        name = name.strip().upper()
        if name in by_name:
            raise ValueError(f"{what} names {name!r} more than once")
        by_name[name] = value
    upper = [n.upper() for n in names]
    missing = [n for n in by_name if n not in upper]
    if missing:
        raise ValueError(f"{what} names {missing} not in modalities {names}")
    return tuple(by_name.get(n, d) for n, d in zip(upper, default))


def _check_oracle(args):
    """Reject a bad --oracle before any file is read."""
    spec = args.oracle
    if spec.startswith("cmd:"):
        try:
            _command_parts(spec[4:])
        except ValueError as exc:
            raise ValueError(f"{exc}, in --oracle {spec!r}") from None
    elif spec != "builtin":
        raise ValueError("--oracle must be 'builtin' or 'cmd:<template>'")


def _build_oracle(args, modality_names, class_names):
    """The --oracle oracle, once _check_oracle has passed it."""
    spec = args.oracle
    if spec.startswith("cmd:"):
        return ExternalCommandOracle(spec[4:], class_names)
    weights = _named_floats(args.weights, modality_names, [0.0] * len(modality_names),
                            "--weights")
    return ShapeRuleClassifier(
        weights,
        intensity_threshold=args.threshold,
        circularity_cutoff=args.cutoff,
        softness=args.softness,
    )


def _add_oracle_args(parser):
    parser.add_argument(
        "--oracle",
        default="builtin",
        help="'builtin' shape classifier or 'cmd:<template>' with {input_dir} {output_csv}",
    )
    parser.add_argument(
        "--weights",
        default="t1:0,t1c:1,t2:0,flair:1",
        help="builtin classifier modality weights, name:value pairs",
    )
    parser.add_argument("--threshold", type=float, default=0.35)
    parser.add_argument("--cutoff", type=float, default=0.7)
    parser.add_argument("--softness", type=float, default=0.08)


def _write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fp:
        csv.writer(fp, lineterminator="\n").writerows(rows)


def _load_samples(manifest_path):
    """The manifest and its loaded samples; an empty manifest is an error."""
    manifest = load_manifest(manifest_path)
    return manifest, _iter_samples(load_dataset(manifest))


def cmd_synth_generate(args):
    cfg = SynthConfig(
        n_samples=args.n,
        image_size=args.size,
        alignment=_named_floats(
            args.align, DEFAULT_MODALITIES, SynthConfig.alignment, "--align"
        ),
        background=args.background,
        seed=args.seed,
    )
    manifest = generate_dataset(cfg, args.out)
    print(f"wrote {len(manifest)} samples to {args.out}")


def cmd_synth_probe(args):
    cfg = SynthConfig(n_samples=args.n, image_size=args.size, seed=args.seed)
    manifest = generate_probe(cfg, args.which, args.out)
    print(f"wrote {args.which.upper()} probe ({len(manifest)} samples) to {args.out}")


def cmd_mi_compute(args):
    _check_oracle(args)
    manifest, samples = _load_samples(args.manifest)
    names = samples[0].volume.modality_names
    oracle = _build_oracle(args, names, manifest.class_names)
    policy = AblationPolicy(AblationVariant(args.policy), rng_seed=args.seed)
    mi = shapley_mi(samples, oracle, policy)
    rows = [["modality", "phi", "normalized", "variant"]]
    for name, phi, norm in zip(names, mi.phi, mi.normalized):
        rows.append([name, repr(phi), repr(norm), mi.variant])
    _write_csv(args.out, rows)
    print(f"wrote modality importance ({mi.variant}) to {args.out}")


_BOOLS = {"1": True, "0": False, "true": True, "false": False, "yes": True, "no": False}


def _parse_bool(value):
    if value.lower() not in _BOOLS:
        raise ValueError(f"{value!r} is not one of {'/'.join(_BOOLS)}")
    return _BOOLS[value.lower()]


# --params values are parsed by the type of the field's default; fields
# defaulting to None (window, stride, target_class) take integers.
_PARAM_PARSERS = {bool: _parse_bool, float: float}


def _parse_params(text):
    casts = {
        f.name: _PARAM_PARSERS.get(type(f.default), int)
        for f in MethodConfig.param_fields()
    }
    params = {}
    for part in text.split(","):
        if not part:
            continue
        try:
            key, value = part.split("=")
        except ValueError:
            raise ValueError(f"cannot parse --params entry {part!r} (want key=value)")
        key = key.strip()
        if key not in casts:
            raise ValueError(f"unknown method param {key!r}")
        if key in params:
            raise ValueError(f"method param {key!r} given more than once")
        try:
            params[key] = casts[key](value.strip())
        except ValueError as exc:
            raise ValueError(f"bad value for method param {key!r}: {exc}")
    return params


def cmd_saliency_run(args):
    _check_oracle(args)
    manifest, samples = _load_samples(args.manifest)
    names = samples[0].volume.modality_names
    method = SaliencyMethod(args.method)
    cfg = MethodConfig(method=method, rng_seed=args.seed, **_parse_params(args.params))
    n_classes = len(manifest.class_names)
    if cfg.target_class is not None and cfg.target_class >= n_classes:
        raise ValueError(
            f"target_class={cfg.target_class}, but the manifest has {n_classes} "
            f"classes {list(manifest.class_names)}"
        )
    oracle = _build_oracle(args, names, manifest.class_names)
    # the masks were loaded and checked with the volumes; no method reads them
    samples = [replace(s, mask=None) for s in samples]
    out_dir, files = Path(args.out_dir), {}
    with _staged(out_dir) as stage:

        def write(sample_id, smap):
            files[sample_id] = f"{sample_id}_{method.value}.mmv"
            write_saliency(smap, stage / files[sample_id])

        _, runlog = generate_maps(samples, oracle, cfg, on_map=write)
        runlog["files"] = files
        with open(stage / f"runlog_{method.value}.json", "w", encoding="utf-8") as fp:
            json.dump(runlog, fp, indent=2, sort_keys=True)
            fp.write("\n")
    print(f"wrote {len(files)} {method.value} maps to {out_dir}")


@contextlib.contextmanager
def _staged(out_dir):
    """Yield a fresh directory inside `out_dir` for the files of one run.

    `out_dir` and its missing parents are made first. When the block ends
    normally, each staged file replaces its namesake in `out_dir`; when it
    raises, the staged files and every directory made here are removed, and
    no file that was in `out_dir` before is touched.
    """
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        stage = Path(tempfile.mkdtemp(prefix=".staged-", dir=out_dir))
        try:
            yield stage
            for path in sorted(stage.iterdir()):
                os.replace(path, out_dir / path.name)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    except BaseException:
        for d in made:  # deepest first; one that is not empty stays
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def _read_csv(path, header, numbers=()):
    """The rows under `header`, each of its length, with finite floats in the `numbers` columns."""
    with open(path, encoding="utf-8", newline="") as fp:
        rows = list(csv.reader(fp))
    if not rows:
        raise ValueError(f"{path}: empty file, expected header {header}")
    if rows[0] != header:
        raise ValueError(f"{path}: unexpected header {rows[0]}, expected {header}")
    for line, row in enumerate(rows[1:], 2):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {row} does not have the columns {header}")
        for i in map(header.index, numbers):
            try:
                value = float(row[i])
            except ValueError:  # not a number: rejected with nan and inf below
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: line {line}: {header[i]!r} must be a finite number, got {row[i]!r}"
                )
            row[i] = value
    return rows[1:]


def _load_mi_csv(path, modality_names):
    """phi and normalized MI from mi.csv, reordered onto `modality_names`."""
    rows = _read_csv(path, ["modality", "phi", "normalized", "variant"], ("phi", "normalized"))
    names = [row[0] for row in rows]
    if sorted(names) != sorted(modality_names):
        raise ValueError(
            f"{path}: modalities {names} do not match the volumes' {list(modality_names)}"
        )
    rows = [rows[names.index(name)] for name in modality_names]
    return np.array([r[1] for r in rows]), np.array([r[2] for r in rows])


def _load_runlogs(path):
    """{method: (directory, runlog)} from a runlog file or a directory of them."""
    path = Path(path)
    paths = sorted(path.glob("runlog_*.json")) if path.is_dir() else [path]
    if not paths:
        raise ValueError(f"no runlog_*.json found in {path}")
    runlogs = {}
    for p in paths:
        with open(p, encoding="utf-8") as fp:
            runlog = json.load(fp)
        method = _json_entry(runlog, "method", "string", p)
        _json_entry(runlog, "files", "object", p, each="string")
        _json_entry(runlog, "wall_time", "object", p, each="number")
        if method in runlogs:
            raise ValueError(f"{path}: more than one runlog for method {method!r}")
        runlogs[method] = (p.parent, runlog)
    return runlogs


def cmd_metrics(args):
    _, samples = _load_samples(args.manifest)
    phi = norm = None
    if args.metric in ("msfi", "mi-corr"):
        phi, norm = _load_mi_csv(args.mi, samples[0].volume.modality_names)
    rows = [["sample_id", "method", "metric", "value"]]
    for method, (directory, runlog) in _load_runlogs(args.saliency_dir).items():
        for s in samples:
            fname = runlog["files"].get(s.record.sample_id)
            if fname is None:
                raise ValueError(f"{method}: no saliency file for {s.record.sample_id}")
            if args.metric in ("msfi", "iou") and s.mask is None:
                raise ValueError(f"{s.record.sample_id}: {args.metric} needs a mask")
            smap = read_saliency(directory / fname)
            if args.metric == "msfi":
                value = msfi(postprocess(smap), s.mask, norm)
            elif args.metric == "mi-corr":
                value = kendall_tau_b(estimated_mi(smap), phi)
            else:
                value = iou(postprocess(smap), s.mask, threshold=args.iou_threshold)
            rows.append([s.record.sample_id, method, args.metric.replace("-", "_"), repr(value)])
    _write_csv(args.out, rows)
    if args.metric == "mi-corr":
        meta = {"metric": "mi_corr", "estimated_mi_source": "raw_positive_part"}
        with open(f"{args.out}.meta.json", "w", encoding="utf-8") as fp:
            json.dump(meta, fp, indent=2, sort_keys=True)
            fp.write("\n")
    print(f"wrote {len(rows) - 1} scores to {args.out}")


def _read_scores(path, metric=None):
    rows = _read_csv(path, ["sample_id", "method", "metric", "value"], ("value",))
    seen = set()
    for line, row in enumerate(rows, 2):
        key = tuple(row[:3])
        if key in seen:
            raise ValueError(f"{path}: line {line}: repeats the score {key}")
        seen.add(key)
    return [MetricRecord(*row) for row in rows if metric is None or row[2] == metric]


def cmd_stats_friedman(args):
    records = _read_scores(args.scores, metric=args.metric)
    if not records:
        raise ValueError(f"no {args.metric!r} rows in {args.scores}")
    methods = sorted({r.method for r in records})
    sample_ids = sorted({r.sample_id for r in records})
    table = {(r.sample_id, r.method): r.value for r in records}
    missing = [(sid, m) for sid in sample_ids for m in methods if (sid, m) not in table]
    if missing:
        raise ValueError(f"score matrix incomplete: missing cell {missing[0]}")
    values = np.array([[table[(sid, m)] for m in methods] for sid in sample_ids])
    chi2, df, p = friedman(values)
    nem = nemenyi(values)
    print(f"friedman metric={args.metric} n={len(sample_ids)} k={len(methods)}")
    print(f"chi2={chi2:.6f} df={df} p={p:.6g}")
    print(f"nemenyi cd={nem.critical_difference:.6f}")
    for name, rank in zip(methods, nem.mean_ranks):
        print(f"mean_rank {name} {rank:.4f}")
    for i in range(len(methods)):
        for j in range(i + 1, len(methods)):
            if nem.significant[i, j]:
                print(f"significant {methods[i]} vs {methods[j]}")


def cmd_report_matrix(args):
    records = _read_scores(args.scores)
    runlogs = _load_runlogs(args.runlog) if args.runlog else {}
    wall = {method: list(r["wall_time"].values()) for method, (_, r) in runlogs.items()}
    summaries = report_mod.summarize(records, wall)
    svg = report_mod.render_matrix(summaries)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(svg)
    if args.csv:
        _write_csv(args.csv, report_mod.summary_csv_rows(summaries))
    order = ", ".join(s.method for s in summaries)
    print(f"wrote matrix ({order}) to {args.out}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mmsaliency",
        description="Saliency-map evaluation toolkit for multi-modal images",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    synth = sub.add_parser("synth", help="synthetic dataset generation")
    synth_sub = synth.add_subparsers(dest="command", required=True)
    gen = synth_sub.add_parser("generate", help="controllable multi-modal dataset")
    gen.add_argument("--n", type=int, default=200)
    gen.add_argument("--size", type=int, default=64)
    gen.add_argument("--align", default="", help="t1:0.5,t1c:1.0,t2:0.5,flair:0.7")
    gen.add_argument("--background", default="brain_texture", choices=["brain_texture", "none"])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_synth_generate)
    probe = synth_sub.add_parser("probe", help="tumor-only probe dataset")
    probe.add_argument("--which", required=True, choices=["t1c", "flair"])
    probe.add_argument("--n", type=int, default=200)
    probe.add_argument("--size", type=int, default=64)
    probe.add_argument("--seed", type=int, default=0)
    probe.add_argument("--out", required=True)
    probe.set_defaults(func=cmd_synth_probe)

    mi = sub.add_parser("mi", help="ground-truth modality importance")
    mi_sub = mi.add_subparsers(dest="command", required=True)
    compute = mi_sub.add_parser("compute", help="exact Shapley modality importance")
    compute.add_argument("--manifest", required=True)
    compute.add_argument(
        "--policy", default="zero", choices=sorted(v.value for v in AblationVariant)
    )
    compute.add_argument("--seed", type=int, default=0, help="nonlesion sampling seed")
    compute.add_argument("--out", required=True)
    _add_oracle_args(compute)
    compute.set_defaults(func=cmd_mi_compute)

    sal = sub.add_parser("saliency", help="perturbation saliency maps")
    sal_sub = sal.add_subparsers(dest="command", required=True)
    run = sal_sub.add_parser("run", help="generate maps for every sample")
    run.add_argument("--manifest", required=True)
    run.add_argument(
        "--method", required=True, choices=[m.value for m in SaliencyMethod]
    )
    run.add_argument("--params", default="", help="k=v,... method parameters")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out-dir", required=True)
    _add_oracle_args(run)
    run.set_defaults(func=cmd_saliency_run)

    met = sub.add_parser("metrics", help="score saliency maps")
    met_sub = met.add_subparsers(dest="command", required=True)
    for name in ("msfi", "mi-corr", "iou"):
        p = met_sub.add_parser(name)
        p.add_argument("--manifest", required=True)
        p.add_argument("--saliency-dir", required=True)
        if name == "iou":
            p.add_argument("--iou-threshold", type=float, default=0.5)
        else:
            p.add_argument("--mi", required=True, help="mi.csv from `mi compute`")
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_metrics, metric=name)

    stats = sub.add_parser("stats", help="method-comparison statistics")
    stats_sub = stats.add_subparsers(dest="command", required=True)
    fr = stats_sub.add_parser("friedman", help="Friedman test plus Nemenyi post hoc")
    fr.add_argument("--scores", required=True)
    fr.add_argument("--metric", default="msfi")
    fr.set_defaults(func=cmd_stats_friedman)

    rep = sub.add_parser("report", help="summaries and figures")
    rep_sub = rep.add_subparsers(dest="command", required=True)
    mat = rep_sub.add_parser("matrix", help="comparison-matrix SVG + summary CSV")
    mat.add_argument("--scores", required=True)
    mat.add_argument("--runlog", default=None, help="runlog json file or directory")
    mat.add_argument("--out", required=True)
    mat.add_argument("--csv", default=None)
    mat.set_defaults(func=cmd_report_matrix)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        message = " ".join(str(exc).split())
        raise SystemExit(f"mmsaliency {args.group} {args.command}: error: {message}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
