"""The CLI workloads, pipeline-2d and extcmd.

Each stage is one `mmsaliency` command in its own interpreter, started
through launch.py (which runs `mmsaliency.cli` as `python -m mmsaliency.cli`
does) and waited for before the next stage starts.
"""

from __future__ import annotations

import csv
import json
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from common import Outcome, check_against_earlier_runs, file_digests, median, peak_rss_mb
from layers import METHODS, POLICIES, per_layer

from mmsaliency.tensorio import load_dataset, load_manifest

HERE = Path(__file__).resolve().parent
# Set-ups before and after the measured passes; setup_s is the median of all,
# so that it samples more than one stretch of the machine's load.
SETUPS_BEFORE, SETUPS_AFTER = 2, 1
# About five times the slowest stage, so that a hung stage still ends the run
# well inside the benchmark's 180 s limit.
STAGE_TIMEOUT_S = 90

# Acceptance criterion 6's dataset and method settings.
PIPELINE_SAMPLES = 24
PIPELINE_SIZE = 64
ALIGN = "t1:0.5,t1c:1.0,t2:0.5,flair:0.7"
METHOD_PARAMS = {
    "occlusion": "window=8,stride=4",
    "feature_ablation": "block_shape=16",
    "feature_permutation": "block_shape=16",
    "lime": "block_shape=16,n_samples=512,ridge_lambda=0.01,kernel_width=1.0",
    "shapley_sampling": "block_shape=16,n_samples=10",
    "kernel_shap": "block_shape=16,n_samples=150",
}
SHARED_GRID = ("feature_permutation", "kernel_shap")

# extcmd: one sample per class, one grid block per modality.
EXT_SAMPLES = 2
EXT_SIZE = 32
# Files that depend on the runlogs' measured wall times.
RUNLOG_DEPENDENT = ("matrix.svg", "summary.csv")


@dataclass
class StageRun:
    group: str
    name: str
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    record: dict | None


@dataclass
class PassResult:
    stages: list = field(default_factory=list)

    def seconds(self, group=None):
        return sum(s.seconds for s in self.stages if group in (None, s.group))

    @property
    def evals(self):
        return sum(s.record["evals"] for s in self.stages if s.record)

    @property
    def records(self):
        return [s.record for s in self.stages if s.record]


class Cli:
    """Starts CLI commands as subprocesses and collects their probe records."""

    def __init__(self, workdir, env):
        self.workdir = Path(workdir)
        self.env = env
        self._records = 0

    def run(self, args, *, trace=False, plain=False, group="", name=""):
        """One command; `plain` runs `python -m mmsaliency.cli` with no probes."""
        args = [str(a) for a in args]
        self._records += 1
        record_path = self.workdir / f"record-{self._records}.json"
        if plain:
            cmd = [sys.executable, "-m", "mmsaliency.cli", *args]
        else:
            launcher = str(HERE / "launch.py")
            cmd = [sys.executable, launcher, str(record_path), str(int(trace)), *args]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, env=self.env, capture_output=True, text=True, timeout=STAGE_TIMEOUT_S
        )
        seconds = time.perf_counter() - start
        record = None
        if record_path.exists():
            record = json.loads(record_path.read_text(encoding="utf-8"))
            record_path.unlink()
        return StageRun(group, name or " ".join(args[:2]), seconds, proc.returncode,
                        proc.stdout, proc.stderr, record)

    def startup_s(self, repeats=3):
        """Median wall time of a fresh `python -m mmsaliency.cli --help`."""
        return median([self.run(["--help"], plain=True).seconds for _ in range(repeats)])


def _require(outcome, stage):
    tail = stage.stderr.strip().splitlines()[-1:] or [""]
    return outcome.check(
        stage.returncode == 0, f"{stage.name} exited {stage.returncode}: {tail[0]}"
    )


def set_up(cli, data, n_samples, size, seed, trace, outcome):
    """One set-up: `synth generate` plus the first load.

    Returns its seconds, its probe records and the digests of the files it wrote.
    """
    start = time.perf_counter()
    stage = cli.run(
        ["synth", "generate", "--n", n_samples, "--size", size, "--align", ALIGN,
         "--seed", seed, "--out", data],
        trace=trace,
    )
    if _require(outcome, stage):
        load_dataset(load_manifest(data / "manifest.json"))
    seconds = time.perf_counter() - start
    return seconds, [stage.record] if stage.record else [], file_digests(data)


def pipeline_stages(manifest, out, seed):
    maps = out / "maps"
    mi_zero = out / "mi_zero.csv"
    scores = out / "scores.csv"
    stages = [
        ("mi", f"mi.{policy}",
         ["mi", "compute", "--manifest", manifest, "--policy", policy, "--seed", seed,
          "--out", out / f"mi_{policy}.csv"])
        for policy in POLICIES
    ]
    stages += [
        ("saliency", f"saliency.{method}",
         ["saliency", "run", "--manifest", manifest, "--method", method,
          "--params", METHOD_PARAMS[method], "--seed", seed, "--out-dir", maps])
        for method in METHODS
    ]
    stages += [
        ("score", "metrics.msfi",
         ["metrics", "msfi", "--manifest", manifest, "--saliency-dir", maps,
          "--mi", mi_zero, "--out", scores]),
        ("score", "metrics.mi-corr",
         ["metrics", "mi-corr", "--manifest", manifest, "--saliency-dir", maps,
          "--mi", mi_zero, "--out", out / "micorr.csv"]),
        ("score", "metrics.iou",
         ["metrics", "iou", "--manifest", manifest, "--saliency-dir", maps,
          "--iou-threshold", "0.5", "--out", out / "iou.csv"]),
        ("score", "stats.friedman",
         ["stats", "friedman", "--scores", scores, "--metric", "msfi"]),
        ("score", "report.matrix", _report_args(out, "matrix.svg", "summary.csv")),
    ]
    return stages


def _report_args(out, svg, summary):
    return ["report", "matrix", "--scores", out / "scores.csv", "--runlog", out / "maps",
            "--out", out / svg, "--csv", out / summary]


def external_oracle():
    command = " ".join(shlex.quote(p) for p in (sys.executable, str(HERE / "scorer.py")))
    return f"cmd:{command} {{input_dir}} {{output_csv}}"


def extcmd_stages(manifest, out, seed, oracle=None):
    oracle = oracle or external_oracle()
    return [
        ("mi", "mi.zero",
         ["mi", "compute", "--manifest", manifest, "--policy", "zero",
          "--oracle", oracle, "--out", out / "mi_zero.csv"]),
        ("saliency", "saliency.feature_ablation",
         ["saliency", "run", "--manifest", manifest, "--method", "feature_ablation",
          "--params", f"block_shape={EXT_SIZE}", "--seed", seed,
          "--oracle", oracle, "--out-dir", out / "maps"]),
    ]


def run_pass(cli, stages, out, trace, outcome):
    out.mkdir(parents=True)
    result = PassResult()
    for group, name, args in stages:
        stage = cli.run(args, trace=trace, group=group, name=name)
        _require(outcome, stage)
        result.stages.append(stage)
        if name == "stats.friedman":
            (out / "friedman.txt").write_text(stage.stdout, encoding="utf-8")
    return result


def _read_rows(path):
    with open(path, encoding="utf-8", newline="") as fp:
        return list(csv.DictReader(fp))


def check_pipeline_outputs(out, outcome):
    """The paper's orderings, phrased so that they hold on any dataset seed."""
    for policy in POLICIES:
        phi = {r["modality"]: float(r["phi"]) for r in _read_rows(out / f"mi_{policy}.csv")}
        t1c = phi.pop("T1C")
        outcome.check(all(t1c > v for v in phi.values()), f"mi {policy}: T1C is not largest")

    msfi = {"specific": [], "shared": []}
    for r in _read_rows(out / "scores.csv"):
        msfi["shared" if r["method"] in SHARED_GRID else "specific"].append(float(r["value"]))
    outcome.check(
        np.median(msfi["specific"]) > np.median(msfi["shared"]),
        "median MSFI of modality-specific maps does not exceed shared-grid maps",
    )
    taus = {}
    for r in _read_rows(out / "micorr.csv"):
        taus.setdefault(r["method"], []).append(float(r["value"]))
    for method in SHARED_GRID:
        outcome.check(
            float(np.mean(taus.get(method, [np.nan]))) == 0.0,
            f"{method}: mean MI tau is not exactly 0",
        )


def run(workload, workdir, env, seed, seconds, trace):
    """Run one CLI workload; returns (end-to-end metrics, per-layer metrics, outcome)."""
    outcome = Outcome()
    cli = Cli(workdir, env)
    if workload == "pipeline-2d":
        n_samples, size, make_stages = PIPELINE_SAMPLES, PIPELINE_SIZE, pipeline_stages
    else:
        n_samples, size, make_stages = EXT_SAMPLES, EXT_SIZE, extcmd_stages
    setups = [
        set_up(cli, workdir / f"setup{i}", n_samples, size, seed, trace, outcome)
        for i in range(SETUPS_BEFORE)
    ]
    manifest = workdir / "setup0" / "manifest.json"

    # Untraced: passes until `seconds` have been measured. Traced: one
    # untraced pass, then one traced pass.
    passes, digests = [], []
    start = time.perf_counter()
    while (len(passes) < 2) if trace else (
        not passes or time.perf_counter() - start < seconds
    ):
        traced = trace and len(passes) == 1
        out = workdir / f"pass{len(passes)}"
        passes.append(run_pass(cli, make_stages(manifest, out, seed), out, traced, outcome))
        digests.append(file_digests(out, skip=RUNLOG_DEPENDENT))
    first = workdir / "pass0"
    for i, d in enumerate(digests[1:], 1):
        what = "traced pass" if trace else f"pass {i}"
        outcome.check(d == digests[0], f"{what} wrote different bytes than pass 0")
    check_against_earlier_runs(workload, seed, digests[0], outcome)
    setups += [
        set_up(cli, workdir / f"setup{i}", n_samples, size, seed, trace, outcome)
        for i in range(SETUPS_BEFORE, SETUPS_BEFORE + SETUPS_AFTER)
    ]
    setup_s, setup_records, setup_digests = zip(*setups)
    outcome.check(
        all(d == setup_digests[0] for d in setup_digests),
        "synth generate wrote different bytes for one seed",
    )

    if workload == "pipeline-2d":
        check_pipeline_outputs(first, outcome)
        again = cli.run(_report_args(first, "matrix_again.svg", "summary_again.csv"))
        if _require(outcome, again):
            outcome.check(
                all((first / a).read_bytes() == (first / b).read_bytes()
                    for a, b in (("matrix.svg", "matrix_again.svg"),
                                 ("summary.csv", "summary_again.csv"))),
                "report matrix is not byte-stable for fixed inputs",
            )
    else:
        builtin = workdir / "builtin"
        builtin.mkdir()
        for group, name, args in extcmd_stages(manifest, builtin, seed, "builtin"):
            _require(outcome, cli.run(args, plain=True, name=f"builtin {name}"))
        outcome.check(
            file_digests(builtin) == file_digests(first, skip=RUNLOG_DEPENDENT),
            "external-command oracle outputs differ from the built-in oracle's",
        )

    untraced = passes if not trace else passes[:1]
    e2e = {
        "setup_s": median(setup_s),
        "run_s": median([p.seconds() for p in untraced]),
        "oracle_evals": passes[0].evals,
        "peak_rss_mb": peak_rss_mb(),
        "pass_s": [p.seconds() for p in passes],
    }
    for group in {s.group for s in passes[0].stages}:
        e2e[f"{group}_s"] = median([p.seconds(group) for p in untraced])
    layer = None
    if trace:
        layer = per_layer(
            passes[1].records,
            setup_records,
            cli_startup_s=cli.startup_s(),
            cli_invocations=len(passes[1].stages),
            overhead_s=passes[1].seconds() - passes[0].seconds(),
        )
    return e2e, layer, outcome
