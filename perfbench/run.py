"""mmsaliency benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload pipeline-2d --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. With --trace 0 the result holds the
end-to-end metrics; with --trace 1, the per-layer metrics of a traced pass.
A table of every metric, with units, goes to standard error. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline-2d", "extcmd", "shapley-accuracy")
# Gated end-to-end metrics: every workload reports each of them.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "saliency_s": "s",
    "oracle_evals": "count",
    "peak_rss_mb": "MB",
}
# Printed in the table only: they apply to some workloads, not all.
TABLE_ONLY = {
    "mi_s": "s",
    "score_s": "s",
    "rmse.shapley_sampling": "prob",
    "rmse.kernel_shap": "prob",
}
# One thread per BLAS pool keeps every process within the machine's cores.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _environment(workdir):
    env = dict(os.environ)
    for var in THREAD_PINS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(workdir / "tmp")  # external-oracle batches land here
    return env


def _table(workload, seed, e2e, layer, outcome):
    lines = [
        f"{workload} seed={seed}: {outcome.failed} of {outcome.attempted} operations failed",
        "  pass seconds: " + " ".join(f"{t:.3f}" for t in e2e["pass_s"]),
    ]
    lines += [f"  FAILED {what}" for what in outcome.failures]
    if layer is None:
        rate = outcome.failed / outcome.attempted
        rows = [*END_TO_END.items(), *TABLE_ONLY.items()]
        lines += [
            f"  {name:<24} {e2e[name]:>14.6g} {unit}" if name in e2e
            else f"  {name:<24} {'n/a':>14} {unit}"
            for name, unit in rows
        ]
        lines.append(f"  {'error_rate':<24} {rate:>14.6g} ratio")
    else:
        from layers import UNITS

        lines += [f"  {n:<44} {v:>14.6g} {UNITS[n]}" for n, v in layer.items()]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mmsaliency" / "__init__.py").is_file():
        print(f"no mmsaliency sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = _environment(workdir)
    (workdir / "tmp").mkdir(parents=True)
    os.environ.update(env)  # this process too, before it imports numpy
    sys.path.insert(1, str(ROOT / "src"))
    try:
        if args.workload == "shapley-accuracy":
            import accuracy

            e2e, layer, outcome = accuracy.run(workdir, args.seed, args.seconds, args.trace)
        else:
            import cliflow

            e2e, layer, outcome = cliflow.run(
                args.workload, workdir, env, args.seed, args.seconds, args.trace
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(_table(args.workload, args.seed, e2e, layer, outcome), file=sys.stderr)
    if layer is None:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
    else:
        from layers import UNITS

        metrics = {n: {"value": v, "unit": UNITS[n]} for n, v in layer.items()}
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
