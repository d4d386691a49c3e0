"""Tests of the benchmark itself: its probes must not change any output.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from common import file_digests
from layers import PER_LAYER, per_layer
from probe import OracleProxy, Recorder, instrument
from run import END_TO_END

from mmsaliency import cli, saliency
from mmsaliency.oracle import ExternalCommandOracle, ShapeRuleClassifier, predict_all
from mmsaliency.saliency import MethodConfig, SaliencyMethod
from mmsaliency.synthgen import SynthConfig, generate_dataset
from mmsaliency.tensorio import load_dataset

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLASSIFIER = ShapeRuleClassifier((0.0, 1.0, 0.0, 1.0), intensity_threshold=0.35)


def _dataset(tmp_path, n_samples=4):
    return generate_dataset(SynthConfig(n_samples=n_samples, image_size=32, seed=3),
                            tmp_path / "data")


def test_proxy_has_predict_batch_only_when_the_oracle_has_one():
    recorder = Recorder(trace=False)
    assert not hasattr(OracleProxy(CLASSIFIER, recorder), "predict_batch")
    external = ExternalCommandOracle("scorer {input_dir} {output_csv}")
    assert callable(OracleProxy(external, recorder).predict_batch)


def test_proxy_keeps_predict_all_on_the_per_sample_path(tmp_path):
    samples = load_dataset(_dataset(tmp_path))
    recorder = Recorder(trace=True)
    proxied = predict_all(samples, OracleProxy(CLASSIFIER, recorder))
    assert proxied == predict_all(samples, CLASSIFIER)
    assert recorder.evals == len(samples)
    assert len(recorder.oracle_s["builtin"]) == len(samples)  # one call per sample


def _cli_pipeline(out, manifest):
    out.mkdir()
    m = str(manifest)
    cli.main(["mi", "compute", "--manifest", m, "--policy", "zero",
              "--out", str(out / "mi.csv")])
    for method, params in (("feature_ablation", "block_shape=16"),
                           ("kernel_shap", "block_shape=16,n_samples=20")):
        cli.main(["saliency", "run", "--manifest", m, "--method", method,
                  "--params", params, "--seed", "2", "--out-dir", str(out / "maps")])
    cli.main(["metrics", "msfi", "--manifest", m, "--saliency-dir", str(out / "maps"),
              "--mi", str(out / "mi.csv"), "--out", str(out / "scores.csv")])


def test_traced_outputs_are_byte_identical_to_untraced(tmp_path):
    _dataset(tmp_path)
    manifest = tmp_path / "data" / "manifest.json"
    _cli_pipeline(tmp_path / "plain", manifest)
    with instrument(trace=False) as counted:
        _cli_pipeline(tmp_path / "counted", manifest)
    with instrument(trace=True) as traced:
        _cli_pipeline(tmp_path / "traced", manifest)

    plain = file_digests(tmp_path / "plain")
    assert any(name.endswith(".mmv") for name in plain)
    assert file_digests(tmp_path / "counted") == plain
    assert file_digests(tmp_path / "traced") == plain
    assert counted.evals == traced.evals > 0
    assert not counted.spans and traced.spans
    # the wrappers are gone once the context exits
    assert cli.generate_maps is saliency.generate_maps
    assert saliency.generate_maps.__module__ == "mmsaliency.saliency"
    assert not hasattr(saliency.generate_maps, "__wrapped__")


def test_launcher_matches_python_dash_m(tmp_path):
    _dataset(tmp_path)
    manifest = str(tmp_path / "data" / "manifest.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    args = ["mi", "compute", "--manifest", manifest, "--policy", "nonlesion", "--seed", "5"]
    record = tmp_path / "record.json"
    subprocess.run([sys.executable, "-m", "mmsaliency.cli", *args,
                    "--out", str(tmp_path / "plain.csv")], env=env, check=True)
    subprocess.run([sys.executable, str(HERE / "launch.py"), str(record), "1", *args,
                    "--out", str(tmp_path / "traced.csv")], env=env, check=True)
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()
    doc = json.loads(record.read_text())
    assert doc["evals"] == 16 * 4  # 2^4 coalitions x 4 samples
    assert [s["key"] for s in doc["spans"] if s["name"] == "shapley_mi"] == ["nonlesion"]


def test_per_layer_counts_evaluations(tmp_path):
    samples = load_dataset(_dataset(tmp_path))
    cfg = MethodConfig(SaliencyMethod.FEATURE_ABLATION, block_shape=16)
    with instrument(trace=True) as recorder:
        saliency.generate_maps(samples, CLASSIFIER, cfg)
    layer = per_layer([recorder.to_json()])
    assert list(layer) == [name for name, _ in PER_LAYER]
    # 4 modalities x 2 x 2 blocks, plus the target and unperturbed predictions
    assert layer["saliency.feature_ablation.evals_per_sample"] == 18
    assert layer["oracle.calls"] == 18 * len(samples)
    assert 0 < layer["saliency.feature_ablation.oracle_share"] <= 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extcmd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
