import csv
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import os
from dataclasses import fields

import pytest

from mmsaliency.cli import _parse_params, main
from mmsaliency.saliency import MethodConfig


def run_cli(*argv):
    assert main(list(argv)) == 0


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small pipeline run shared by the assertions below."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    run_cli("synth", "generate", "--n", "8", "--size", "48", "--seed", "21",
            "--out", str(data))
    manifest = data / "manifest.json"
    run_cli("mi", "compute", "--manifest", str(manifest), "--policy", "zero",
            "--out", str(root / "mi.csv"))
    sal = root / "saliency"
    run_cli("saliency", "run", "--manifest", str(manifest),
            "--method", "feature_ablation", "--params", "block_shape=12",
            "--seed", "3", "--out-dir", str(sal))
    run_cli("saliency", "run", "--manifest", str(manifest),
            "--method", "kernel_shap", "--params", "block_shape=12,n_samples=40",
            "--seed", "3", "--out-dir", str(sal))
    run_cli("metrics", "msfi", "--manifest", str(manifest),
            "--saliency-dir", str(sal), "--mi", str(root / "mi.csv"),
            "--out", str(root / "scores.csv"))
    run_cli("metrics", "mi-corr", "--manifest", str(manifest),
            "--saliency-dir", str(sal), "--mi", str(root / "mi.csv"),
            "--out", str(root / "micorr.csv"))
    run_cli("metrics", "iou", "--manifest", str(manifest),
            "--saliency-dir", str(sal), "--out", str(root / "iou.csv"))
    run_cli("report", "matrix", "--scores", str(root / "scores.csv"),
            "--runlog", str(sal), "--out", str(root / "matrix.svg"),
            "--csv", str(root / "summary.csv"))
    return root


def read_rows(path):
    with open(path, newline="") as fp:
        return list(csv.reader(fp))


class TestPipelineArtifacts:
    def test_dataset_layout(self, pipeline):
        data = pipeline / "data"
        assert (data / "manifest.json").exists()
        assert len(list(data.glob("s*.mmv"))) == 16  # volume + mask per sample

    def test_mi_csv_format(self, pipeline):
        rows = read_rows(pipeline / "mi.csv")
        assert rows[0] == ["modality", "phi", "normalized", "variant"]
        assert [r[0] for r in rows[1:]] == ["T1", "T1C", "T2", "FLAIR"]
        assert all(r[3] == "mod" for r in rows[1:])
        norms = [float(r[2]) for r in rows[1:]]
        assert max(norms) == 1.0
        assert all(0.0 <= v <= 1.0 for v in norms)

    def test_saliency_outputs_and_runlog(self, pipeline):
        sal = pipeline / "saliency"
        assert len(list(sal.glob("*_feature_ablation.mmv"))) == 8
        runlog = json.loads((sal / "runlog_feature_ablation.json").read_text())
        assert runlog["method"] == "feature_ablation"
        assert runlog["seed"] == 3
        assert len(runlog["wall_time"]) == 8
        assert len(runlog["files"]) == 8

    def test_scores_csv_format(self, pipeline):
        rows = read_rows(pipeline / "scores.csv")
        assert rows[0] == ["sample_id", "method", "metric", "value"]
        methods = {r[1] for r in rows[1:]}
        assert methods == {"feature_ablation", "kernel_shap"}
        assert all(r[2] == "msfi" for r in rows[1:])
        assert len(rows) == 1 + 8 * 2
        assert all(0.0 <= float(r[3]) <= 1.0 for r in rows[1:])

    def test_mi_corr_metadata_sidecar(self, pipeline):
        meta = json.loads((pipeline / "micorr.csv.meta.json").read_text())
        assert meta["estimated_mi_source"] == "raw_positive_part"
        rows = read_rows(pipeline / "micorr.csv")
        assert all(-1.0 <= float(r[3]) <= 1.0 for r in rows[1:])
        # shared-map method is all-tied -> tau-b convention 0
        ks = [float(r[3]) for r in rows[1:] if r[1] == "kernel_shap"]
        assert all(v == 0.0 for v in ks)

    def test_iou_scores_in_range(self, pipeline):
        rows = read_rows(pipeline / "iou.csv")
        assert all(0.0 <= float(r[3]) <= 1.0 for r in rows[1:])

    def test_summary_and_matrix(self, pipeline):
        rows = read_rows(pipeline / "summary.csv")
        assert rows[0][:2] == ["method", "metric"]
        svg = (pipeline / "matrix.svg").read_text()
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        assert "feature_ablation" in svg and "kernel_shap" in svg

    def test_stats_friedman_runs(self, pipeline, capsys):
        run_cli("stats", "friedman", "--scores", str(pipeline / "scores.csv"))
        out = capsys.readouterr().out
        assert "chi2=" in out and "nemenyi cd=" in out


class TestInputChecks:
    def test_runlog_params_are_the_accepted_params(self, pipeline):
        runlog = json.loads((pipeline / "saliency" / "runlog_kernel_shap.json").read_text())
        accepted = set()
        for f in fields(MethodConfig):
            try:
                _parse_params(f"{f.name}=1")
            except SystemExit:
                continue
            accepted.add(f.name)
        assert accepted == set(runlog["params"])
        assert _parse_params("window=3,ridge_lambda=0.5,exhaustive=yes") == {
            "window": 3, "ridge_lambda": 0.5, "exhaustive": True,
        }

    def _msfi_and_micorr(self, pipeline, mi, out):
        manifest = pipeline / "data" / "manifest.json"
        for metric in ("msfi", "mi-corr"):
            run_cli("metrics", metric, "--manifest", str(manifest),
                    "--saliency-dir", str(pipeline / "saliency"), "--mi", str(mi),
                    "--out", str(out / f"{metric}.csv"))
        return [(out / f"{metric}.csv").read_bytes() for metric in ("msfi", "mi-corr")]

    def test_mi_csv_rows_follow_modality_names(self, pipeline, tmp_path):
        rows = read_rows(pipeline / "mi.csv")
        permuted = tmp_path / "mi_permuted.csv"
        with open(permuted, "w", newline="") as fp:
            csv.writer(fp, lineterminator="\n").writerows([rows[0], *reversed(rows[1:])])
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert self._msfi_and_micorr(pipeline, pipeline / "mi.csv", tmp_path / "a") == (
            self._msfi_and_micorr(pipeline, permuted, tmp_path / "b")
        )

    def test_mi_csv_with_unknown_modality_exits(self, pipeline, tmp_path):
        rows = read_rows(pipeline / "mi.csv")
        rows[1][0] = "PET"
        bad = tmp_path / "mi_bad.csv"
        with open(bad, "w", newline="") as fp:
            csv.writer(fp, lineterminator="\n").writerows(rows)
        with pytest.raises(SystemExit, match="do not match"):
            self._msfi_and_micorr(pipeline, bad, tmp_path)

    @pytest.mark.parametrize("fault", ["truncated_mmv", "missing_manifest"])
    def test_bad_input_exits_without_traceback(self, tmp_path, fault):
        run_cli("synth", "generate", "--n", "2", "--size", "32", "--seed", "1",
                "--out", str(tmp_path / "data"))
        manifest = tmp_path / "data" / "manifest.json"
        if fault == "truncated_mmv":
            volume = tmp_path / "data" / "s0000.mmv"
            volume.write_bytes(volume.read_bytes()[:-5])
        else:
            manifest = tmp_path / "absent.json"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "mmsaliency.cli", "mi", "compute",
             "--manifest", str(manifest), "--out", str(tmp_path / "mi.csv")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1


class TestDeterminism:
    def test_synth_rerun_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            run_cli("synth", "generate", "--n", "4", "--size", "48",
                    "--seed", "5", "--out", str(tmp_path / d))
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_full_rerun_byte_identical_outputs(self, tmp_path):
        outs = {}
        for tag in ("x", "y"):
            base = tmp_path / tag
            run_cli("synth", "generate", "--n", "4", "--size", "48",
                    "--seed", "9", "--out", str(base / "data"))
            manifest = base / "data" / "manifest.json"
            run_cli("mi", "compute", "--manifest", str(manifest),
                    "--policy", "zero", "--out", str(base / "mi.csv"))
            run_cli("saliency", "run", "--manifest", str(manifest),
                    "--method", "occlusion", "--params", "window=12,stride=12",
                    "--seed", "2", "--out-dir", str(base / "sal"))
            run_cli("metrics", "msfi", "--manifest", str(manifest),
                    "--saliency-dir", str(base / "sal"), "--mi", str(base / "mi.csv"),
                    "--out", str(base / "scores.csv"))
            outs[tag] = base
        for rel in ["mi.csv", "scores.csv"]:
            assert (outs["x"] / rel).read_bytes() == (outs["y"] / rel).read_bytes()
        for mmv in sorted(p.name for p in (outs["x"] / "sal").glob("*.mmv")):
            assert (outs["x"] / "sal" / mmv).read_bytes() == (
                outs["y"] / "sal" / mmv
            ).read_bytes()

    def test_report_byte_identical_given_same_runlog(self, pipeline, tmp_path):
        svgs, csvs = [], []
        for i in range(2):
            svg = tmp_path / f"m{i}.svg"
            summary = tmp_path / f"s{i}.csv"
            run_cli("report", "matrix", "--scores", str(pipeline / "scores.csv"),
                    "--runlog", str(pipeline / "saliency"), "--out", str(svg),
                    "--csv", str(summary))
            svgs.append(svg.read_bytes())
            csvs.append(summary.read_bytes())
        assert svgs[0] == svgs[1]
        assert csvs[0] == csvs[1]


class TestExternalOracleCli:
    def test_mi_compute_with_command_oracle(self, tmp_path):
        run_cli("synth", "generate", "--n", "4", "--size", "48", "--seed", "1",
                "--out", str(tmp_path / "data"))
        script = tmp_path / "scorer.py"
        script.write_text(textwrap.dedent(
            """\
            import csv, json, sys
            from pathlib import Path

            input_dir = Path(sys.argv[1])
            manifest = json.loads((input_dir / "manifest.json").read_text())
            with open(sys.argv[2], "w", newline="") as fp:
                w = csv.writer(fp, lineterminator="\\n")
                w.writerow(["sample_id", "p0", "p1"])
                for rec in manifest["records"]:
                    w.writerow([rec["sample_id"], 0.9, 0.1])
            """
        ))
        run_cli("mi", "compute", "--manifest", str(tmp_path / "data" / "manifest.json"),
                "--policy", "zero",
                "--oracle", f"cmd:{sys.executable} {script} {{input_dir}} {{output_csv}}",
                "--out", str(tmp_path / "mi.csv"))
        rows = read_rows(tmp_path / "mi.csv")
        # a constant external scorer has no modality preference: phi all zero
        assert all(float(r[1]) == 0.0 for r in rows[1:])


def test_console_script_installed():
    proc = subprocess.run(
        ["mmsaliency", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "metrics" in proc.stdout
