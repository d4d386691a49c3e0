import csv
import json
import math
import reprlib
import shutil
import subprocess
import sys
import textwrap
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from helpers import REPO, src_env
from mmsaliency import cli
from mmsaliency import oracle as oracle_mod
from mmsaliency import tensorio
from mmsaliency.cli import _parse_params, main
from mmsaliency.oracle import ClassProbabilities
from mmsaliency.saliency import MethodConfig
from mmsaliency.synthgen import SynthConfig, generate_probe
from mmsaliency.tensorio import (
    MultiModalVolume,
    SaliencyMap,
    read_saliency,
    write_saliency,
    write_volume,
)


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


def write_rows(path, rows):
    with open(path, "w", newline="") as fp:
        csv.writer(fp, lineterminator="\n").writerows(rows)


def edited_manifest(pipeline, path, edit):
    """Write the pipeline's manifest, with absolute paths and `edit(doc)` applied, to path."""
    manifest = pipeline / "data" / "manifest.json"
    doc = json.loads(manifest.read_text())
    for rec in doc["records"]:
        for key in ("volume", "mask"):
            rec[key] = str(manifest.parent / rec[key])
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def edited_volume(src, dst, edit):
    """Copy the MMV file src to dst with `edit` merged into its header."""
    header, payload = Path(src).read_bytes().split(b"\n", 1)
    dst.write_bytes(json.dumps({**json.loads(header), **edit}).encode() + b"\n" + payload)
    return dst


# entries that must be JSON integers, given another JSON type
NON_INTEGER_LABELS = {"manifest_label_null": None, "manifest_label_float": 1.7,
                      "manifest_label_negative_float": -0.5, "manifest_label_string": "1",
                      "manifest_label_true": True}
NON_INTEGER_HEADERS = {"volume_mmv_true": {"mmv": True},
                       "volume_dims_bool": {"dims": [True, 48 * 48]}}  # fits the payload
# a runlog entry of the wrong JSON type: (key, the value given for s0000)
BAD_RUNLOG_ENTRIES = {"runlog_files_entry_int": ("files", 5),
                      "runlog_wall_time_entry_string": ("wall_time", "x"),
                      "runlog_wall_time_entry_null": ("wall_time", None),
                      "runlog_wall_time_entry_true": ("wall_time", True),
                      "runlog_wall_time_entry_nan": ("wall_time", float("nan"))}


def assert_one_error_line(err, argv):
    """A SystemExit from `main(argv)` has exit status 1 and one line with the
    subcommand's prefix."""
    assert isinstance(err.value.code, str)  # a message exits with status 1
    [line] = err.value.code.splitlines()
    assert line.startswith(f"mmsaliency {argv[0]} {argv[1]}: error: ")
    return line


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
        # per sample: the head, the keep-all row and 4 modalities x 4 x 4 blocks
        assert runlog["oracle_evals"] == dict.fromkeys(runlog["files"], 66)

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
        # the report read the runlogs' wall times
        assert {r[0] for r in rows[1:] if r[1] == "speed"} == {"feature_ablation", "kernel_shap"}

    def test_every_text_file_has_one_final_newline_and_no_carriage_return(self, pipeline):
        """tensorio writes every text file with "\\n" line ends, whatever the
        platform, each ending in exactly one."""
        names = ["data/manifest.json", "mi.csv", "scores.csv", "micorr.csv", "iou.csv",
                 "summary.csv", "saliency/runlog_feature_ablation.json",
                 "saliency/runlog_kernel_shap.json", "micorr.csv.meta.json", "matrix.svg"]
        for name in names:
            text = (pipeline / name).read_bytes()
            assert text.endswith(b"\n") and not text.endswith(b"\n\n"), name
            assert b"\r" not in text, name

    @pytest.mark.parametrize("metric, scores", [("msfi", "scores.csv"), ("iou", "iou.csv")])
    def test_only_mi_corr_leaves_a_sidecar(self, pipeline, tmp_path, metric, scores):
        """A score table's sidecar describes the run that wrote the table: an
        msfi or iou run removes the one an earlier mi-corr run left."""
        out = tmp_path / "s.csv"
        meta = Path(f"{out}.meta.json")
        common = ["--manifest", str(pipeline / "data" / "manifest.json"),
                  "--saliency-dir", str(pipeline / "saliency"), "--out", str(out)]
        mi = ["--mi", str(pipeline / "mi.csv")]
        run_cli("metrics", "mi-corr", *common, *mi)
        assert meta.read_bytes() == (pipeline / "micorr.csv.meta.json").read_bytes()
        run_cli("metrics", metric, *common, *(mi if metric == "msfi" else []))
        assert not meta.exists()
        assert out.read_bytes() == (pipeline / scores).read_bytes()
        run_cli("metrics", "mi-corr", *common, *mi)
        assert meta.read_bytes() == (pipeline / "micorr.csv.meta.json").read_bytes()
        assert out.read_bytes() == (pipeline / "micorr.csv").read_bytes()

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
            except ValueError:
                continue
            accepted.add(f.name)
        assert accepted == set(runlog["params"])
        assert _parse_params("window=3,ridge_lambda=0.5,exhaustive=yes") == {
            "window": 3, "ridge_lambda": 0.5, "exhaustive": True,
        }

    @pytest.mark.parametrize("value, parsed", [
        ("1", True), ("TRUE", True), ("yes", True), ("Yes", True),
        ("0", False), ("false", False), ("NO", False),
    ])
    def test_bool_params_take_a_fixed_set(self, value, parsed):
        assert _parse_params(f"exhaustive={value}") == {"exhaustive": parsed}

    @pytest.mark.parametrize("value", ["ture", "on", "2", ""])
    def test_bool_param_outside_the_set_exits(self, value):
        with pytest.raises(ValueError) as err:
            _parse_params(f"exhaustive={value}")
        [line] = str(err.value).splitlines()
        assert "'exhaustive'" in line and "1/0/true/false/yes/no" in line

    @pytest.mark.parametrize("fault, command, match", [
        ("mi_short_row", "metrics", "does not have the columns"),
        ("mi_empty", "metrics", "empty file"),
        ("scores_empty", "stats", "empty file"),
        ("scores_empty", "report", "empty file"),
        ("scores_short_row", "stats", "does not have the columns"),
        # a field the csv module rejects; on Python 3.10 a NUL byte fails alike
        ("scores_field_too_large", "stats", "/bad: line 2: field larger than field limit"),
        ("mi_field_too_large", "metrics", "/bad: line 2: field larger than field limit"),
        ("runlog_without_files", "metrics",
         "expected a JSON object with a 'files' entry, got {'method': 'kernel_shap'"),
        ("runlog_without_wall_time", "report",
         "expected a JSON object with a 'wall_time' entry, got {'files': {"),
        ("runlog_not_an_object", "metrics",
         "expected a JSON object with a 'method' entry, got [{'files': {"),
        ("runlog_not_an_object", "report",
         "expected a JSON object with a 'method' entry, got [{'files': {"),
        ("runlog_method_not_a_string", "metrics", "method must be a JSON string, got []"),
        ("runlog_files_not_an_object", "metrics", "files must be a JSON object, got []"),
        ("runlog_wall_time_not_an_object", "report", "wall_time must be a JSON object, got []"),
        ("runlog_files_entry_int", "metrics",
         "files entry 's0000' must be a JSON string, got 5"),
        *[(fault, "report", f"wall_time entry 's0000' must be a JSON number, got {value!r}")
          for fault, (key, value) in BAD_RUNLOG_ENTRIES.items() if key == "wall_time"],
        ("manifest_without_records", "metrics",
         "expected a JSON object with a 'records' entry, got {'class_names': ["),
        ("manifest_without_records", "mi",
         "expected a JSON object with a 'records' entry, got {'class_names': ["),
        ("manifest_without_class_names", "mi",
         "expected a JSON object with a 'class_names' entry, got {'records': ["),
        ("manifest_record_without_label", "saliency",
         "s0001: expected a JSON object with a 'label' entry, got {'mask': "),
        ("manifest_empty", "mi", "empty dataset"),
        ("manifest_empty", "saliency", "empty dataset"),
        ("manifest_empty", "metrics", "empty dataset"),
        ("manifest_not_an_object", "mi",
         "expected a JSON object with a 'records' entry, got []"),
        ("manifest_records_not_a_list", "mi", "records must be a JSON array, got 'abc'"),
        ("manifest_record_not_an_object", "mi", "records entry 0 must be a JSON object, got 1"),
        ("manifest_class_names_not_a_list", "mi", "class_names must be a JSON array, got 5"),
        ("manifest_label_null", "mi", "s0001: label must be a JSON integer, got None"),
        ("manifest_label_float", "mi", "s0001: label must be a JSON integer, got 1.7"),
        ("manifest_label_negative_float", "saliency",
         "s0001: label must be a JSON integer, got -0.5"),
        ("manifest_label_string", "metrics", "s0001: label must be a JSON integer, got '1'"),
        ("manifest_label_true", "mi", "s0001: label must be a JSON integer, got True"),
        ("manifest_sample_id_int", "saliency", "sample_id must be a JSON string, got 7"),
        ("manifest_sample_id_int", "mi", "sample_id must be a JSON string, got 7"),
        ("volume_mmv_true", "mi", "mmv must be a JSON integer, got True"),
        ("volume_dims_bool", "mi", "dims entry 0 must be a JSON integer, got True"),
        # a file that is not JSON or not UTF-8: one line naming the file, and for a CSV the line
        ("manifest_not_json", "mi",
         "/manifest.json: Expecting property name enclosed in double quotes: line 1 column 2"),
        ("manifest_not_json", "saliency",
         "/manifest.json: Expecting property name enclosed in double quotes: line 1 column 2"),
        ("manifest_utf16", "mi",
         "/manifest.json: 'utf-8' codec can't decode byte 0xff in position 0"),
        ("runlog_truncated", "metrics",
         "/runlog_kernel_shap.json: Expecting value: line 1 column 12"),
        ("runlog_truncated", "report",
         "/runlog_kernel_shap.json: Expecting value: line 1 column 12"),
        ("mi_byte_ff", "metrics", "/bad: line 3: 'utf-8' codec can't decode byte 0xff"),
        ("scores_byte_ff", "stats", "/bad: line 3: 'utf-8' codec can't decode byte 0xff"),
    ])
    def test_malformed_file_exits_with_one_line(self, pipeline, tmp_path, fault, command,
                                                match):
        manifest = pipeline / "data" / "manifest.json"
        mi, scores, sal = pipeline / "mi.csv", pipeline / "scores.csv", pipeline / "saliency"
        bad = tmp_path / "bad"
        if fault == "mi_short_row":
            rows = read_rows(mi)
            rows[2] = rows[2][:2]
            bad.write_text("\n".join(",".join(r) for r in rows) + "\n")
            mi = bad
        elif fault in ("mi_empty", "scores_empty"):
            bad.write_text("")
            mi = scores = bad
        elif fault == "scores_short_row":
            bad.write_text(scores.read_text() + "s0000,lime,msfi\n")
            scores = bad
        elif fault.endswith("_byte_ff"):
            lines = (mi if fault.startswith("mi") else scores).read_bytes().split(b"\n")
            lines[2] = b"\xff" + lines[2]
            bad.write_bytes(b"\n".join(lines))
            mi = scores = bad
        elif fault.endswith("_field_too_large"):
            header = (mi if fault.startswith("mi") else scores).read_text().splitlines()[0]
            bad.write_text(f"{header}\n{'x' * 200_000}\n")
            mi = scores = bad
        elif fault == "runlog_truncated":
            sal = tmp_path / "runlog_kernel_shap.json"
            sal.write_text('{"method": ')
        elif fault.startswith("runlog_"):
            runlog = json.loads((sal / "runlog_kernel_shap.json").read_text())
            if fault == "runlog_not_an_object":
                runlog = [runlog]
            elif fault.startswith("runlog_without_"):
                del runlog[fault.removeprefix("runlog_without_")]
            elif fault in BAD_RUNLOG_ENTRIES:
                key, value = BAD_RUNLOG_ENTRIES[fault]
                runlog[key]["s0000"] = value
            else:  # runlog_<key>_not_a...: a JSON list in place of the entry
                runlog[fault.removeprefix("runlog_").split("_not_a")[0]] = []
            sal = tmp_path / "runlog_kernel_shap.json"
            sal.write_text(json.dumps(runlog))
        elif fault in ("manifest_not_an_object", "manifest_not_json", "manifest_utf16"):
            # the UTF-16 manifest is the pipeline's, as Windows tools write it: ff fe, UTF-16LE
            content = {"manifest_not_an_object": b"[]", "manifest_not_json": b"{not json",
                       "manifest_utf16": b"\xff\xfe" + manifest.read_text().encode("utf-16-le")}
            manifest = tmp_path / "manifest.json"
            manifest.write_bytes(content[fault])
        else:
            def edit(doc):
                if fault == "manifest_empty":
                    doc["records"] = []
                elif fault == "manifest_record_without_label":
                    del doc["records"][1]["label"]
                elif fault == "manifest_records_not_a_list":
                    doc["records"] = "abc"
                elif fault == "manifest_record_not_an_object":
                    doc["records"] = [1]
                elif fault == "manifest_class_names_not_a_list":
                    doc["class_names"] = 5
                elif fault == "manifest_sample_id_int":
                    doc["records"][1]["sample_id"] = 7
                elif fault in NON_INTEGER_LABELS:
                    doc["records"][1]["label"] = NON_INTEGER_LABELS[fault]
                elif fault in NON_INTEGER_HEADERS:
                    doc["records"][1]["volume"] = str(edited_volume(
                        doc["records"][1]["volume"], tmp_path / "v.mmv",
                        NON_INTEGER_HEADERS[fault],
                    ))
                else:
                    del doc[fault.removeprefix("manifest_without_")]

            manifest = edited_manifest(pipeline, tmp_path / "manifest.json", edit)
        out = tmp_path / "out"
        argv = {
            "metrics": ["metrics", "msfi", "--manifest", str(manifest), "--saliency-dir",
                        str(sal), "--mi", str(mi), "--out", str(out)],
            "stats": ["stats", "friedman", "--scores", str(scores)],
            "report": ["report", "matrix", "--scores", str(scores), "--runlog", str(sal),
                       "--out", str(out)],
            "mi": ["mi", "compute", "--manifest", str(manifest), "--out", str(out)],
            "saliency": ["saliency", "run", "--manifest", str(manifest), "--method",
                         "feature_ablation", "--out-dir", str(out)],
        }[command]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert match in assert_one_error_line(err, argv)
        assert not out.exists()

    # one case per check in the CLI's helpers and commands that no test above
    # covers: the arguments, with {name} standing for a path from
    # _check_inputs, and the error it reports
    CHECKS = {
        "align_entry": ("synth generate --align t1 --out {out}",
                        "cannot parse --align entry 't1' (want name:value)"),
        "align_name": ("synth generate --align pet:0.5 --out {out}",
                       "--align names ['PET'] not in modalities"),
        "align_repeated": ("synth generate --align t1:0.2,T1:0.9 --out {out}",
                           "--align names 'T1' more than once"),
        "weights_repeated": ("mi compute --manifest {manifest} --weights flair:1,Flair:0 "
                             "--out {out}", "--weights names 'FLAIR' more than once"),
        "weights_sum_overflows": ("mi compute --manifest {manifest} --weights "
                                  "t1:1e308,t1c:1e308 --out {out}",
                                  "weights must have a finite sum: (1e+308, 1e+308, 0.0, 0.0)"),
        "oracle_spec": ("mi compute --manifest {manifest} --oracle onnx --out {out}",
                        "--oracle must be 'builtin' or 'cmd:<template>'"),
        "params_entry": ("saliency run --manifest {manifest} --method lime --params window "
                         "--out-dir {out}", "cannot parse --params entry 'window'"),
        "params_key": ("saliency run --manifest {manifest} --method lime --params depth=2 "
                       "--out-dir {out}", "unknown method param 'depth'"),
        "params_value": ("saliency run --manifest {manifest} --method lime --params "
                         "window=x --out-dir {out}", "bad value for method param 'window'"),
        "params_repeated": ("saliency run --manifest {manifest} --method lime --params "
                            "block_shape=8,block_shape=16 --out-dir {out}",
                            "method param 'block_shape' given more than once"),
        "no_saliency_file": ("metrics iou --manifest {manifest} --saliency-dir "
                             "{runlog_short} --out {out}",
                             "kernel_shap: no saliency file for s0000"),
        "needs_mask": ("metrics iou --manifest {manifest_no_masks} --saliency-dir {sal} "
                       "--out {out}", "s0000: iou needs a mask"),
        "no_metric_rows": ("stats friedman --scores {scores} --metric iou",
                           "no 'iou' rows in"),
        "missing_cell": ("stats friedman --scores {scores_missing}",
                         "score matrix incomplete: missing cell ('s0007', 'kernel_shap')"),
        "friedman_repeated_score": ("stats friedman --scores {scores_repeated}",
                                    "line 18: repeats the score ('s0000', "
                                    "'feature_ablation', 'msfi')"),
        "matrix_repeated_score": ("report matrix --scores {scores_repeated} --out {out}",
                                  "line 18: repeats the score ('s0000', "
                                  "'feature_ablation', 'msfi')"),
        "one_method": ("stats friedman --scores {scores_one_method}",
                       "need at least 2 samples and 2 methods, got (8, 1)"),
    }

    def _check_inputs(self, pipeline, tmp_path):
        """The paths CHECKS names: the pipeline's files and broken copies of them."""
        sal = pipeline / "saliency"
        paths = {"manifest": pipeline / "data" / "manifest.json", "sal": sal,
                 "scores": pipeline / "scores.csv", "out": tmp_path / "out"}
        runlog = json.loads((sal / "runlog_kernel_shap.json").read_text())
        del runlog["files"]["s0000"]
        paths["runlog_short"] = tmp_path / "runlog_kernel_shap.json"
        paths["runlog_short"].write_text(json.dumps(runlog))
        scores = read_rows(paths["scores"])
        paths["scores_missing"] = tmp_path / "scores_missing.csv"
        write_rows(paths["scores_missing"],
                   [r for r in scores if r[:2] != ["s0007", "kernel_shap"]])
        paths["scores_repeated"] = tmp_path / "scores_repeated.csv"
        write_rows(paths["scores_repeated"], scores + [scores[1]])
        paths["scores_one_method"] = tmp_path / "scores_one_method.csv"
        write_rows(paths["scores_one_method"],
                   [r for r in scores if r[1] != "feature_ablation"])

        def drop_masks(doc):
            for rec in doc["records"]:
                del rec["mask"]

        paths["manifest_no_masks"] = edited_manifest(
            pipeline, tmp_path / "manifest_no_masks.json", drop_masks
        )
        return paths

    @pytest.mark.parametrize("check", list(CHECKS))
    def test_every_check_reports_through_main(self, pipeline, tmp_path, capsys, check):
        paths = self._check_inputs(pipeline, tmp_path)
        args, match = self.CHECKS[check]
        argv = [part.format(**paths) for part in args.split()]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert match in assert_one_error_line(err, argv)
        assert capsys.readouterr().out == ""
        assert not paths["out"].exists()

    def test_wrong_prediction_count_reports_through_main(self, pipeline, tmp_path,
                                                         monkeypatch):
        class DropsOne:
            def predict_batch(self, volumes):
                return [ClassProbabilities((0.5, 0.5))] * (len(volumes) - 1)

        monkeypatch.setattr(cli, "_build_oracle", lambda *args: DropsOne())
        out = tmp_path / "mi.csv"
        argv = ["mi", "compute", "--manifest", str(pipeline / "data" / "manifest.json"),
                "--out", str(out)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        line = assert_one_error_line(err, argv)
        # 2^4 coalitions x 8 samples, the empty coalition's all-zero volume sent once
        assert "predict_batch returned 120 predictions for 121 volumes" in line
        assert not out.exists()

    @pytest.mark.parametrize("param, match", [
        ("kernel_width=nan", "kernel_width must be positive, got nan"),
        ("ridge_lambda=nan", "ridge_lambda must be finite and nonnegative, got nan"),
        ("ridge_lambda=inf", "ridge_lambda must be finite and nonnegative, got inf"),
    ])
    def test_non_finite_fit_param_exits_before_any_oracle_call(
        self, pipeline, tmp_path, monkeypatch, capsys, param, match
    ):
        self._assert_fails_before_any_oracle_call(
            pipeline, tmp_path, monkeypatch, capsys,
            ["--method", "lime", "--params", f"block_shape=32,{param}"], match,
        )

    # lime: at these widths only all-ones keep rows get a nonzero weight, and
    # 40 rows over 16 segments hold none; kernel_shap: seed 45 draws 6
    # coalitions of K = 4 segments that do not span the fit
    @pytest.mark.parametrize("args, match", [
        ("lime block_shape=24,n_samples=40,kernel_width=1e-200 0",
         "lime normal equations are singular"),
        ("lime block_shape=24,n_samples=40,kernel_width=1e-3 0",
         "lime normal equations are singular"),
        ("kernel_shap block_shape=24,n_samples=6 45", "kernel_shap system is singular"),
    ])
    def test_singular_fit_exits_before_any_oracle_call(
        self, pipeline, tmp_path, monkeypatch, capsys, args, match
    ):
        method, params, seed = args.split()
        self._assert_fails_before_any_oracle_call(
            pipeline, tmp_path, monkeypatch, capsys,
            ["--method", method, "--params", params, "--seed", seed], match,
        )

    def _assert_fails_before_any_oracle_call(self, pipeline, tmp_path, monkeypatch, capsys,
                                             args, match):
        calls = []

        class Counting:
            def predict(self, volume):
                calls.append(1)
                return ClassProbabilities((0.5, 0.5))

        monkeypatch.setattr(cli, "_build_oracle", lambda *args: Counting())
        out = tmp_path / "maps"
        argv = ["saliency", "run", "--manifest", str(pipeline / "data" / "manifest.json"),
                *args, "--out-dir", str(out)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert match in assert_one_error_line(err, argv)
        assert capsys.readouterr() == ("", "")
        assert calls == []
        assert not out.exists()

    def test_unknown_method_is_a_usage_error(self, pipeline, tmp_path, capsys):
        out = tmp_path / "maps"
        with pytest.raises(SystemExit) as err:
            main(["saliency", "run", "--manifest", str(pipeline / "data" / "manifest.json"),
                  "--method", "gradcam", "--out-dir", str(out)])
        assert err.value.code == 2
        assert "invalid choice: 'gradcam'" in capsys.readouterr().err
        assert not out.exists()

    # each metrics subcommand takes only the flags it reads
    @pytest.mark.parametrize("args, match", [
        ("metrics mi-corr --manifest {manifest} --saliency-dir {sal} --out {out}",
         "the following arguments are required: --mi"),
        ("metrics iou --manifest {manifest} --saliency-dir {sal} --mi {mi} --out {out}",
         "unrecognized arguments: --mi"),
        ("metrics msfi --manifest {manifest} --saliency-dir {sal} --mi {mi} "
         "--iou-threshold 0.5 --out {out}", "unrecognized arguments: --iou-threshold 0.5"),
    ], ids=["mi_required", "iou_with_mi", "msfi_with_iou_threshold"])
    def test_a_flag_the_metric_does_not_take_is_a_usage_error(
        self, pipeline, tmp_path, capsys, args, match
    ):
        paths = {"manifest": pipeline / "data" / "manifest.json",
                 "sal": pipeline / "saliency", "mi": pipeline / "mi.csv",
                 "out": tmp_path / "out.csv"}
        with pytest.raises(SystemExit) as err:
            main([part.format(**paths) for part in args.split()])
        assert err.value.code == 2
        assert match in capsys.readouterr().err
        assert not paths["out"].exists()

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
        write_rows(permuted, [rows[0], *reversed(rows[1:])])
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert self._msfi_and_micorr(pipeline, pipeline / "mi.csv", tmp_path / "a") == (
            self._msfi_and_micorr(pipeline, permuted, tmp_path / "b")
        )

    def test_mi_csv_with_unknown_modality_exits(self, pipeline, tmp_path):
        rows = read_rows(pipeline / "mi.csv")
        rows[1][0] = "PET"
        bad = tmp_path / "mi_bad.csv"
        write_rows(bad, rows)
        out = tmp_path / "msfi.csv"
        argv = ["metrics", "msfi", "--manifest", str(pipeline / "data" / "manifest.json"),
                "--saliency-dir", str(pipeline / "saliency"), "--mi", str(bad),
                "--out", str(out)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert "do not match the volumes'" in assert_one_error_line(err, argv)
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["duplicate_method", "no_runlogs"])
    def test_runlog_directory_must_name_each_method_once(self, pipeline, tmp_path, fault):
        sal = tmp_path / "saliency"
        if fault == "duplicate_method":
            shutil.copytree(pipeline / "saliency", sal)
            shutil.copy(sal / "runlog_kernel_shap.json", sal / "runlog_kernel_shap_2.json")
            match = "more than one runlog for method 'kernel_shap'"
        else:
            sal.mkdir()
            match = "no runlog_*.json found in"
        for argv in (
            ["metrics", "iou", "--manifest", str(pipeline / "data" / "manifest.json"),
             "--saliency-dir", str(sal), "--out", str(tmp_path / "iou.csv")],
            ["report", "matrix", "--scores", str(pipeline / "scores.csv"),
             "--runlog", str(sal), "--out", str(tmp_path / "matrix.svg")],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert match in assert_one_error_line(err, argv)
        assert not (tmp_path / "iou.csv").exists()
        assert not (tmp_path / "matrix.svg").exists()

    @pytest.mark.parametrize("table", ["mi", "scores"])
    def test_blank_csv_rows_are_skipped(self, pipeline, tmp_path, capsys, table):
        """A CSV with a blank row before the header and after every line reads
        as the pipeline's own: mi.csv gives the same scores, scores.csv the
        same Friedman output."""
        blank = tmp_path / f"{table}.csv"
        blank.write_text("\n" + (pipeline / f"{table}.csv").read_text().replace("\n", "\n\n"))

        def run(path):
            out = tmp_path / "out.csv"
            if table == "mi":
                run_cli("metrics", "msfi", "--manifest", str(pipeline / "data" / "manifest.json"),
                        "--saliency-dir", str(pipeline / "saliency"), "--mi", str(path),
                        "--out", str(out))
                return out.read_bytes()
            run_cli("stats", "friedman", "--scores", str(path))
            return capsys.readouterr().out

        assert run(blank) == run(pipeline / f"{table}.csv")

    def test_metrics_and_report_take_a_single_runlog_file(self, pipeline, tmp_path):
        runlog = pipeline / "saliency" / "runlog_kernel_shap.json"
        run_cli("metrics", "iou", "--manifest", str(pipeline / "data" / "manifest.json"),
                "--saliency-dir", str(runlog), "--out", str(tmp_path / "iou.csv"))
        assert {r[1] for r in read_rows(tmp_path / "iou.csv")[1:]} == {"kernel_shap"}
        run_cli("report", "matrix", "--scores", str(pipeline / "scores.csv"),
                "--runlog", str(runlog), "--out", str(tmp_path / "matrix.svg"),
                "--csv", str(tmp_path / "summary.csv"))
        speed = [r for r in read_rows(tmp_path / "summary.csv") if r[1] == "speed"]
        assert [r[0] for r in speed] == ["kernel_shap"]

    # per fault: the scorer's probability columns, each row's values, the error
    SCORER_OUTPUT = {
        # three probability columns for the dataset's two classes
        "extra_probability_column": (["p0", "p1", "p2"], [0.5, 0.25, 0.25],
                                     "expected ['sample_id', 'p0', 'p1']"),
        "nan_probability": (["p0", "p1"], ["nan", "nan"],
                            "predictions.csv: line 2: 'p0' must be a finite number, got 'nan'"),
    }

    @pytest.mark.parametrize(
        "fault",
        ["truncated_mmv", "missing_manifest", "extra_probability_column", "nan_probability"],
    )
    def test_bad_input_exits_without_traceback(self, tmp_path, fault):
        run_cli("synth", "generate", "--n", "2", "--size", "32", "--seed", "1",
                "--out", str(tmp_path / "data"))
        manifest = tmp_path / "data" / "manifest.json"
        oracle = []
        if fault == "truncated_mmv":
            volume = tmp_path / "data" / "s0000.mmv"
            volume.write_bytes(volume.read_bytes()[:-5])
        elif fault == "missing_manifest":
            manifest = tmp_path / "absent.json"
        else:
            columns, values, expected = self.SCORER_OUTPUT[fault]
            script = tmp_path / "scorer.py"
            script.write_text(textwrap.dedent(
                f"""\
                import csv, json, sys
                from pathlib import Path

                manifest = json.loads((Path(sys.argv[1]) / "manifest.json").read_text())
                with open(sys.argv[2], "w", newline="") as fp:
                    w = csv.writer(fp, lineterminator="\\n")
                    w.writerow(["sample_id", *{columns!r}])
                    for rec in manifest["records"]:
                        w.writerow([rec["sample_id"], *{values!r}])
                """
            ))
            oracle = ["--oracle", f"cmd:{sys.executable} {script} {{input_dir}} {{output_csv}}"]
        proc = subprocess.run(
            [sys.executable, "-m", "mmsaliency.cli", "mi", "compute",
             "--manifest", str(manifest), "--out", str(tmp_path / "mi.csv"), *oracle],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        if oracle:
            assert expected in proc.stderr
        assert not (tmp_path / "mi.csv").exists()

    @pytest.mark.parametrize("target, match", [
        (5, "target_class=5, but the manifest has 2 classes"),
        (2, "target_class=2, but the manifest has 2 classes"),
        (-1, "target_class must be nonnegative, got -1"),
    ])
    def test_bad_target_class_exits_before_any_oracle_call(self, tmp_path, target, match):
        run_cli("synth", "generate", "--n", "2", "--size", "32", "--seed", "1",
                "--out", str(tmp_path / "data"))
        log = tmp_path / "spawns.log"
        script = tmp_path / "scorer.py"
        script.write_text(f"open({str(log)!r}, 'a').write('spawn\\n')\n")
        out = tmp_path / "maps"
        proc = subprocess.run(
            [sys.executable, "-m", "mmsaliency.cli", "saliency", "run",
             "--manifest", str(tmp_path / "data" / "manifest.json"),
             "--method", "feature_ablation",
             "--params", f"block_shape=16,target_class={target}",
             "--oracle", f"cmd:{sys.executable} {script} {{input_dir}} {{output_csv}}",
             "--out-dir", str(out)],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 1
        [line] = proc.stderr.strip().splitlines()
        assert line.startswith(f"mmsaliency saliency run: error: {match}")
        assert not log.exists()  # the scorer never ran
        assert not out.exists()

    def test_a_label_the_oracle_does_not_predict_exits_with_one_line(self, tmp_path):
        run_cli("synth", "generate", "--n", "2", "--size", "32", "--seed", "1",
                "--out", str(tmp_path / "data"))
        manifest = tmp_path / "data" / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["class_names"].append("third")
        doc["records"][1]["label"] = 2
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["mi", "compute", "--manifest", str(manifest), "--oracle", "builtin",
                "--out", str(tmp_path / "mi.csv")]
        with pytest.raises(SystemExit) as err:
            main(argv)
        line = assert_one_error_line(err, argv)
        assert line.endswith("error: sample s0001: label=2, but the oracle predicts 2 classes")
        assert not (tmp_path / "mi.csv").exists()

    def test_failing_oracle_leaves_no_out_dir(self, tmp_path):
        run_cli("synth", "generate", "--n", "2", "--size", "32", "--seed", "1",
                "--out", str(tmp_path / "data"))
        out = tmp_path / "maps"
        argv = ["saliency", "run", "--manifest", str(tmp_path / "data" / "manifest.json"),
                "--method", "feature_ablation",
                "--oracle", "cmd:false {input_dir} {output_csv}", "--out-dir", str(out)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert "external oracle exited with 1" in assert_one_error_line(err, argv)
        assert not out.exists()


class TestStagedOutputs:
    """`saliency run` writes its files under temporary names in --out-dir and
    gives them their names only once the run succeeds."""

    # occlusion at 32x32 with 16x16 windows: per sample, the head and 16
    # windows of one 16 KiB volume each; a chunk this size is one sample's
    CHUNK_BYTES = 17 * 4 * 32 * 32 * 4

    @pytest.fixture
    def manifest(self, tmp_path):
        run_cli("synth", "generate", "--n", "3", "--size", "32", "--seed", "1",
                "--out", str(tmp_path / "data"))
        return tmp_path / "data" / "manifest.json"

    @staticmethod
    def contents(directory):
        return {p.relative_to(directory): p.read_bytes() if p.is_file() else None
                for p in directory.rglob("*")}

    @staticmethod
    def occlusion(manifest, out, *extra, seed="1"):
        return ["saliency", "run", "--manifest", str(manifest), "--method", "occlusion",
                "--params", "window=16,stride=16", "--seed", seed, "--out-dir", str(out),
                *extra]

    @pytest.mark.parametrize("earlier_run", [True, False])
    def test_a_run_that_fails_mid_stream_leaves_no_file(self, manifest, tmp_path,
                                                        monkeypatch, earlier_run):
        out = tmp_path / ("maps" if earlier_run else "new/maps")
        if earlier_run:
            run_cli(*self.occlusion(manifest, out))
            (out / "notes.txt").write_text("not the run's\n")
            before = self.contents(out)
        # answers its first spawn, logging the maps staged so far, and fails the second
        log = tmp_path / "spawns.log"
        script = tmp_path / "scorer.py"
        script.write_text(textwrap.dedent(
            f"""\
            import csv, json, sys
            from pathlib import Path

            log = Path({str(log)!r})
            spawn = len(log.read_text().splitlines()) if log.exists() else 0
            staged = sorted(p.name for p in Path({str(out)!r}).glob(".*/*.mmv"))
            with open(log, "a") as fp:
                fp.write(json.dumps(staged) + "\\n")
            if spawn:
                sys.exit(1)
            manifest = json.loads((Path(sys.argv[1]) / "manifest.json").read_text())
            with open(sys.argv[2], "w", newline="") as fp:
                w = csv.writer(fp, lineterminator="\\n")
                w.writerow(["sample_id", "p0", "p1"])
                for rec in manifest["records"]:
                    w.writerow([rec["sample_id"], 0.9, 0.1])
            """
        ))
        monkeypatch.setattr(oracle_mod, "BATCH_BYTES", self.CHUNK_BYTES)
        argv = self.occlusion(manifest, out, "--oracle",
                              f"cmd:{sys.executable} {script} {{input_dir}} {{output_csv}}",
                              seed="2")
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert "external oracle exited with 1" in assert_one_error_line(err, argv)
        # the first sample's map was written before the second spawn failed
        assert [json.loads(line) for line in log.read_text().splitlines()] == [
            [], ["s0000_occlusion.mmv"]]
        if earlier_run:
            assert self.contents(out) == before
        else:
            assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("method", ["occlusion", "feature_permutation"])
    def test_no_mask_is_alive_while_the_oracle_runs(self, manifest, tmp_path, monkeypatch,
                                                     method):
        alive, reads, alive_at_calls = set(), [], []
        read_mask = tensorio.read_mask

        def tracked(*args, **kwargs):
            mask = read_mask(*args, **kwargs)
            reads.append(len(reads))
            alive.add(reads[-1])
            weakref.finalize(mask, alive.discard, reads[-1])
            return mask

        predict = oracle_mod.ShapeRuleClassifier.predict
        monkeypatch.setattr(tensorio, "read_mask", tracked)
        monkeypatch.setattr(oracle_mod.ShapeRuleClassifier, "predict",
                            lambda clf, volume: alive_at_calls.append(len(alive))
                            or predict(clf, volume))
        run_cli("saliency", "run", "--manifest", str(manifest), "--method", method,
                "--params", "window=16,stride=16,block_shape=16", "--out-dir",
                str(tmp_path / "maps"))
        assert reads == []  # saliency run reads no mask
        assert alive_at_calls and set(alive_at_calls) == {0}

    def test_a_run_replaces_only_its_own_files(self, manifest, tmp_path):
        out = tmp_path / "maps"
        run_cli(*self.occlusion(manifest, out))
        (out / "notes.txt").write_text("not the run's\n")
        first = self.contents(out)
        run_cli(*self.occlusion(manifest, out, seed="2"))
        second = self.contents(out)
        assert set(second) == set(first)  # nothing staged is left behind
        assert second[Path("notes.txt")] == first[Path("notes.txt")]
        changed = {name for name in first if first[name] != second[name]}
        assert changed == {Path(f"s000{i}_occlusion.mmv") for i in range(3)} | {
            Path("runlog_occlusion.json")}


class TestStagedFiles:
    """`mi compute`, `metrics` and `report matrix` stage their files as
    `saliency run` does: a run that fails leaves every earlier file as it
    was, and the missing parents of an output are made, and removed again
    if the run fails."""

    @staticmethod
    def metrics(pipeline, metric, out):
        argv = ["metrics", metric, "--manifest", str(pipeline / "data" / "manifest.json"),
                "--saliency-dir", str(pipeline / "saliency"), "--out", str(out)]
        return argv + ([] if metric == "iou" else ["--mi", str(pipeline / "mi.csv")])

    @pytest.mark.parametrize("metric", ["mi-corr", "msfi", "iou"])
    def test_a_sidecar_in_the_way_leaves_the_old_table(self, pipeline, tmp_path, metric):
        out = tmp_path / "s.csv"
        # a table that the run would overwrite with other rows
        run_cli(*self.metrics(pipeline, "iou" if metric == "msfi" else "msfi", out))
        before = out.read_bytes()
        Path(f"{out}.meta.json").mkdir()
        argv = self.metrics(pipeline, metric, out)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert "Is a directory" in assert_one_error_line(err, argv)
        assert out.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.csv.meta.json"]

    @pytest.mark.parametrize("fault", ["a directory", "under a file"])
    def test_a_summary_that_cannot_be_written_leaves_the_old_svg(self, pipeline, tmp_path,
                                                                  fault):
        svg, table = tmp_path / "matrix.svg", tmp_path / "summary.csv"
        run_cli("report", "matrix", "--scores", str(pipeline / "scores.csv"),
                "--out", str(svg), "--csv", str(table))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        blocked = tmp_path / "blocked"  # the new summary's path, or its parent
        if fault == "a directory":
            blocked.mkdir()
        else:
            blocked.write_text("a file\n")
            blocked = blocked / "summary.csv"
        # one method's scores, whose matrix differs from the two methods' one
        scores = tmp_path / "one.csv"
        rows = read_rows(pipeline / "scores.csv")
        write_rows(scores, [row for row in rows if row[1] != "kernel_shap"])
        before["one.csv"] = scores.read_bytes()
        argv = ["report", "matrix", "--scores", str(scores),
                "--out", str(svg), "--csv", str(blocked)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert_one_error_line(err, argv)
        assert svg.read_bytes() == before["matrix.svg"]
        assert table.read_bytes() == before["summary.csv"]
        # nothing staged is left behind
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "blocked", "matrix.svg", "one.csv", "summary.csv"]

    def test_missing_parents_are_made(self, pipeline, tmp_path):
        mi = tmp_path / "new" / "mi" / "mi.csv"
        run_cli("mi", "compute", "--manifest", str(pipeline / "data" / "manifest.json"),
                "--policy", "zero", "--out", str(mi))
        assert mi.read_bytes() == (pipeline / "mi.csv").read_bytes()
        svg, table = tmp_path / "new" / "svg" / "m.svg", tmp_path / "other" / "s.csv"
        run_cli("report", "matrix", "--scores", str(pipeline / "scores.csv"),
                "--runlog", str(pipeline / "saliency"), "--out", str(svg), "--csv", str(table))
        assert svg.read_bytes() == (pipeline / "matrix.svg").read_bytes()
        assert table.read_bytes() == (pipeline / "summary.csv").read_bytes()
        # nothing staged is left behind
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                      if p.is_file()) == ["new/mi/mi.csv", "new/svg/m.svg", "other/s.csv"]

    @pytest.mark.parametrize("command", ["mi", "metrics", "report"])
    def test_a_failed_run_removes_the_parents_it_made(self, pipeline, tmp_path, command):
        out = tmp_path / "new" / "deeper" / "out.csv"
        manifest = str(pipeline / "data" / "manifest.json")
        if command == "mi":
            argv = ["mi", "compute", "--manifest", manifest, "--oracle",
                    "cmd:false {input_dir} {output_csv}", "--out", str(out)]
        elif command == "metrics":
            # the last sample's map, out of layout, is read after the table is staged
            sal = tmp_path / "saliency"
            shutil.copytree(pipeline / "saliency", sal)
            path = sorted(sal.glob("*_feature_ablation.mmv"))[-1]
            smap = read_saliency(path)
            write_saliency(SaliencyMap(smap.modality_names[::-1], smap.data[::-1]), path)
            argv = self.metrics(pipeline, "iou", out)
            argv[argv.index("--saliency-dir") + 1] = str(sal)
        else:
            (tmp_path / "file").write_text("a file\n")
            argv = ["report", "matrix", "--scores", str(pipeline / "scores.csv"),
                    "--out", str(out), "--csv", str(tmp_path / "file" / "s.csv")]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert_one_error_line(err, argv)
        assert not (tmp_path / "new").exists()

    @staticmethod
    def every_file(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    def test_an_output_named_twice_is_refused(self, pipeline, tmp_path):
        svg = tmp_path / "m.svg"
        svg.write_text("an earlier file\n")
        argv = ["report", "matrix", "--scores", str(pipeline / "scores.csv"),
                "--out", str(svg), "--csv", str(tmp_path / "." / "m.svg")]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert assert_one_error_line(err, argv).endswith("m.svg is also an output")
        assert self.every_file(tmp_path) == {Path("m.svg"): b"an earlier file\n"}

    # (command, the input that --out or --csv names)
    @pytest.mark.parametrize("command, output, named", [
        ("mi-corr", "--out", "mi.csv"),
        ("msfi", "--out", "data/manifest.json"),
        ("iou", "--out", "saliency/runlog_kernel_shap.json"),
        ("iou", "--out", "saliency/s0003_feature_ablation.mmv"),
        ("msfi", "--out", "data/s0001_mask.mmv"),
        ("matrix", "--out", "scores.csv"),
        ("matrix", "--csv", "saliency/runlog_feature_ablation.json"),
    ])
    def test_an_output_that_is_an_input_is_refused(self, pipeline, tmp_path, command, output,
                                                   named):
        root = tmp_path / "run"
        shutil.copytree(pipeline, root)
        before = self.every_file(root)
        assert Path(named) in before
        if command == "matrix":
            argv = ["report", "matrix", "--scores", str(root / "scores.csv"),
                    "--runlog", str(root / "saliency"), "--out", str(root / "new.svg"),
                    "--csv", str(root / "new.csv")]
        else:
            argv = self.metrics(root, command, root / "new.csv")
        argv[argv.index(output) + 1] = str(root / named)
        with pytest.raises(SystemExit) as err:
            main(argv)
        line = assert_one_error_line(err, argv)
        assert line.endswith(f"output {root / named} is also an input")
        assert self.every_file(root) == before


# the values a mutated entry takes, and the JSON type of each
SUBSTITUTES = [None, True, 1, 1.5, "x", [], {}]
JSON_TYPE = {type(None): "null", bool: "boolean", int: "integer", float: "number",
             str: "string", list: "array", dict: "object"}


def wrong_values(kind):
    """The substitutes whose JSON type a `kind` entry does not take; NaN and
    Infinity too where it takes numbers."""
    takes = {"number": {"integer", "number"}, "string or null": {"string", "null"}}.get(
        kind, {kind})
    wrong = [v for v in SUBSTITUTES if JSON_TYPE[type(v)] not in takes]
    return wrong + [math.nan, math.inf] * bool(takes & {"integer", "number"})


# every entry the CLI reads from a JSON file: the file, the keys leading to
# the entry (none for the whole document) and its JSON type. "header" is the
# MMV header of record 1's volume.
JSON_ENTRIES = [
    ("manifest", (), "object"),
    ("manifest", ("class_names",), "array"),
    ("manifest", ("class_names", 0), "string"),
    ("manifest", ("records",), "array"),
    ("manifest", ("records", 1), "object"),
    ("manifest", ("records", 1, "sample_id"), "string"),
    ("manifest", ("records", 1, "label"), "integer"),
    ("manifest", ("records", 1, "volume"), "string"),
    ("manifest", ("records", 1, "mask"), "string or null"),
    ("header", (), "object"),
    ("header", ("mmv",), "integer"),
    ("header", ("kind",), "string"),
    ("header", ("modalities",), "array"),
    ("header", ("modalities", 0), "string"),
    ("header", ("dims",), "array"),
    ("header", ("dims", 0), "integer"),
    ("header", ("dtype",), "string"),
    ("runlog", (), "object"),
    ("runlog", ("method",), "string"),
    ("runlog", ("files",), "object"),
    ("runlog", ("files", "s0000"), "string"),
    ("runlog", ("wall_time",), "object"),
    ("runlog", ("wall_time", "s0000"), "number"),
]
# every numeric cell of the pipeline's mi.csv and scores.csv: (file, (row, column))
CSV_CELLS = [("mi", (row, col)) for row in range(1, 5) for col in (1, 2)] + [
    ("scores", (row, 3)) for row in range(1, 17)
]
MUTATIONS = [
    pytest.param(file, at, value, id=f"{file}:{'.'.join(map(str, at))}={json.dumps(value)}")
    for file, at, kind in JSON_ENTRIES for value in wrong_values(kind)
] + [
    # an integer too large for a float is no finite number
    pytest.param(file, at, 10**400, id=f"{file}:{'.'.join(map(str, at))}=10**400")
    for file, at, kind in JSON_ENTRIES if kind == "number"
] + [
    pytest.param(file, at, text, id=f"{file}:{at[0]}.{at[1]}={text}")
    for file, at in CSV_CELLS
    for text in [v if type(v) is str else json.dumps(v) for v in wrong_values("number")]
]
# the command that reads each file, with {name} standing for a path from mutated_copy
READER = {"manifest": "mi", "header": "mi", "runlog": "report", "mi": "mi-corr",
          "scores": "report"}
COMMANDS = {
    "mi": "mi compute --manifest {manifest} --out {out}",
    "saliency": "saliency run --manifest {manifest} --method feature_ablation --out-dir {out}",
    "mi-corr": "metrics mi-corr --manifest {manifest} --saliency-dir {sal} --mi {mi} "
               "--out {out}",
    "stats": "stats friedman --scores {scores}",
    "report": "report matrix --scores {scores} --runlog {runlog} --out {out} --csv {out}.csv",
}


def set_entry(doc, at, value):
    """doc with the entry the keys `at` lead to set to value; value itself for no keys."""
    if not at:
        return value
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    parent[at[-1]] = value
    return doc


def mutated_copy(pipeline, tmp_path, file, at, value):
    """Copies of the pipeline's inputs in tmp_path, with `file`'s entry or cell
    `at` set to value: {name: path}, where "copy" is the mutated file."""
    paths = {"manifest": tmp_path / "manifest.json", "header": tmp_path / "s0001.mmv",
             "runlog": tmp_path / "runlog_kernel_shap.json", "mi": tmp_path / "mi.csv",
             "scores": tmp_path / "scores.csv", "sal": pipeline / "saliency",
             "out": tmp_path / "out"}
    edited_manifest(pipeline, paths["manifest"],
                    lambda doc: doc["records"][1].update(volume=str(paths["header"])))
    shutil.copy(pipeline / "data" / "s0001.mmv", paths["header"])
    shutil.copy(pipeline / "saliency" / "runlog_kernel_shap.json", paths["runlog"])
    shutil.copy(pipeline / "mi.csv", paths["mi"])
    shutil.copy(pipeline / "scores.csv", paths["scores"])
    copy = paths["copy"] = paths[file]
    if file in ("mi", "scores"):
        write_rows(copy, set_entry(read_rows(copy), at, value))
    elif file == "header":
        header, payload = copy.read_bytes().split(b"\n", 1)
        header = json.dumps(set_entry(json.loads(header), at, value))
        copy.write_bytes(header.encode() + b"\n" + payload)
    else:
        copy.write_text(json.dumps(set_entry(json.loads(copy.read_text()), at, value)))
    return paths


def command(name, paths):
    return [part.format(**paths) for part in COMMANDS[name].split()]


class TestMutationTable:
    """Each entry of every JSON file the CLI reads, given a value of another
    JSON type, and each numeric CSV cell, given text that is no finite number."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("file, at, value", MUTATIONS)
    def test_a_wrong_value_exits_with_one_line(self, pipeline, tmp_path, capsys, file, at,
                                               value):
        paths = mutated_copy(pipeline, tmp_path, file, at, value)
        before = sorted(tmp_path.rglob("*"))
        argv = command(READER[file], paths)
        with pytest.raises(SystemExit) as err:
            main(argv)
        line = assert_one_error_line(err, argv)
        assert capsys.readouterr() == ("", "")
        assert sorted(tmp_path.rglob("*")) == before  # no new output path
        # the line names the file, the entry and the bad value
        assert str(paths["copy"]) in line
        if file in ("mi", "scores"):
            header = read_rows(pipeline / f"{file}.csv")[0]
            assert f"line {at[0] + 1}: {header[at[1]]!r}" in line and repr(value) in line
        else:
            keys = [key for key in at if type(key) is str]
            assert not keys or keys[-1] in line  # the innermost key
            assert reprlib.repr(value) in line

    @pytest.mark.parametrize("file, at, value", [
        ("manifest", ("records", 1, "mask"), None),  # no mask
        ("manifest", ("records", 1, "label"), 0),
        ("header", ("modalities", 0), "T1"),
        ("runlog", ("wall_time", "s0000"), 2),  # an integer is a number
        ("mi", (1, 1), "0"),
        ("scores", (1, 3), "1"),
    ])
    def test_a_value_of_the_right_type_loads(self, pipeline, tmp_path, file, at, value):
        paths = mutated_copy(pipeline, tmp_path, file, at, value)
        run_cli(*command(READER[file], paths))
        assert paths["out"].exists()

    # the four faults reported before the one JSON-type check (a traceback, a
    # wrong score with exit 0, a line naming no file, a class named "None"):
    # the command, the mutation and the text its one line holds
    @pytest.mark.parametrize("name, file, at, value, text", [
        ("saliency", "manifest", ("records", 1, "volume"), None,
         "s0001: volume must be a JSON string, got None"),
        ("mi-corr", "mi", (2, 1), "nan", "line 3: 'phi' must be a finite number, got 'nan'"),
        ("stats", "scores", (1, 3), "x", "line 2: 'value' must be a finite number, got 'x'"),
        ("mi", "manifest", ("class_names", 0), None,
         "class_names entry 0 must be a JSON string, got None"),
    ])
    def test_a_reported_fault_exits_1_with_one_line(self, pipeline, tmp_path, name, file, at,
                                                    value, text):
        paths = mutated_copy(pipeline, tmp_path, file, at, value)
        argv = command(name, paths)
        proc = subprocess.run([sys.executable, "-m", "mmsaliency.cli", *argv],
                              capture_output=True, text=True, env=src_env())
        assert (proc.returncode, proc.stdout) == (1, "")
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"mmsaliency {argv[0]} {argv[1]}: error: {paths['copy']}")
        assert text in line
        assert not paths["out"].exists()

    # a `cmd:` template that is checked only by its field names builds, then
    # fails at the first call (a conversion or a format spec) or with text
    # that names neither the template nor --oracle (a lone brace, a quote)
    @pytest.mark.parametrize("name", ["mi", "saliency"])
    @pytest.mark.parametrize("template, text", [
        ("s.py {input_dir!r} {output_csv}", "field {input_dir!r} has a conversion"),
        ("s.py {input_dir:d} {output_csv}", "field {input_dir:d} has a conversion or format spec"),
        ("s.py } {input_dir} {output_csv}", "command template: Single '}' encountered"),
        ("s.py '{input_dir} {output_csv}", "command template: No closing quotation"),
    ])
    def test_a_bad_command_template_exits_1_with_one_line_before_any_read(
        self, tmp_path, capsys, name, template, text
    ):
        paths = {"manifest": tmp_path / "absent.json", "out": tmp_path / "out"}
        spec = f"cmd:{template}"
        argv = [*command(name, paths), "--oracle", spec]
        with pytest.raises(SystemExit) as err:
            main(argv)
        line = assert_one_error_line(err, argv)
        assert capsys.readouterr() == ("", "")
        # the template's fault, although the manifest does not exist
        assert text in line and line.endswith(f", in --oracle {spec!r}")
        assert list(tmp_path.iterdir()) == []


class TestModalityNames:
    """Every volume and mask of a dataset lists the first volume's modality
    names in its order; the channels are read by position."""

    @pytest.mark.parametrize("name", ["mi", "saliency"])
    @pytest.mark.parametrize("file, names", [
        ("s0001.mmv", ["T1C", "T1", "T2", "FLAIR"]),
        ("s0001.mmv", ["PET", "T1C", "T2", "FLAIR"]),
        ("s0001_mask.mmv", ["T1", "T1C", "FLAIR", "T2"]),
    ])
    def test_other_names_exit_with_one_line(self, pipeline, tmp_path, name, file, names):
        copy = edited_volume(pipeline / "data" / file, tmp_path / file, {"modalities": names})
        key = "mask" if "mask" in file else "volume"
        paths = {"manifest": tmp_path / "manifest.json", "out": tmp_path / "out"}
        edited_manifest(pipeline, paths["manifest"],
                        lambda doc: doc["records"][1].update({key: str(copy)}))
        before = sorted(tmp_path.rglob("*"))
        argv = command(name, paths)
        with pytest.raises(SystemExit) as err:
            main(argv)
        line = assert_one_error_line(err, argv)
        assert f"s0001: {copy} lists modalities {names}" in line
        assert "['T1', 'T1C', 'T2', 'FLAIR']" in line
        assert sorted(tmp_path.rglob("*")) == before  # no new output path


class TestLaterSampleFaults:
    """The commands read one sample at a time, but check every header first:
    a fault in the last sample's header stops a run before any oracle call,
    and a fault in its payload stops a command that reads that payload when
    the sample is read."""

    @staticmethod
    def faulty_copy(pipeline, tmp_path, fault):
        """The last record's volume or mask copied into tmp_path with `fault`."""
        data = pipeline / "data"
        last = json.loads((data / "manifest.json").read_text())["records"][-1]
        if fault == "names":
            key = "volume"
            copy = edited_volume(data / last[key], tmp_path / "v.mmv",
                                 {"modalities": ["PET", "T1C", "T2", "FLAIR"]})
        elif fault == "dims":
            key = "volume"
            copy = tmp_path / "v.mmv"
            write_volume(MultiModalVolume(("T1", "T1C", "T2", "FLAIR"),
                                          np.zeros((4, 40, 40), dtype=np.float32)), copy)
        elif fault == "size":  # a mask payload one value short
            key = "mask"
            copy = tmp_path / "m.mmv"
            copy.write_bytes((data / last[key]).read_bytes()[:-4])
        else:  # a mask value that is neither 0 nor 1
            key = "mask"
            copy = tmp_path / "m.mmv"
            header, payload = (data / last[key]).read_bytes().split(b"\n", 1)
            copy.write_bytes(header + b"\n" + np.float32(0.5).tobytes() + payload[4:])
        manifest = edited_manifest(pipeline, tmp_path / "manifest.json",
                                   lambda doc: doc["records"][-1].update({key: str(copy)}))
        return last["sample_id"], copy, manifest

    @pytest.mark.parametrize("name", ["mi", "saliency", "msfi"])
    @pytest.mark.parametrize("fault, text", [
        ("names", "lists modalities ['PET', 'T1C', 'T2', 'FLAIR'], but the first volume "
                  "lists ['T1', 'T1C', 'T2', 'FLAIR']"),
        ("dims", "has dims [40, 40], but the first volume has [48, 48]"),
        # checked from the file's length, also by a command that reads no mask
        ("size", f"payload is {4 * 48 * 48 * 4 - 4} bytes, expected {4 * 48 * 48 * 4}"),
        ("mask", "mask values must be 0 or 1"),
    ])
    def test_exits_with_one_line(self, pipeline, tmp_path, monkeypatch, name, fault, text):
        sid, copy, manifest = self.faulty_copy(pipeline, tmp_path, fault)
        calls, mask_reads = [], []
        predict = oracle_mod.ShapeRuleClassifier.predict
        monkeypatch.setattr(oracle_mod.ShapeRuleClassifier, "predict",
                            lambda clf, volume: calls.append(1) or predict(clf, volume))
        read_mask = tensorio.read_mask
        monkeypatch.setattr(tensorio, "read_mask",
                            lambda *args, **kw: mask_reads.append(args) or read_mask(*args, **kw))
        paths = {"manifest": manifest, "out": tmp_path / "new" / "out",
                 "sal": pipeline / "saliency", "mi": pipeline / "mi.csv"}
        argv = command("mi-corr", paths) if name == "msfi" else command(name, paths)
        if name == "msfi":
            argv[1] = "msfi"
        elif name == "mi":  # a policy that reads the masks
            argv += ["--policy", "nonlesion"]
        if (fault, name) == ("mask", "saliency"):  # saliency run reads no mask payload
            run_cli(*argv)
            assert calls and mask_reads == []
            return
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as err:
            main(argv)
        line = assert_one_error_line(err, argv)
        assert line.split(": error: ")[1].startswith(f"{sid}: {copy}")
        assert text in line
        if fault != "mask":  # found in the headers, before any payload is read
            assert calls == []
        elif name != "msfi":  # found when the last sample is read
            assert calls
        assert sorted(tmp_path.rglob("*")) == before  # no file and no out-dir left

    @pytest.mark.parametrize("metric", ["msfi", "mi-corr", "iou"])
    @pytest.mark.parametrize("fault, text", [
        # the same map, its channels and their names in reverse order
        ("names", "lists modalities ['FLAIR', 'T2', 'T1C', 'T1'], but the first volume "
                  "lists ['T1', 'T1C', 'T2', 'FLAIR']"),
        ("dims", "has dims [40, 40], but the first volume has [48, 48]"),
    ])
    def test_a_map_out_of_layout_exits_with_one_line(self, pipeline, tmp_path, metric, fault,
                                                     text):
        sal = tmp_path / "saliency"
        shutil.copytree(pipeline / "saliency", sal)
        sid = json.loads((pipeline / "data" / "manifest.json").read_text())["records"][-1][
            "sample_id"]
        path = sal / f"{sid}_feature_ablation.mmv"
        smap = read_saliency(path)
        if fault == "names":
            smap = SaliencyMap(smap.modality_names[::-1], smap.data[::-1])
        else:
            smap = SaliencyMap(smap.modality_names, np.zeros((4, 40, 40), dtype=np.float32))
        write_saliency(smap, path)
        out = tmp_path / "scores.csv"
        argv = ["metrics", metric, "--manifest", str(pipeline / "data" / "manifest.json"),
                "--saliency-dir", str(sal), "--out", str(out)]
        if metric != "iou":
            argv += ["--mi", str(pipeline / "mi.csv")]
        with pytest.raises(SystemExit) as err:
            main(argv)
        line = assert_one_error_line(err, argv)
        assert line.split(": error: ")[1] == f"{sid}: {path} {text}"
        assert not out.exists() and not Path(f"{out}.meta.json").exists()


class TestPayloadReads:
    """Each command reads only the volume and mask payloads it uses, one of
    each per sample at most; every header is still checked."""

    # (volume payloads, mask payloads) read per sample
    @pytest.mark.parametrize("argv, per_sample", [
        ("saliency run --manifest {manifest} --method feature_ablation "
         "--params block_shape=24 --out-dir {out}", (1, 0)),
        ("mi compute --manifest {manifest} --policy zero --out {out}", (1, 0)),
        ("mi compute --manifest {manifest} --policy nonlesion --out {out}", (1, 1)),
        ("mi compute --manifest {manifest} --policy feature --out {out}", (1, 1)),
        ("metrics mi-corr --manifest {manifest} --saliency-dir {sal} --mi {mi} --out {out}",
         (0, 0)),
        ("metrics msfi --manifest {manifest} --saliency-dir {sal} --mi {mi} --out {out}",
         (0, 1)),
        ("metrics iou --manifest {manifest} --saliency-dir {sal} --out {out}", (0, 1)),
        (None, (1, 1)),  # tensorio.load_dataset
    ], ids=["saliency", "mi-zero", "mi-nonlesion", "mi-feature", "mi-corr", "msfi", "iou",
            "load_dataset"])
    def test_payloads_read_per_command(self, pipeline, tmp_path, monkeypatch, argv,
                                       per_sample):
        manifest = pipeline / "data" / "manifest.json"
        reads = {"read_volume": [], "read_mask": []}
        for name, log in reads.items():
            read = getattr(tensorio, name)
            monkeypatch.setattr(tensorio, name, lambda path, *args, read=read, log=log, **kw:
                                log.append(Path(path).name) or read(path, *args, **kw))
        if argv is None:
            tensorio.load_dataset(tensorio.load_manifest(manifest))
        else:
            run_cli(*argv.format(manifest=manifest, out=tmp_path / "out",
                                 sal=pipeline / "saliency", mi=pipeline / "mi.csv").split())
        records = json.loads(manifest.read_text())["records"]
        volumes, masks = per_sample
        assert reads["read_volume"] == [r["volume"] for r in records] * volumes
        assert reads["read_mask"] == [r["mask"] for r in records] * masks


@pytest.fixture(scope="module")
def data_64(tmp_path_factory):
    """Two 64x64 samples: a shared grid of block 8 has K = 64 segments."""
    data = tmp_path_factory.mktemp("data64")
    run_cli("synth", "generate", "--n", "2", "--size", "64", "--seed", "4", "--out", str(data))
    return data / "manifest.json"


class TestKernelShapManySegments:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params", ["block_shape=8,n_samples=100",  # K = 64
                                        "block_shape=7,n_samples=120"])  # K = 100
    def test_more_than_56_segments_run(self, data_64, tmp_path, params):
        run_cli("saliency", "run", "--manifest", str(data_64), "--method", "kernel_shap",
                "--params", params, "--out-dir", str(tmp_path / "maps"))
        assert (tmp_path / "maps" / "runlog_kernel_shap.json").exists()

    def test_weights_beyond_a_float_exit_with_one_line(self, data_64, tmp_path):
        out = tmp_path / "maps"
        argv = ["saliency", "run", "--manifest", str(data_64), "--method", "kernel_shap",
                "--params", "block_shape=2,n_samples=1100", "--out-dir", str(out)]  # K = 1024
        with pytest.raises(SystemExit) as err:
            main(argv)
        line = assert_one_error_line(err, argv)
        assert "K = 1024 segments overflow a float" in line
        assert not out.exists()


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

    @pytest.mark.parametrize("which", ["t1c", "flair"])
    def test_synth_probe_writes_what_generate_probe_writes(self, tmp_path, which):
        run_cli("synth", "probe", "--which", which, "--n", "3", "--size", "40",
                "--seed", "6", "--out", str(tmp_path / "cli"))
        generate_probe(SynthConfig(n_samples=3, image_size=40, seed=6), which, tmp_path / "lib")
        files = sorted(p.name for p in (tmp_path / "lib").iterdir())
        assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == files
        assert "manifest.json" in files and len(files) == 7
        for name in files:
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()

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


    @pytest.mark.parametrize("argv, field", [
        (["mi", "compute", "--policy", "zero"], "{x}"),
        (["mi", "compute", "--policy", "zero"], "{}"),
        (["saliency", "run", "--method", "feature_ablation"], "{x}"),
    ])
    def test_a_stray_template_field_exits_1_with_one_line(self, pipeline, tmp_path, argv,
                                                          field):
        out = tmp_path / "out"
        oracle = f"cmd:{sys.executable} s.py {{input_dir}} {{output_csv}} {field}"
        argv = [*argv, "--manifest", str(pipeline / "data" / "manifest.json"),
                "--oracle", oracle, "--out" if argv[0] == "mi" else "--out-dir", str(out)]
        proc = subprocess.run([sys.executable, "-m", "mmsaliency.cli", *argv],
                              capture_output=True, text=True, env=src_env())
        assert (proc.returncode, proc.stdout) == (1, "")
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"mmsaliency {argv[0]} {argv[1]}: error: command template")
        assert field in line and "no other" in line
        assert not out.exists()

    def test_command_oracle_spawns_once_per_chunk(self, tmp_path):
        """MI, kernel_shap and occlusion through a logging `cmd:` scorer equal `--oracle builtin`.

        The scorer applies the built-in shape rule at the CLI defaults and logs
        one line per spawn, so the spawn count is checked against chunks, not
        evaluations.
        """
        run_cli("synth", "generate", "--n", "2", "--size", "32", "--seed", "4",
                "--out", str(tmp_path / "data"))
        manifest = tmp_path / "data" / "manifest.json"
        log = tmp_path / "spawns.log"
        script = tmp_path / "scorer.py"
        script.write_text(textwrap.dedent(
            f"""\
            import csv, json, sys
            from pathlib import Path

            sys.path.insert(0, {str(REPO / "src")!r})
            from mmsaliency.oracle import ShapeRuleClassifier, predict_shape_rule
            from mmsaliency.tensorio import load_dataset, load_manifest

            classifier = ShapeRuleClassifier((0.0, 1.0, 0.0, 1.0), intensity_threshold=0.35,
                                             circularity_cutoff=0.7, softness=0.08)
            manifest = load_manifest(Path(sys.argv[1]) / "manifest.json")
            with open({str(log)!r}, "a") as fp:
                fp.write(json.dumps([len(manifest), list(manifest.class_names)]) + "\\n")
            with open(sys.argv[2], "w", newline="") as fp:
                w = csv.writer(fp, lineterminator="\\n")
                w.writerow(["sample_id", "p0", "p1"])
                for s in load_dataset(manifest):
                    probs = predict_shape_rule(classifier, s.volume).probs
                    w.writerow([s.record.sample_id, *(repr(p) for p in probs)])
            """
        ))
        command = f"cmd:{sys.executable} {script} {{input_dir}} {{output_csv}}"

        def spawns():
            lines = log.read_text().splitlines() if log.exists() else []
            log.unlink(missing_ok=True)
            return [json.loads(line) for line in lines]

        outputs = {}
        for oracle in ("builtin", command):
            out = tmp_path / ("cmd" if oracle == command else "builtin")
            out.mkdir()
            run_cli("mi", "compute", "--manifest", str(manifest), "--policy", "zero",
                    "--oracle", oracle, "--out", str(out / "mi.csv"))
            mi_spawns = spawns()
            run_cli("saliency", "run", "--manifest", str(manifest), "--method", "kernel_shap",
                    "--params", "block_shape=16,exhaustive=1", "--oracle", oracle,
                    "--out-dir", str(out))
            shap_spawns = spawns()
            run_cli("saliency", "run", "--manifest", str(manifest), "--method", "occlusion",
                    "--params", "window=16,stride=16", "--oracle", oracle,
                    "--out-dir", str(out))
            outputs[oracle] = [
                (out / name).read_bytes()
                for name in ("mi.csv", "s0000_occlusion.mmv", "s0001_occlusion.mmv",
                             "s0000_kernel_shap.mmv", "s0001_kernel_shap.mmv")
            ]
            evals = json.loads((out / "runlog_kernel_shap.json").read_text())["oracle_evals"]
            assert evals == {"s0000": 1 + 16, "s0001": 16}
        assert outputs[command] == outputs["builtin"]
        # per sample, the head and the 2^4 coalitions of 2 x 2 shared blocks,
        # the empty coalition's all-zero volume sent once
        assert shap_spawns == [[2 * (1 + 16) - 1, ["LGG", "HGG"]]]
        # 2^4 coalitions x 2 samples in one spawn, the empty coalition's
        # all-zero volume sent once
        assert mi_spawns == [[31, ["LGG", "HGG"]]]
        # per sample, the unperturbed head that fixes the target and that the
        # reduction reads, then 4 modalities x 4 windows; both samples' 34
        # evaluations are one stream, which fits in one spawn
        assert spawns() == [[34, ["LGG", "HGG"]]]


# What an installer's console-script wrapper does: resolve the entry point,
# name the program, call it with no arguments and exit with its return value.
CONSOLE_SCRIPT = textwrap.dedent(
    """\
    import sys
    from importlib.metadata import EntryPoint

    name, value, *args = sys.argv[1:]
    main = EntryPoint(name, value, "console_scripts").load()
    sys.argv = [name, *args]
    sys.exit(main())
    """
)


def assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: mmsaliency")
    assert "synth" in proc.stdout and "metrics" in proc.stdout


def test_console_script_installed(tmp_path):
    """The declared `mmsaliency` script and `python -m mmsaliency` start the CLI.

    Both run from a directory outside the checkout with only `src/` added to
    PYTHONPATH, so neither needs the package installed or on PATH.
    """
    tomllib = pytest.importorskip("tomllib", exc_type=ImportError)
    with open(REPO / "pyproject.toml", "rb") as fp:
        scripts = tomllib.load(fp)["project"].get("scripts", {})
    assert "mmsaliency" in scripts

    def run(*argv):
        return subprocess.run([sys.executable, *argv], capture_output=True,
                              text=True, env=src_env(), cwd=tmp_path)

    assert_help(run("-c", CONSOLE_SCRIPT, "mmsaliency", scripts["mmsaliency"], "--help"))
    assert_help(run("-m", "mmsaliency", "--help"))

    proc = run("-m", "mmsaliency", "mi", "compute",
               "--manifest", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "mi.csv"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("mmsaliency mi compute: error: ")


def test_no_scipy_module_is_loaded():
    """The package, its CLI, the built-in oracle and the Friedman test load
    no scipy module: every CLI process and `cmd:` scorer would pay its import."""
    code = textwrap.dedent("""\
        import sys
        import numpy as np
        import mmsaliency, mmsaliency.cli
        from mmsaliency.metrics import friedman
        from mmsaliency.oracle import ShapeRuleClassifier
        from mmsaliency.tensorio import MultiModalVolume

        data = np.zeros((2, 16, 16))
        data[0, 4:12, 5:11] = 1.0
        ShapeRuleClassifier((1.0, 0.5)).predict(MultiModalVolume(("a", "b"), data))
        friedman(np.arange(12.0).reshape(4, 3) % 5)
        print(sorted(name for name, module in sys.modules.items()
                     if name.split(".")[0] == "scipy" and module is not None))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def readme_stages(tmp_path):
    """The README pipeline's stages, small, writing under tmp_path."""
    data, sal = tmp_path / "data", tmp_path / "saliency"
    manifest = str(data / "manifest.json")
    return [
        ["synth", "generate", "--n", "4", "--size", "32", "--seed", "5", "--out", str(data)],
        ["synth", "probe", "--which", "t1c", "--n", "2", "--size", "32", "--seed", "5",
         "--out", str(tmp_path / "probe_t1c")],
        ["mi", "compute", "--manifest", manifest, "--policy", "zero",
         "--out", str(tmp_path / "mi.csv")],
        ["saliency", "run", "--manifest", manifest, "--method", "feature_ablation",
         "--params", "block_shape=16", "--seed", "3", "--out-dir", str(sal)],
        ["saliency", "run", "--manifest", manifest, "--method", "occlusion",
         "--params", "window=16,stride=16", "--seed", "3", "--out-dir", str(sal)],
        ["metrics", "msfi", "--manifest", manifest, "--saliency-dir", str(sal),
         "--mi", str(tmp_path / "mi.csv"), "--out", str(tmp_path / "scores.csv")],
        ["stats", "friedman", "--scores", str(tmp_path / "scores.csv")],
        ["report", "matrix", "--scores", str(tmp_path / "scores.csv"),
         "--out", str(tmp_path / "matrix.svg")],
    ]


def test_readme_pipeline_runs_with_scipy_blocked(tmp_path):
    """Each README stage exits 0 in a process where `import scipy` fails."""
    stages = readme_stages(tmp_path)
    code = textwrap.dedent("""\
        import json, sys
        sys.modules["scipy"] = None  # any import of scipy now fails
        from mmsaliency.cli import main
        for argv in json.loads(sys.argv[1]):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
            print(json.dumps([argv[:2], status]), flush=True)
    """)
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(stages)],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    statuses = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[[")]
    assert statuses == [[argv[:2], 0] for argv in stages], proc.stdout + proc.stderr
    assert "chi2=" in proc.stdout


def test_every_stage_names_its_text_encodings(tmp_path):
    """Each README stage, and `mi compute` through a `cmd:` scorer, exits 0 in
    a process where an EncodingWarning from a package module is an error:
    every text the package reads or writes, a scorer's output included, names
    its encoding rather than taking the locale's."""
    # -W matches a module's whole name, so every package module gets its own filter
    sources = (REPO / "src" / "mmsaliency").glob("*.py")
    modules = ["mmsaliency", *(f"mmsaliency.{p.stem}" for p in sources if p.stem[0] != "_")]
    script = tmp_path / "scorer.py"
    script.write_text(textwrap.dedent(
        """\
        import json, sys
        from pathlib import Path

        manifest = json.loads((Path(sys.argv[1]) / "manifest.json").read_text("utf-8"))
        rows = [f"{rec['sample_id']},0.9,0.1\\n" for rec in manifest["records"]]
        Path(sys.argv[2]).write_text("sample_id,p0,p1\\n" + "".join(rows), "utf-8")
        """
    ))
    stages = [*readme_stages(tmp_path),
              ["mi", "compute", "--manifest", str(tmp_path / "data" / "manifest.json"),
               "--oracle", f"cmd:{sys.executable} {script} {{input_dir}} {{output_csv}}",
               "--out", str(tmp_path / "mi_cmd.csv")]]
    flags = ["-X", "warn_default_encoding", *(f"-Werror::EncodingWarning:{m}" for m in modules)]
    for argv in stages:
        proc = subprocess.run([sys.executable, *flags, "-m", "mmsaliency", *argv],
                              capture_output=True, encoding="utf-8", env=src_env())
        assert proc.returncode == 0, (argv[:2], proc.stderr)


@pytest.mark.skipif(shutil.which("mmsaliency") is None,
                    reason="mmsaliency console script not on PATH (pip install -e .)")
def test_installed_console_script_on_path():
    proc = subprocess.run(["mmsaliency", "--help"], capture_output=True, text=True)
    assert_help(proc)
