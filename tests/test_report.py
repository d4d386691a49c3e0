import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from helpers import src_env
from mmsaliency.metrics import MetricRecord
from mmsaliency.report import (
    MethodSummary,
    matrix_value,
    render_matrix,
    summarize,
    summary_csv_rows,
)


def records_for(method, msfi_values, mi_corr=None):
    rows = [
        MetricRecord(f"s{i}", method, "msfi", v) for i, v in enumerate(msfi_values)
    ]
    if mi_corr is not None:
        rows += [
            MetricRecord(f"s{i}", method, "mi_corr", v)
            for i, v in enumerate(mi_corr)
        ]
    return rows


class TestSummarize:
    def test_single_method_stats(self):
        out = summarize(records_for("occ", [0.0, 1.0]))
        assert len(out) == 1
        mean, median, std, n = out[0].stats["msfi"]
        assert mean == 0.5 and median == 0.5 and n == 2
        assert std == pytest.approx(0.5)

    def test_sorted_by_summed_msfi_descending(self):
        rows = records_for("weak", [0.3, 0.5]) + records_for("strong", [0.7, 0.5])
        out = summarize(rows)
        assert [s.method for s in out] == ["strong", "weak"]
        assert out[0].msfi_sum == pytest.approx(1.2)

    def test_speed_scores_log_minmax(self):
        rows = (
            records_for("fast", [0.5])
            + records_for("mid", [0.5])
            + records_for("slow", [0.5])
        )
        wall = {"fast": [1.0], "mid": [10.0], "slow": [100.0]}
        out = {s.method: s.speed_score for s in summarize(rows, wall)}
        assert out["fast"] == pytest.approx(1.0)
        assert out["mid"] == pytest.approx(0.5)
        assert out["slow"] == pytest.approx(0.0)
        # the runlog of a method with no score rows leaves the summary and the matrix
        base = summarize(rows, wall)
        for times in ([0.01], [1e4]):
            extra = summarize(rows, {**wall, "unscored": times})
            assert extra == base
            assert summary_csv_rows(extra) == summary_csv_rows(base)
            assert render_matrix(extra) == render_matrix(base)

    def test_a_method_without_wall_times_gets_no_speed_score(self):
        rows = records_for("a", [0.5]) + records_for("b", [0.5]) + records_for("c", [0.5])
        out = {s.method: s.speed_score for s in summarize(rows, {"a": [1.0], "b": [], "c": [10.0]})}
        assert out == {"a": 1.0, "b": None, "c": 0.0}
        out = {s.method: s.speed_score for s in summarize(rows, {"a": [], "b": []})}
        assert out == {"a": None, "b": None, "c": None}

    def test_missing_msfi_rows_is_error(self):
        rows = [MetricRecord("s0", "m", "iou", 0.5)]
        with pytest.raises(ValueError, match="msfi"):
            summarize(rows)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        rows = records_for("a", rng.random(10).tolist()) + records_for(
            "b", rng.random(10).tolist()
        )
        base = summarize(rows)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        again = summarize(shuffled)
        assert [s.method for s in base] == [s.method for s in again]
        for x, y in zip(base, again):
            assert x.stats == y.stats

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestMatrixValue:
    def test_mi_corr_rescaled_to_unit_interval(self):
        assert matrix_value("mi_corr", -1.0) == 0.0
        assert matrix_value("mi_corr", 0.0) == 0.5
        assert matrix_value("mi_corr", 1.0) == 1.0
        assert matrix_value("msfi", 0.8) == 0.8


class TestRenderMatrix:
    def _summaries(self, values):
        rows = []
        for method, v in values.items():
            rows += records_for(method, [v])
        return summarize(rows)

    def test_full_value_square_fills_cell_minus_padding(self):
        svg = render_matrix(self._summaries({"m": 1.0}))
        root = ET.fromstring(svg)
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        assert len(rects) == 1
        assert float(rects[0].get("width")) == 42.0  # cell 44 minus 2px padding

    def test_zero_value_square_omitted(self):
        svg = render_matrix(self._summaries({"m": 0.0}))
        root = ET.fromstring(svg)
        assert not [e for e in root.iter() if e.tag.endswith("rect")]

    def test_square_side_proportional(self):
        svg = render_matrix(self._summaries({"a": 1.0, "b": 0.5}))
        root = ET.fromstring(svg)
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        widths = sorted(float(r.get("width")) for r in rects)
        assert widths == [21.0, 42.0]

    def test_byte_identical_for_same_input(self):
        summaries = self._summaries({"a": 0.4, "b": 0.9})
        assert render_matrix(summaries) == render_matrix(summaries)

    def test_a_metric_a_method_lacks_leaves_its_cell_empty(self):
        rows = records_for("a", [1.0], mi_corr=[1.0]) + records_for("b", [1.0])
        svg = render_matrix(summarize(rows))
        rects = [(r.get("x"), r.get("y")) for r in ET.fromstring(svg).iter()
                 if r.tag.endswith("rect")]
        # columns a and b; rows mi_corr then msfi: b has no mi_corr square
        assert rects == [("131.00", "37.00"), ("131.00", "81.00"), ("175.00", "81.00")]
        assert svg == render_matrix(summarize(list(reversed(rows))))

    @pytest.mark.parametrize("summaries, match", [
        ([], "nothing to render"),
        ([MethodSummary("a", {}, None, 0.0)], "no metrics to render"),
    ])
    def test_nothing_to_draw_is_an_error(self, summaries, match):
        with pytest.raises(ValueError, match=match):
            render_matrix(summaries)

    def test_speed_row_rendered_when_available(self):
        rows = records_for("a", [0.5]) + records_for("b", [0.6])
        summaries = summarize(rows, {"a": [1.0], "b": [4.0]})
        svg = render_matrix(summaries)
        assert ">speed<" in svg


class TestMedian:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_summary_median_is_numpy_median_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(50):
            values = rng.uniform(-1.0, 1.0, n).tolist()
            [summary] = summarize(
                records_for("a", np.abs(values).tolist(), mi_corr=values)
            )
            assert summary.stats["mi_corr"][1] == float(np.median(values))
            assert summary.stats["msfi"][1] == float(np.median(np.abs(values)))

    def test_summary_does_not_import_numpy_ma(self):
        """np.median imports numpy.ma (about 12 ms in a fresh process); the
        report's medians do without it."""
        code = textwrap.dedent("""\
            import sys
            from mmsaliency.metrics import MetricRecord
            from mmsaliency.report import summarize, summary_csv_rows

            print("numpy.ma" in sys.modules)
            rows = [MetricRecord(f"s{i}", m, "msfi", (i % 5) / 4)
                    for m in ("a", "b") for i in range(6)]
            summary_csv_rows(summarize(rows))
            print("numpy.ma" in sys.modules)
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        at_import, after = proc.stdout.split()
        if at_import == "True":
            pytest.skip("numpy before 2.0 imports numpy.ma with numpy itself")
        assert after == "False"


class TestSummaryCsv:
    def test_rows_shape_and_matrix_value_column(self):
        rows = records_for("a", [0.5], mi_corr=[0.0])
        table = summary_csv_rows(summarize(rows, {"a": [2.0]}))
        assert table[0] == [
            "method", "metric", "mean", "median", "std", "n", "matrix_value",
        ]
        by_metric = {r[1]: r for r in table[1:]}
        assert float(by_metric["mi_corr"][6]) == 0.5  # (tau+1)/2
        assert by_metric["speed"][2] == repr(1.0)
