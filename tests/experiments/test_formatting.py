"""Tests for the per-experiment ``format_result`` functions (pure formatting)."""

from repro.experiments import (
    fig5_officehome,
    table1_aliexpress,
    table2_regression,
    table3_nyuv2,
    table4_cityscapes,
)


class TestTable1Formatting:
    def _result(self):
        columns = [f"{c}_{t}" for c in ("ES", "FR", "NL", "US") for t in ("CTR", "CTCVR")]
        return {
            "auc": {
                "stl": {c: 0.75 for c in columns},
                "mocograd": {c: 0.76 for c in columns},
            },
            "delta_m": {"stl": 0.0, "mocograd": 0.0133},
            "preset": "quick",
        }

    def test_layout(self):
        text = table1_aliexpress.format_result(self._result())
        assert "Table I" in text
        assert "ES_CTR" in text and "US_CTCVR" in text
        assert "+1.33%" in text
        assert "mocograd" in text

    def test_row_count(self):
        text = table1_aliexpress.format_result(self._result())
        # title + header + separator + 2 method rows
        assert len(text.splitlines()) == 5


class TestTable2Formatting:
    def test_layout(self):
        result = {
            "preset": "quick",
            "qm9": {"stl": {"avg": 0.8, "delta_m": 0.0}, "equal": {"avg": 0.7, "delta_m": 0.05}},
            "movielens": {"stl": {"avg": 1.0, "delta_m": 0.0}, "equal": {"avg": 0.9, "delta_m": 0.1}},
        }
        text = table2_regression.format_result(result)
        assert "QM9 Avg MAE" in text
        assert "+5.00%" in text and "+10.00%" in text


class TestTable3And4Formatting:
    def test_table3_columns(self):
        metrics = {
            "segmentation": {"miou": 0.5, "pixacc": 0.7},
            "depth": {"abs_err": 0.4, "rel_err": 0.2},
            "normal": {
                "mean": 23.0,
                "median": 17.0,
                "within_11.25": 0.3,
                "within_22.5": 0.5,
                "within_30": 0.7,
            },
        }
        result = {"metrics": {"stl": metrics}, "delta_m": {"stl": 0.0}, "preset": "quick"}
        text = table3_nyuv2.format_result(result)
        assert "nor.within_11.25" in text
        assert "Table III" in text

    def test_table4_columns(self):
        metrics = {
            "segmentation": {"miou": 0.7, "pixacc": 0.9},
            "depth": {"abs_err": 0.01, "rel_err": 20.0},
        }
        result = {"metrics": {"stl": metrics}, "delta_m": {"stl": 0.0}, "preset": "quick"}
        text = table4_cityscapes.format_result(result)
        assert "Table IV" in text
        assert "dep.rel_err" in text


class TestFig5Formatting:
    def test_layout(self):
        domains = ("Art", "Clipart", "Product", "RealWorld")
        result = {
            "accuracy": {"stl": {d: 0.8 for d in domains}},
            "avg_accuracy": {"stl": 0.8},
            "delta_m": {"stl": 0.0},
            "preset": "quick",
        }
        text = fig5_officehome.format_result(result)
        assert "Avg ACC" in text
        for domain in domains:
            assert domain in text


class TestMetricColumnOrders:
    def test_table3_matches_paper_order(self):
        tasks = [task for task, _ in table3_nyuv2.METRIC_COLUMNS]
        assert tasks == (
            ["segmentation"] * 2 + ["depth"] * 2 + ["normal"] * 5
        )

    def test_table4_matches_paper_order(self):
        assert table4_cityscapes.METRIC_COLUMNS[0] == ("segmentation", "miou")
        assert table4_cityscapes.METRIC_COLUMNS[-1] == ("depth", "rel_err")
