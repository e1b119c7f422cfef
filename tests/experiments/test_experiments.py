"""Tests for the experiment runner, reporting, and registry (tiny configs)."""

import numpy as np
import pytest

from repro.data import make_aliexpress
from repro.experiments import REGISTRY, format_percent, format_table, run_methods
from repro.training import METHODS, RunSpec
from repro.training.run import run


class TestReporting:
    def test_format_percent(self):
        assert format_percent(0.0048) == "+0.48%"
        assert format_percent(-0.011) == "-1.10%"

    def test_format_table_alignment(self):
        table = format_table(["m", "value"], [["equal", 0.5], ["mocograd", 0.75]])
        lines = table.split("\n")
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_table_title(self):
        table = format_table(["a"], [[1.0]], title="Table X")
        assert table.startswith("Table X")

    def test_format_table_float_digits(self):
        table = format_table(["a"], [[0.123456]], float_digits=2)
        assert "0.12" in table


class TestRunner:
    @pytest.fixture(scope="class")
    def bench(self):
        return make_aliexpress("ES", num_records=300, seed=0)

    def test_method_list_matches_paper(self):
        assert METHODS == (
            "equal",
            "dwa",
            "mgda",
            "pcgrad",
            "graddrop",
            "gradvac",
            "cagrad",
            "imtl",
            "rlw",
            "nashmtl",
            "mocograd",
        )

    def test_run_method_returns_metrics(self, bench):
        metrics, _ = run(bench, RunSpec(method="mocograd", epochs=1, lr=2e-3, seed=0))
        assert set(metrics) == {"CTR", "CTCVR"}

    def test_run_method_with_trainer(self, bench):
        metrics, trainer = run(bench, RunSpec(epochs=1, seed=0))
        assert trainer.step_count > 0

    def test_run_methods_includes_stl_and_delta(self, bench):
        results = run_methods(bench, RunSpec(epochs=1, seed=0), methods=("equal",))
        assert set(results) == {"stl", "equal"}
        assert results["stl"].delta_m == 0.0
        assert results["equal"].delta_m is not None

    def test_balancer_kwargs_forwarded(self, bench):
        spec = RunSpec(method="mocograd", balancer_kwargs={"calibration": 0.5}, epochs=1)
        metrics, trainer = run(bench, spec)
        assert set(metrics) == {"CTR", "CTCVR"}
        assert trainer.balancer.calibration == 0.5

    def test_stl_metrics_reusable(self, bench):
        stl = {"CTR": {"auc": 0.6}, "CTCVR": {"auc": 0.7}}
        results = run_methods(bench, RunSpec(epochs=1, seed=0), ("equal",), stl_metrics=stl)
        assert results["stl"].metrics == stl


class TestRegistry:
    def test_all_tables_and_figures_present(self):
        assert list(REGISTRY) == [
            "fig1", "fig2", "table1", "table2", "table3", "table4", "fig5", "fig6", "fig7",
            "fig8", "fig9", "ablation_conflict_stress", "ablation_mocograd_modes",
            "ablation_grad_source",
        ]

    def test_registry_modules_have_interface(self):
        for module, _ in REGISTRY.values():
            assert hasattr(module, "run")
            assert hasattr(module, "format_result")
            assert hasattr(module, "PRESETS")
            assert {"quick", "full"} <= set(module.PRESETS)
