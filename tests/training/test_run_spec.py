"""Tests for the run protocol: ``RunSpec``, ``build_trainer``, ``run`` and ``run_stl``."""

import copy
import pickle
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest

from repro.core import create_balancer
from repro.data import make_aliexpress, make_movielens, make_synthetic_mtl
from repro.data.movielens import GENRES
from repro.obs import DynamicsRecorder, Profiler, Telemetry
from repro.training import (
    History,
    MTLTrainer,
    RunSpec,
    average_metric_dicts,
    build_trainer,
    run_stl,
)
from repro.training.run import run


class TestRunSpec:
    def test_spec_is_frozen(self):
        spec = RunSpec(lr=1e-2)
        with pytest.raises(FrozenInstanceError):
            spec.lr = 1e-3
        with pytest.raises(FrozenInstanceError):
            spec.balancer_kwargs = {}

    def test_balancer_kwargs_cannot_be_mutated_through_a_spec(self):
        kwargs = {"calibration": 0.1}
        spec = RunSpec(method="mocograd", balancer_kwargs=kwargs)
        with pytest.raises(TypeError):
            spec.balancer_kwargs["calibration"] = 0.5
        for mutate in (
            lambda d: d.update(calibration=0.5),
            lambda d: d.pop("calibration"),
            lambda d: d.setdefault("beta1", 0.5),
            lambda d: d.clear(),
        ):
            with pytest.raises(TypeError):
                mutate(spec.balancer_kwargs)
        # The spec holds a copy: the caller's dict does not reach it either.
        kwargs["calibration"] = 0.9
        assert spec.balancer_kwargs == {"calibration": 0.1}

    def test_spec_copies_and_serializes(self):
        spec = RunSpec(method="mocograd", balancer_kwargs={"calibration": 0.1}, tasks=("a",))
        assert copy.deepcopy(spec) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert asdict(spec)["balancer_kwargs"] == {"calibration": 0.1}
        assert replace(spec, lr=0.5).balancer_kwargs == {"calibration": 0.1}

    def test_tasks_held_as_a_tuple(self):
        assert RunSpec(tasks=["b", "a"]).tasks == ("b", "a")
        assert RunSpec().tasks is None


class TestBuildTrainer:
    @pytest.fixture(scope="class")
    def bench(self):
        return make_synthetic_mtl(num_tasks=2, num_samples=200, seed=0)

    def test_runtime_kwargs_pass_through_untouched(self, bench):
        telemetry, profiler, recorder = Telemetry(), Profiler(), DynamicsRecorder(capacity=8)
        trainer = build_trainer(
            bench,
            RunSpec(),
            telemetry=telemetry,
            profile=profiler,
            record_dynamics=recorder,
            accumulate_steps=2,
        )
        assert trainer.telemetry is telemetry
        assert trainer.profiler is profiler
        assert trainer.recorder is recorder
        assert trainer.accumulate_steps == 2

    def test_matches_the_hand_built_trainer(self, bench):
        spec = RunSpec(method="mocograd", balancer_kwargs={"calibration": 0.3}, lr=2e-3, seed=4)
        built = build_trainer(bench, spec)
        hand = MTLTrainer(
            bench.build_model("hps", np.random.default_rng(4)),
            bench.tasks,
            create_balancer("mocograd", seed=4, calibration=0.3),
            mode=bench.mode,
            lr=2e-3,
            seed=4,
        )
        for trainer in (built, hand):
            trainer.fit(bench.train, epochs=2, batch_size=32)
        np.testing.assert_array_equal(built.arena.data, hand.arena.data)

    def test_tasks_select_the_heads(self, bench):
        trainer = build_trainer(bench, RunSpec(tasks=("task1",)))
        assert trainer.model.task_names == ["task1"]
        assert [task.name for task in trainer.tasks] == ["task1"]


class TestAverageMetricDicts:
    def test_single_run_identity(self):
        run = {"t": {"rmse": 1.5, "mae": 1.0}}
        assert average_metric_dicts([run]) == run

    def test_mean_across_runs(self):
        runs = [
            {"t": {"rmse": 1.0}},
            {"t": {"rmse": 3.0}},
        ]
        assert average_metric_dicts(runs)["t"]["rmse"] == pytest.approx(2.0)

    def test_multiple_tasks_and_metrics(self):
        runs = [
            {"a": {"x": 1.0, "y": 2.0}, "b": {"x": 0.0, "y": 0.0}},
            {"a": {"x": 3.0, "y": 4.0}, "b": {"x": 2.0, "y": 2.0}},
        ]
        averaged = average_metric_dicts(runs)
        assert averaged["a"] == {"x": 2.0, "y": 3.0}
        assert averaged["b"] == {"x": 1.0, "y": 1.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_metric_dicts([])


class TestSeedAveraging:
    @pytest.fixture(scope="class")
    def bench(self):
        return make_synthetic_mtl(num_tasks=2, num_samples=200, seed=0)

    def test_multi_seed_differs_from_single(self, bench):
        single, _ = run(bench, RunSpec(epochs=2, batch_size=32, seed=0, num_seeds=1))
        double, _ = run(bench, RunSpec(epochs=2, batch_size=32, seed=0, num_seeds=2))
        # Averaging a second (different-seed) run must change the numbers.
        assert single["task0"]["rmse"] != double["task0"]["rmse"]

    def test_deterministic_given_seed_and_count(self, bench):
        spec = RunSpec(epochs=2, batch_size=32, seed=3, num_seeds=2)
        a, _ = run(bench, spec)
        b, _ = run(bench, spec)
        assert a == b

    def test_stl_baseline_structure(self, bench):
        stl = run_stl(bench, RunSpec(epochs=1, batch_size=32, seed=0, num_seeds=1))
        assert set(stl) == {"task0", "task1"}
        assert "rmse" in stl["task0"]


class TestMethodResult:
    def test_history_is_an_instance_field(self):
        """history must be a dataclass field, not a shared class attribute
        (the missing-annotation bug made every instance alias one value)."""
        from repro.experiments import MethodResult

        assert "history" in {f.name for f in fields(MethodResult)}
        a = MethodResult("equal", {}, history="h1")
        b = MethodResult("mgda", {})
        assert a.history == "h1"
        assert b.history is None

    def test_run_methods_populates_history_and_telemetry(self):
        from repro.experiments import run_methods

        bench = make_synthetic_mtl(num_tasks=2, num_samples=120, seed=0)
        spec = RunSpec(epochs=2, batch_size=32, seed=0, num_seeds=1)
        results = run_methods(bench, spec, methods=("equal",))
        result = results["equal"]
        assert isinstance(result.history, History)
        assert result.history.num_epochs == 2
        assert "step" in result.telemetry["spans"]
        assert "step/backward" in result.telemetry["spans"]
        counter_names = {m["name"] for m in result.telemetry["metrics"]}
        assert "balancer_conflicts_total" in counter_names


class _Unreadable:
    """Stands in for a dataset that must not be read."""

    def __getattr__(self, name):
        raise AssertionError(f"read .{name} of another task's data")


class TestSTL:
    def test_single_task_metrics(self):
        bench = make_aliexpress("ES", num_records=400, seed=0)
        spec = RunSpec(tasks=("CTR",), epochs=2, batch_size=64, lr=2e-3, seed=0)
        metrics = run_stl(bench, spec)["CTR"]
        assert "auc" in metrics
        assert 0.0 <= metrics["auc"] <= 1.0

    def test_all_tasks(self):
        bench = make_aliexpress("ES", num_records=300, seed=0)
        results = run_stl(bench, RunSpec(epochs=1, batch_size=64, seed=0))
        assert set(results) == {"CTR", "CTCVR"}

    def test_multi_input_stl(self):
        bench = make_movielens(genres=GENRES[:2], records_per_genre=80, seed=0)
        metrics = run_stl(bench, RunSpec(tasks=(GENRES[0],), epochs=1, batch_size=32))
        assert "rmse" in metrics[GENRES[0]]

    def test_multi_input_stl_reads_only_its_task(self):
        bench = make_movielens(genres=GENRES[:2], records_per_genre=80, seed=0)
        target, other = GENRES[:2]
        cut = make_movielens(genres=GENRES[:2], records_per_genre=80, seed=0)
        cut.train = {target: bench.train[target], other: _Unreadable()}
        cut.test = {target: bench.test[target], other: _Unreadable()}
        spec = RunSpec(tasks=(target,), epochs=2, batch_size=32)
        assert run_stl(cut, spec) == run_stl(bench, spec)

    def test_unknown_task_rejected_before_the_data_is_cut(self):
        bench = make_movielens(genres=GENRES[:2], records_per_genre=80, seed=0)
        with pytest.raises(ValueError, match="unknown tasks"):
            run_stl(bench, RunSpec(tasks=("Nope",), epochs=1))

    def test_stl_ignores_the_method_and_architecture(self):
        bench = make_synthetic_mtl(num_tasks=2, num_samples=200, seed=0)
        spec = RunSpec(epochs=1, batch_size=32)
        mocograd_mmoe = RunSpec(
            method="mocograd", balancer_kwargs={"calibration": 0.5}, architecture="mmoe",
            epochs=1, batch_size=32,
        )
        assert run_stl(bench, mocograd_mmoe) == run_stl(bench, spec)

    def test_stl_learns(self):
        """STL AUC on the learnable CTR task should beat chance."""
        bench = make_aliexpress("ES", num_records=1500, seed=0)
        spec = RunSpec(tasks=("CTR",), epochs=6, batch_size=128, lr=2e-3, seed=0)
        assert run_stl(bench, spec)["CTR"]["auc"] > 0.55
