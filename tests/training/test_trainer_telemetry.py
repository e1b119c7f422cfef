"""Trainer ↔ telemetry integration: spans, counters, timing views."""

import numpy as np
import pytest

from repro.balancers import EqualWeighting
from repro.core import MoCoGrad
from repro.obs import NULL_TELEMETRY, InMemorySink, Telemetry
from repro.training import MTLTrainer

from .test_trainer import make_model, make_problem


@pytest.fixture()
def fitted(rng):
    dataset, tasks = make_problem(rng)
    model = make_model(rng, tasks)
    sink = InMemorySink()
    trainer = MTLTrainer(
        model,
        tasks,
        EqualWeighting(),
        seed=0,
        telemetry=Telemetry(sinks=[sink]),
    )
    trainer.fit(dataset, epochs=1, batch_size=8)
    return trainer, sink


class TestStepSpans:
    def test_phase_spans_recorded(self, fitted):
        trainer, _ = fitted
        telemetry = trainer.telemetry
        steps = trainer.step_count
        assert steps > 0
        assert len(telemetry.durations("step")) == steps
        assert len(telemetry.durations("step/forward")) == steps
        assert len(telemetry.durations("step/backward")) == steps
        assert len(telemetry.durations("step/balance")) == steps
        assert len(telemetry.durations("step/optimizer_step")) == steps
        # One task_backward per task per step.
        assert len(telemetry.durations("step/backward/task_backward")) == 2 * steps

    def test_step_span_covers_phases(self, fitted):
        trainer, _ = fitted
        telemetry = trainer.telemetry
        total_step = sum(telemetry.durations("step"))
        phases = sum(
            sum(telemetry.durations(f"step/{phase}"))
            for phase in ("forward", "backward", "balance", "optimizer_step")
        )
        assert total_step >= phases

    def test_per_task_backward_spans_labelled(self, fitted):
        trainer, sink = fitted
        task_spans = [
            e for e in sink.of_type("span") if e["name"] == "task_backward"
        ]
        labels = {e["labels"]["task"] for e in task_spans}
        assert labels == {"t0", "t1"}

    def test_step_counters_flushed_to_sink(self, fitted):
        trainer, sink = fitted
        counters = {
            (e["name"], tuple(sorted(e["labels"].items()))): e["value"]
            for e in sink.of_type("metric")
            if e["kind"] == "counter"
        }
        key = (
            "train_steps_total",
            (("method", "equal"), ("mode", "single_input")),
        )
        assert counters[key] == trainer.step_count
        assert any(name == "balancer_pairs_total" for name, _ in counters)

    def test_multi_input_mode_traced(self, rng):
        from repro.data import MULTI_INPUT, ArrayDataset

        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        datasets = {
            task.name: ArrayDataset(dataset.inputs, dataset.targets[task.name])
            for task in tasks
        }
        trainer = MTLTrainer(
            model, tasks, EqualWeighting(), mode=MULTI_INPUT, seed=0, telemetry=Telemetry()
        )
        trainer.fit(datasets, epochs=1, batch_size=8)
        telemetry = trainer.telemetry
        steps = trainer.step_count
        assert len(telemetry.durations("step")) == steps
        assert len(telemetry.durations("step/backward/task_backward")) == 2 * steps

    def test_feature_grad_space_traced(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(
            model,
            tasks,
            EqualWeighting(),
            grad_space="features",
            seed=0,
            telemetry=Telemetry(),
        )
        trainer.fit(dataset, epochs=1, batch_size=8)
        telemetry = trainer.telemetry
        steps = trainer.step_count
        assert len(telemetry.durations("step/backward_shared")) == steps
        # backward_seconds folds the trunk backprop in.
        assert len(trainer.backward_seconds) == steps
        assert sum(trainer.backward_seconds) >= sum(telemetry.durations("step/backward"))


class TestTimingViews:
    def test_backward_time_distinct_from_step_time(self, fitted):
        trainer, _ = fitted
        assert 0.0 < trainer.median_backward_seconds < trainer.median_step_seconds

    def test_disabled_telemetry_trains_identically(self, rng):
        dataset, tasks = make_problem(rng)
        finals = []
        for telemetry in (Telemetry(), NULL_TELEMETRY):
            model = make_model(np.random.default_rng(7), tasks)
            trainer = MTLTrainer(
                model, tasks, MoCoGrad(seed=3), lr=1e-2, seed=3, telemetry=telemetry
            )
            trainer.fit(dataset, epochs=2, batch_size=8)
            from repro.nn.utils import parameter_vector

            finals.append(parameter_vector(model.parameters()))
        np.testing.assert_allclose(finals[0], finals[1])

    def test_disabled_telemetry_has_empty_views(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(rng, tasks)
        trainer = MTLTrainer(model, tasks, EqualWeighting(), seed=0, telemetry=NULL_TELEMETRY)
        trainer.fit(dataset, epochs=1, batch_size=8)
        assert trainer.median_step_seconds == 0.0
        assert trainer.backward_seconds == []
        assert trainer.median_backward_seconds == 0.0
