"""Tests for History and evaluation."""

import numpy as np
import pytest

from repro.data import make_aliexpress, make_movielens
from repro.data.movielens import GENRES
from repro.training import History, evaluate_model
from repro.training.evaluation import collect_outputs


class TestHistory:
    def test_epoch_averaging(self):
        history = History(["a", "b"])
        history.record_step(np.array([1.0, 2.0]))
        history.record_step(np.array([3.0, 4.0]))
        history.close_epoch()
        np.testing.assert_allclose(history.epoch_losses[0], [2.0, 3.0])

    def test_epoch_boundaries_respected(self):
        history = History(["a"])
        history.record_step(np.array([1.0]))
        history.close_epoch()
        history.record_step(np.array([3.0]))
        history.close_epoch()
        np.testing.assert_allclose(history.average_loss_curve(), [1.0, 3.0])

    def test_empty_epoch_is_nan(self):
        history = History(["a"])
        history.close_epoch()
        assert np.isnan(history.epoch_losses[0][0])

    def test_empty_epoch_nan_row_covers_every_task(self):
        history = History(["a", "b", "c"])
        history.close_epoch()
        assert history.epoch_losses[0].shape == (3,)
        assert np.all(np.isnan(history.epoch_losses[0]))

    def test_empty_epoch_after_full_epoch(self):
        """A zero-step epoch must not re-consume the previous epoch's steps."""
        history = History(["a"])
        history.record_step(np.array([2.0]))
        history.close_epoch()
        history.close_epoch()  # no steps recorded in between
        np.testing.assert_allclose(history.epoch_losses[0], [2.0])
        assert np.isnan(history.epoch_losses[1][0])
        # A later epoch with steps resumes normally.
        history.record_step(np.array([4.0]))
        history.close_epoch()
        np.testing.assert_allclose(history.epoch_losses[2], [4.0])

    def test_empty_epoch_curves_and_final_losses(self):
        history = History(["a", "b"])
        history.close_epoch()
        curve = history.average_loss_curve()
        assert curve.shape == (1,) and np.isnan(curve[0])
        finals = history.final_losses()
        assert set(finals) == {"a", "b"}
        assert all(np.isnan(v) for v in finals.values())

    def test_empty_epoch_records_metrics(self):
        history = History(["a"])
        history.close_epoch({"a": {"rmse": 0.25}})
        assert history.epoch_metrics[0]["a"]["rmse"] == 0.25

    def test_task_loss_curve(self):
        history = History(["a", "b"])
        history.record_step(np.array([1.0, 5.0]))
        history.close_epoch()
        np.testing.assert_allclose(history.task_loss_curve("b"), [5.0])

    def test_final_losses(self):
        history = History(["a", "b"])
        history.record_step(np.array([1.0, 2.0]))
        history.close_epoch()
        assert history.final_losses() == {"a": 1.0, "b": 2.0}

    def test_final_losses_empty_raises(self):
        with pytest.raises(RuntimeError):
            History(["a"]).final_losses()

    def test_metrics_attached_to_epoch(self):
        history = History(["a"])
        history.record_step(np.array([1.0]))
        history.close_epoch({"a": {"rmse": 0.5}})
        assert history.epoch_metrics[0]["a"]["rmse"] == 0.5

    def test_num_epochs(self):
        history = History(["a"])
        for _ in range(3):
            history.record_step(np.array([1.0]))
            history.close_epoch()
        assert history.num_epochs == 3


class TestEvaluation:
    def test_collect_outputs_single_input(self, rng):
        bench = make_aliexpress("ES", num_records=200, seed=0)
        model = bench.build_model("hps", rng)
        outputs, targets = collect_outputs(model, bench.test, "CTR", batch_size=32)
        assert outputs.shape == targets.shape

    def test_evaluate_model_structure(self, rng):
        bench = make_aliexpress("ES", num_records=200, seed=0)
        model = bench.build_model("hps", rng)
        results = evaluate_model(model, bench.tasks, bench.test, bench.mode)
        assert set(results) == {"CTR", "CTCVR"}
        assert 0.0 <= results["CTR"]["auc"] <= 1.0

    def test_evaluate_multi_input(self, rng):
        bench = make_movielens(genres=GENRES[:2], records_per_genre=80, seed=0)
        model = bench.build_model("hps", rng)
        results = evaluate_model(model, bench.tasks, bench.test, bench.mode)
        assert set(results) == set(GENRES[:2])
        assert results[GENRES[0]]["rmse"] > 0

    def test_evaluation_does_not_touch_gradients(self, rng):
        bench = make_aliexpress("ES", num_records=150, seed=0)
        model = bench.build_model("hps", rng)
        evaluate_model(model, bench.tasks, bench.test, bench.mode)
        assert all(p.grad is None for p in model.parameters())

