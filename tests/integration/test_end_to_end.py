"""End-to-end integration tests across the full stack.

These exercise the public API exactly as the examples and benchmark harness
do: build a benchmark, train under a balancer, evaluate, and check the
qualitative properties the paper's evaluation depends on.
"""

import numpy as np
import pytest

from repro import MoCoGrad, MTLTrainer, RunSpec, create_balancer, run_stl
from repro.balancers import EqualWeighting
from repro.data import (
    make_aliexpress,
    make_cityscapes,
    make_movielens,
    make_officehome,
    make_qm9,
)
from repro.data.movielens import GENRES
from repro.data.qm9 import PROPERTIES
from repro.metrics import delta_m_from_results


class TestAliExpressEndToEnd:
    @pytest.fixture(scope="class")
    def trained(self):
        bench = make_aliexpress("ES", num_records=2000, seed=0)
        model = bench.build_model("hps", np.random.default_rng(0))
        trainer = MTLTrainer(
            model, bench.tasks, MoCoGrad(seed=0), mode=bench.mode, lr=2e-3, seed=0
        )
        trainer.fit(bench.train, epochs=6, batch_size=128)
        return bench, trainer

    def test_learns_beyond_chance(self, trained):
        bench, trainer = trained
        metrics = trainer.evaluate(bench.test)
        assert metrics["CTR"]["auc"] > 0.58
        assert metrics["CTCVR"]["auc"] > 0.55

    def test_loss_decreased(self, trained):
        _, trainer = trained
        curve = trainer.history.average_loss_curve()
        assert curve[-1] < curve[0]


class TestMoCoGradBeatsPlainJointTrainingUnderConflict:
    def test_conflict_heavy_movielens(self):
        """On a low-relatedness (conflict-heavy) MovieLens instance,
        MoCoGrad's test RMSE should not be worse than plain joint training
        by any meaningful margin — and typically better."""
        bench = make_movielens(
            genres=GENRES[:3], records_per_genre=250, relatedness=0.05, seed=3
        )
        results = {}
        for name in ("equal", "mocograd"):
            model = bench.build_model("hps", np.random.default_rng(1))
            trainer = MTLTrainer(
                model,
                bench.tasks,
                create_balancer(name, seed=0),
                mode=bench.mode,
                lr=3e-3,
                seed=1,
            )
            trainer.fit(bench.train, epochs=5, batch_size=48)
            metrics = trainer.evaluate(bench.test)
            results[name] = np.mean([m["rmse"] for m in metrics.values()])
        assert results["mocograd"] <= results["equal"] * 1.05


class TestQM9EndToEnd:
    def test_multi_input_training_improves(self):
        bench = make_qm9(properties=PROPERTIES[:3], molecules_per_task=100, seed=0)
        model = bench.build_model("hps", np.random.default_rng(0))
        trainer = MTLTrainer(
            model, bench.tasks, MoCoGrad(seed=0), mode=bench.mode, lr=3e-3, seed=0
        )
        before = trainer.evaluate(bench.test)
        trainer.fit(bench.train, epochs=8, batch_size=32)
        after = trainer.evaluate(bench.test)
        before_avg = np.mean([m["mae"] for m in before.values()])
        after_avg = np.mean([m["mae"] for m in after.values()])
        assert after_avg < before_avg


class TestDeltaMPipeline:
    def test_delta_m_computable_from_real_runs(self):
        bench = make_aliexpress("NL", num_records=600, seed=0)
        stl = run_stl(bench, RunSpec(epochs=2, batch_size=64, lr=2e-3, seed=0))
        model = bench.build_model("hps", np.random.default_rng(0))
        trainer = MTLTrainer(
            model, bench.tasks, EqualWeighting(), mode=bench.mode, lr=2e-3, seed=0
        )
        trainer.fit(bench.train, epochs=2, batch_size=64)
        mtl = trainer.evaluate(bench.test)
        directions = {t.name: dict(t.higher_is_better) for t in bench.tasks}
        delta = delta_m_from_results(mtl, stl, directions)
        assert np.isfinite(delta)


class TestArchitectureGeneralization:
    @pytest.mark.parametrize("arch", ["hps", "mmoe", "cgc", "cross_stitch", "mtan"])
    def test_mocograd_trains_every_architecture(self, arch):
        bench = make_cityscapes(num_scenes=24, seed=0)
        model = bench.build_model(arch, np.random.default_rng(0))
        trainer = MTLTrainer(
            model, bench.tasks, MoCoGrad(seed=0), mode=bench.mode, lr=3e-3, seed=0
        )
        history = trainer.fit(bench.train, epochs=2, batch_size=8)
        curve = history.average_loss_curve()
        assert curve[-1] < curve[0]


class TestAllBalancersOnRealBenchmark:
    @pytest.mark.parametrize(
        "method",
        [
            "equal", "dwa", "mgda", "pcgrad", "graddrop", "gradvac", "cagrad",
            "imtl", "rlw", "nashmtl", "mocograd",
            # extension baselines
            "gradnorm", "uncertainty",
        ],
    )
    def test_method_completes_and_is_finite(self, method):
        bench = make_officehome(num_classes=4, samples_per_domain=40, seed=0)
        model = bench.build_model("hps", np.random.default_rng(0))
        trainer = MTLTrainer(
            model,
            bench.tasks,
            create_balancer(method, seed=0),
            mode=bench.mode,
            lr=3e-3,
            seed=0,
        )
        history = trainer.fit(bench.train, epochs=1, batch_size=16)
        assert np.all(np.isfinite(history.average_loss_curve()))
        metrics = trainer.evaluate(bench.test)
        assert all(0.0 <= m["accuracy"] <= 1.0 for m in metrics.values())
