"""First-class ``grad_space`` trainer option: the feature-level gradient
space as a peer of the parameter-level one.

Covers the disconnected-head zero-fill fix, feature-vs-parameter
equivalence across every architecture with a shared cut, feature-space gradient
accumulation (the historical ValueError gate is lifted), the per-dim
workspace cache, single-GEMM conflict tracking, and the EMA feature-norm
normalizer.
"""

import tracemalloc

import numpy as np
import pytest

import repro.core.gradstats as gradstats_module
from repro.arch import HardParameterSharing, LinearHead, MLPEncoder
from repro.balancers import EqualWeighting
from repro.core.balancer import available_balancers, create_balancer
from repro.nn import Module, Tensor
from repro.nn.utils import parameter_vector
from repro.training import MTLTrainer

from ..arch.test_architectures import FACTORIES
from ..reference.trainer import TRAINERS
from .test_trainer import make_model, make_problem

ALL_METHODS = sorted(available_balancers())
CUT_ARCHS = ("hps", "mmoe", "cross_stitch", "cgc")


def build(model, tasks, *, balancer=None, backward_mode="multi_root", **kwargs):
    kwargs.setdefault("seed", 0)
    return TRAINERS[backward_mode](model, tasks, balancer or EqualWeighting(), **kwargs)


# ----------------------------------------------------------------------
# Disconnected heads (the cut.grad-is-None crash)
# ----------------------------------------------------------------------
class ConstantHead(Module):
    """Predicts a learned constant: its loss never reaches the trunk."""

    def __init__(self, rng):
        super().__init__()
        self.inner = LinearHead(1, 1, rng)

    def __call__(self, features):
        return self.inner(Tensor(np.ones((features.shape[0], 1))))


def make_disconnected_problem(rng):
    dataset, tasks = make_problem(rng)
    encoder = MLPEncoder(6, [12, 8], rng)
    heads = {"t0": LinearHead(8, 1, rng), "t1": ConstantHead(rng)}
    return dataset, tasks, HardParameterSharing(encoder, heads)


class TestDisconnectedHead:
    @pytest.mark.parametrize("backward_mode", ("multi_root", "per_task"))
    def test_zero_row_for_disconnected_task(self, rng, backward_mode):
        dataset, tasks, model = make_disconnected_problem(rng)
        trainer = build(model, tasks, grad_space="features", backward_mode=backward_mode)
        x, targets = dataset.batch(np.arange(8))
        grads, losses = trainer._collect_single(x, targets, trainer.telemetry)
        assert np.abs(grads[0]).sum() > 0
        np.testing.assert_array_equal(grads[1], np.zeros_like(grads[1]))
        assert np.all(np.isfinite(losses))

    @pytest.mark.parametrize("backward_mode", ("multi_root", "per_task"))
    def test_full_step_does_not_crash(self, rng, backward_mode):
        """Regression: the per_task path used to die with AttributeError on
        ``cut.grad.reshape`` when the cut's gradient never materialized."""
        dataset, tasks, model = make_disconnected_problem(rng)
        trainer = build(model, tasks, grad_space="features", backward_mode=backward_mode)
        x, targets = dataset.batch(np.arange(8))
        losses = trainer.train_step_single(x, targets)
        assert np.all(np.isfinite(losses))
        # The disconnected head still trains through its own (task) grads.
        before = parameter_vector(model.task_specific_parameters("t1"))
        trainer.train_step_single(x, targets)
        after = parameter_vector(model.task_specific_parameters("t1"))
        assert not np.array_equal(before, after)


# ----------------------------------------------------------------------
# Equivalence and the balancer × space × window smoke matrix
# ----------------------------------------------------------------------
def make_arch_batch(rng, n=12):
    x = rng.normal(size=(n, 6))
    targets = {"a": rng.normal(size=n), "b": rng.normal(size=n)}
    return x, targets


def make_arch_trainer(name, **kwargs):
    from repro.data import TaskSpec
    from repro.nn.functional import mse_loss

    model = FACTORIES[name](np.random.default_rng(5))
    tasks = [TaskSpec(t, mse_loss, {}, {}) for t in ("a", "b")]
    return MTLTrainer(model, tasks, EqualWeighting(), seed=0, **kwargs)


class TestFeatureSpaceAcrossArchitectures:
    @pytest.mark.parametrize("name", CUT_ARCHS)
    def test_matches_parameter_space_for_equal_weighting(self, rng, name):
        """Balancing at the cut then one trunk backprop is the chain rule:
        for the trivial balancer both spaces produce the same update."""
        x, targets = make_arch_batch(rng)
        finals = {}
        for space in ("parameters", "features"):
            trainer = make_arch_trainer(name, grad_space=space, lr=1e-2)
            for _ in range(3):
                trainer.train_step_single(x, targets)
            finals[space] = parameter_vector(trainer.model.parameters())
        np.testing.assert_allclose(
            finals["features"], finals["parameters"], atol=1e-10, rtol=0
        )

    def test_archs_without_a_cut_are_rejected_at_step_time(self, rng):
        x, targets = make_arch_batch(rng)
        trainer = make_arch_trainer("mtan", grad_space="features")
        with pytest.raises(NotImplementedError):
            trainer.train_step_single(x, targets)


@pytest.mark.parametrize("accumulate", (1, 4))
@pytest.mark.parametrize("space", ("parameters", "features"))
@pytest.mark.parametrize("method", ALL_METHODS)
def test_every_balancer_trains_in_every_space(method, space, accumulate, rng):
    """The full matrix the tentpole promises: 13 balancers × 2 gradient
    spaces × {per-step, windowed} all make finite progress on HPS."""
    from repro.data import TaskSpec
    from repro.nn.functional import mse_loss

    x, targets = make_arch_batch(rng, n=16)
    model = FACTORIES["hps"](np.random.default_rng(5))
    tasks = [TaskSpec(t, mse_loss, {}, {}) for t in ("a", "b")]
    trainer = MTLTrainer(
        model,
        tasks,
        create_balancer(method, seed=0),
        grad_space=space,
        accumulate_steps=accumulate,
        optimizer="sgd",
        seed=0,
    )
    initial = parameter_vector(model.parameters())
    for _ in range(accumulate):
        trainer.train_step_single(x, targets)
    trained = parameter_vector(model.parameters())
    assert np.all(np.isfinite(trained))
    assert float(np.max(np.abs(trained - initial))) > 0.0


# ----------------------------------------------------------------------
# Feature-space accumulation semantics
# ----------------------------------------------------------------------
class TestFeatureAccumulation:
    def test_window_of_identical_batches_matches_single_step(self, rng):
        """W identical micro-batches resolve to exactly the W=1 update
        (window-mean chain rule: Σ_w J_wᵀ(combined / W) == Jᵀ combined)."""
        dataset, tasks = make_problem(rng)
        x, targets = dataset.batch(np.arange(16))
        finals = {}
        for window in (1, 2):
            trainer = build(
                make_model(np.random.default_rng(3), tasks),
                tasks,
                grad_space="features",
                accumulate_steps=window,
                optimizer="sgd",
            )
            for _ in range(window):
                trainer.train_step_single(x, targets)
            finals[window] = parameter_vector(trainer.model.parameters())
        np.testing.assert_allclose(finals[2], finals[1], atol=1e-12, rtol=0)

    def test_partial_window_applies_no_update(self, rng):
        dataset, tasks = make_problem(rng)
        model = make_model(np.random.default_rng(3), tasks)
        initial = parameter_vector(model.parameters())
        trainer = build(model, tasks, grad_space="features", accumulate_steps=4)
        x, targets = dataset.batch(np.arange(16))
        trainer.train_step_single(x, targets)
        np.testing.assert_array_equal(parameter_vector(model.parameters()), initial)
        assert trainer._micro_steps == 1

    def test_mid_window_dim_change_discards_window(self, rng):
        """A batch-size change mid-window changes d_feat; the open window is
        dropped with a warning instead of mixing incompatible spaces."""
        dataset, tasks = make_problem(rng)
        model = make_model(np.random.default_rng(3), tasks)
        initial = parameter_vector(model.parameters())
        trainer = build(model, tasks, grad_space="features", accumulate_steps=2)
        x16, t16 = dataset.batch(np.arange(16))
        x8, t8 = dataset.batch(np.arange(8))
        trainer.train_step_single(x16, t16)
        with pytest.warns(RuntimeWarning, match="discarded"):
            trainer.train_step_single(x8, t8)
        # The dropped micro-step applied no update; the batch-8 step opened
        # a fresh window which a second batch-8 step completes.
        np.testing.assert_array_equal(parameter_vector(model.parameters()), initial)
        assert trainer._micro_steps == 1
        trainer.train_step_single(x8, t8)
        assert trainer._micro_steps == 0
        assert not np.array_equal(parameter_vector(model.parameters()), initial)

    def test_stateful_balancer_rejects_batch_size_change(self, rng):
        """Sharp edge (documented in DESIGN.md): d_feat follows the batch
        shape, so MoCoGrad's (K, d_feat) momentum raises on a change."""
        dataset, tasks = make_problem(rng)
        trainer = build(
            make_model(rng, tasks), tasks,
            balancer=create_balancer("mocograd", seed=0),
            grad_space="features",
        )
        x16, t16 = dataset.batch(np.arange(16))
        x8, t8 = dataset.batch(np.arange(8))
        trainer.train_step_single(x16, t16)
        with pytest.raises(ValueError, match="momentum"):
            trainer.train_step_single(x8, t8)


# ----------------------------------------------------------------------
# Workspace cache (per-dim, bounded)
# ----------------------------------------------------------------------
class TestWorkspaceCache:
    def test_one_buffer_per_dim(self, rng):
        dataset, tasks = make_problem(rng)
        trainer = build(make_model(rng, tasks), tasks)
        a = trainer._workspace(64)
        b = trainer._workspace(32)
        assert a.shape == (2, 64) and b.shape == (2, 32)
        assert trainer._workspace(64) is a
        assert trainer._workspace(32) is b

    def test_interleaved_dims_do_not_reallocate(self, rng):
        """Regression: a single shape-keyed slot reallocated on every
        interleaving (parameter-space step after feature-space step, or a
        batch-size flip).  The per-dim dict must allocate nothing steady
        state — gated with tracemalloc."""
        dataset, tasks = make_problem(rng)
        trainer = build(make_model(rng, tasks), tasks)
        a = trainer._workspace(64)
        b = trainer._workspace(32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(100):
                assert trainer._workspace(64) is a
                assert trainer._workspace(32) is b
            allocated = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 100 interleaved lookups of (2, 64) float64 buffers would cost
        # ~100 KiB if each reallocated; steady state must stay trivial.
        assert allocated < 8 * 1024

    def test_cache_is_bounded_fifo(self, rng):
        dataset, tasks = make_problem(rng)
        trainer = build(make_model(rng, tasks), tasks)
        trainer._workspace(10)
        for dim in range(11, 11 + trainer._MAX_WORKSPACES):
            trainer._workspace(dim)
        assert len(trainer._grad_workspaces) == trainer._MAX_WORKSPACES
        assert 10 not in trainer._grad_workspaces  # oldest evicted first


# ----------------------------------------------------------------------
# Conflict tracking reuses the balancer's GradStats
# ----------------------------------------------------------------------
class TestConflictTrackingCost:
    @pytest.mark.parametrize("space", ("parameters", "features"))
    def test_one_gram_evaluation_per_step(self, rng, monkeypatch, space):
        """Regression: conflict tracking once built a second GradStats per
        step, doubling the K×K Gram GEMMs.  The dynamics recorder samples
        the balancer's own stats instead."""
        calls = []
        original = gradstats_module.gram_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(gradstats_module, "gram_matrix", counting)
        dataset, tasks = make_problem(rng)
        trainer = build(
            make_model(rng, tasks), tasks,
            balancer=create_balancer("mocograd", seed=0),
            grad_space=space,
            record_dynamics=True,
        )
        x, targets = dataset.batch(np.arange(16))
        for _ in range(3):
            trainer.train_step_single(x, targets)
        assert len(trainer.recorder.samples()) == 3
        assert len(calls) == 3  # exactly one Gram per step, not two


# ----------------------------------------------------------------------
# EMA feature-norm normalizer
# ----------------------------------------------------------------------
class TestFeatureEMA:
    def test_off_by_default(self, rng):
        dataset, tasks = make_problem(rng)
        trainer = build(make_model(rng, tasks), tasks, grad_space="features")
        assert trainer.feature_normalizer is None

    def test_requires_feature_space(self, rng):
        dataset, tasks = make_problem(rng)
        with pytest.raises(ValueError, match="feature_ema"):
            build(make_model(rng, tasks), tasks, feature_ema=0.9)

    def test_normalizer_advances_once_per_step(self, rng):
        dataset, tasks = make_problem(rng)
        trainer = build(
            make_model(rng, tasks), tasks, grad_space="features", feature_ema=0.9
        )
        x, targets = dataset.batch(np.arange(16))
        for _ in range(3):
            losses = trainer.train_step_single(x, targets)
        assert trainer.feature_normalizer.ema.updates == 3
        assert np.all(np.isfinite(losses))

    def test_normalized_training_still_converges(self, rng):
        dataset, tasks = make_problem(rng, conflict=False)
        trainer = build(
            make_model(rng, tasks), tasks,
            grad_space="features", feature_ema=0.5, lr=1e-2,
        )
        history = trainer.fit(dataset, epochs=10, batch_size=20)
        curve = history.average_loss_curve()
        assert curve[-1] < curve[0] / 2
