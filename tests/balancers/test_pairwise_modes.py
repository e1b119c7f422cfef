"""Vectorized pairwise kernels vs their per-pair loop references.

The vectorized kernels must be a pure performance change: for every
registered balancer, every task count, and every step of a multi-step
trajectory, the production balancer must reproduce its loop reference
(``tests/reference/balancers.py``; balancers without a pairwise kernel
are compared against a second instance of themselves) — outputs to within
fp tolerance and telemetry counters *bitwise identical*.

MoCoGrad's ``balance`` goes one step further and never forms the
calibrated matrix; ``TestMoCoGradDirectPath`` pins it to both the
full-matrix oracle (``MatrixMoCoGrad``) and the per-pair loop over long
conflicting trajectories, in the trainer's accumulate-then-resolve path
too.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.balancers  # noqa: F401 - triggers registration
from repro.core import available_balancers, create_balancer
from repro.core.mocograd import MoCoGrad
from repro.data import make_synthetic_mtl
from repro.obs import Telemetry
from repro.training import MTLTrainer

from ..reference.balancers import LOOP_KERNELS, LoopMoCoGrad, MatrixMoCoGrad

TASK_COUNTS = (2, 4, 8, 16)
DIM = 12
STEPS = 6


def make_balancer(name: str, mode: str, **kwargs):
    """The production balancer (``"vectorized"``) or its loop reference."""
    if mode == "loop" and name in LOOP_KERNELS:
        balancer = LOOP_KERNELS[name](seed=0, **kwargs)
    else:
        balancer = create_balancer(name, seed=0, **kwargs)
    balancer.telemetry = Telemetry()
    return balancer


def counter_values(balancer) -> dict:
    """``{(name, sorted label items): value}`` for every counter series."""
    return {
        (m["name"], tuple(sorted(m["labels"].items()))): m["value"]
        for m in balancer.telemetry.registry.snapshot()
        if m["kind"] == "counter"
    }


def run_trajectory(balancer, num_tasks: int, steps: int = STEPS):
    rng = np.random.default_rng(7)
    balancer.reset(num_tasks)
    outputs = []
    for _ in range(steps):
        grads = rng.normal(size=(num_tasks, DIM))
        losses = rng.uniform(0.1, 2.0, size=num_tasks)
        outputs.append(balancer.balance(grads, losses))
    return outputs


def assert_modes_match(name: str, num_tasks: int, **kwargs):
    loop = make_balancer(name, "loop", **kwargs)
    vectorized = make_balancer(name, "vectorized", **kwargs)
    loop_outputs = run_trajectory(loop, num_tasks)
    vec_outputs = run_trajectory(vectorized, num_tasks)
    for step, (expected, actual) in enumerate(zip(loop_outputs, vec_outputs)):
        np.testing.assert_allclose(
            actual,
            expected,
            rtol=0.0,
            atol=1e-9,
            err_msg=f"{name} K={num_tasks} diverged at step {step}",
        )
    assert counter_values(vectorized) == counter_values(loop), (
        f"{name} K={num_tasks}: telemetry counters differ between modes"
    )


@pytest.mark.parametrize("num_tasks", TASK_COUNTS)
@pytest.mark.parametrize("name", sorted(available_balancers()))
def test_vectorized_matches_loop(name, num_tasks):
    assert_modes_match(name, num_tasks)


@pytest.mark.parametrize("num_tasks", TASK_COUNTS)
def test_mocograd_calibrated_momentum_source(num_tasks):
    assert_modes_match("mocograd", num_tasks, momentum_source="calibrated")


@pytest.mark.parametrize("num_tasks", (2, 8))
def test_mocograd_per_pair_ignores_mode(num_tasks):
    """per_pair momentum mutates mid-loop, so it has no vectorized kernel:
    the reference only swaps the per_step kernel, and both must agree
    exactly."""
    loop = make_balancer("mocograd", "loop", momentum_update="per_pair")
    vectorized = make_balancer("mocograd", "vectorized", momentum_update="per_pair")
    for expected, actual in zip(
        run_trajectory(loop, num_tasks), run_trajectory(vectorized, num_tasks)
    ):
        np.testing.assert_array_equal(actual, expected)


class TestMomentumStateEquivalence:
    @pytest.mark.parametrize("num_tasks", TASK_COUNTS)
    def test_momentum_trajectories_match(self, num_tasks):
        loop = make_balancer("mocograd", "loop")
        vectorized = make_balancer("mocograd", "vectorized")
        run_trajectory(loop, num_tasks)
        run_trajectory(vectorized, num_tasks)
        # Raw-source momentum never reads ĝ: every kernel yields the same bits.
        assert np.array_equal(vectorized.momentum, loop.momentum)

    def test_gradvac_targets_match(self):
        loop = make_balancer("gradvac", "loop")
        vectorized = make_balancer("gradvac", "vectorized")
        run_trajectory(loop, 8)
        run_trajectory(vectorized, 8)
        np.testing.assert_allclose(
            vectorized.similarity_targets,
            loop.similarity_targets,
            rtol=0.0,
            atol=1e-9,
        )


class TestDispatch:
    def test_gradstats_shared_with_balance(self):
        """_check_inputs builds the per-step cache that balance() consumes."""
        balancer = MoCoGrad(seed=0)
        grads = np.random.default_rng(3).normal(size=(4, DIM))
        balancer.balance(grads, np.ones(4))
        assert balancer.gradstats is not None
        assert balancer.gradstats.grads.shape == (4, DIM)


ORACLE_TASK_COUNTS = (2, 4, 8, 9, 16)
ORACLE_STEPS = 30
#: Relative tolerance of the direct Σ ĝ against the full-matrix sum.
DIRECTION_RTOL = 1e-12


def mixed_trajectory(num_tasks: int, steps: int = ORACLE_STEPS, dim: int = 64):
    """``(grads, losses)`` steps around one shared direction: even tasks
    follow it and odd tasks oppose it (conflicting pairs at every K), except
    every fourth step, where all tasks follow it (no conflict at all).

    The last task's gradient is zero for the first two steps, so on step 2
    it conflicts while its momentum is still zero: ``C`` is not symmetric
    there (its column is masked, its row is not)."""
    rng = np.random.default_rng(100 + num_tasks)
    shared = rng.normal(size=dim)
    opposed = np.where(np.arange(num_tasks) % 2 == 0, 1.0, -1.0)[:, None]
    for step in range(steps):
        signs = 1.0 if step % 4 == 3 else opposed
        grads = rng.normal(size=(num_tasks, dim)) + 2.0 * signs * shared
        if step < 2:
            grads[-1] = 0.0
        yield grads, rng.uniform(0.1, 2.0, size=num_tasks)


def mocograd_metrics(telemetry: Telemetry) -> dict:
    """Every MoCoGrad and balancer counter and gauge, keyed by series."""
    return {
        (m["name"], tuple(sorted(m["labels"].items()))): m["value"]
        for m in telemetry.registry.snapshot()
        if m["kind"] in ("counter", "gauge")
        and m["name"].startswith(("mocograd_", "balancer_"))
    }


def calibrations(telemetry: Telemetry) -> float:
    return mocograd_metrics(telemetry).get(("mocograd_calibrations_total", ()), 0.0)


def assert_direct_path_matches(reference_cls, inputs, **kwargs):
    """Replay ``inputs`` through a fresh ``MoCoGrad`` and ``reference_cls``;
    returns the production balancer and the number of steps that applied a
    calibration."""
    direct = MoCoGrad(seed=0, **kwargs)
    direct.telemetry = Telemetry()
    reference = reference_cls(seed=0, **kwargs)
    reference.telemetry = Telemetry()
    beta = direct.beta1
    momentum = 0.0
    calibrated_steps = 0
    for step, (grads, losses) in enumerate(inputs):
        before = calibrations(reference.telemetry)
        expected = reference.balance(grads, losses)
        actual = direct.balance(grads, losses)
        error = np.linalg.norm(actual - expected) / np.linalg.norm(expected)
        assert error <= DIRECTION_RTOL, f"step {step}: relative error {error:.2e}"
        # Eq. (9) in its allocating form: the in-place update keeps its bits.
        momentum = beta * momentum + (1.0 - beta) * grads
        assert np.array_equal(direct.momentum, momentum), f"step {step}"
        assert np.array_equal(reference.momentum, momentum), f"step {step}"
        assert mocograd_metrics(direct.telemetry) == mocograd_metrics(
            reference.telemetry
        ), f"step {step}: counters or gauges differ"
        if calibrations(reference.telemetry) == before:
            assert np.array_equal(actual, np.asarray(grads).sum(axis=0)), f"step {step}"
        else:
            calibrated_steps += 1
    return direct, calibrated_steps


class TestMoCoGradDirectPath:
    """``balance`` sums Eq. (8) from the ``(K,)`` weights, never forming ĝ."""

    @pytest.mark.parametrize("decay", [None, 0.5])
    @pytest.mark.parametrize("reference", [MatrixMoCoGrad, LoopMoCoGrad])
    @pytest.mark.parametrize("num_tasks", ORACLE_TASK_COUNTS)
    def test_matches_oracles(self, num_tasks, reference, decay):
        _, applied = assert_direct_path_matches(
            reference, mixed_trajectory(num_tasks), calibration_decay=decay
        )
        assert applied >= 20

    def test_first_and_aligned_steps_are_bitwise_row_sums(self):
        balancer = MoCoGrad(seed=0)
        for step, (grads, losses) in enumerate(mixed_trajectory(4, steps=8)):
            combined = balancer.balance(grads, losses)
            if step in (0, 3, 7):
                assert np.array_equal(combined, grads.sum(axis=0))
            else:
                assert not np.array_equal(combined, grads.sum(axis=0))

    def test_loop_reference_keeps_its_pair_loop(self, monkeypatch):
        """The loop oracle must not inherit the direct path: its balance
        runs Eq. (8) pair by pair."""
        pairs = []
        original = MoCoGrad._maybe_calibrate

        def spy(self, calibrated, grads, i, j, momentum_j):
            pairs.append((i, j))
            return original(self, calibrated, grads, i, j, momentum_j)

        monkeypatch.setattr(MoCoGrad, "_maybe_calibrate", spy)
        balancer = LoopMoCoGrad(seed=0)
        for grads, losses in mixed_trajectory(3, steps=2):
            balancer.balance(grads, losses)
        assert len(pairs) == 2 * 3 * 2

    @pytest.mark.parametrize("reference", [MatrixMoCoGrad, LoopMoCoGrad])
    def test_trainer_resolves_match(self, reference):
        """Real gradients from ``MTLTrainer``: each step's resolve the
        production balancer sees replays exactly on the oracles."""
        bench = make_synthetic_mtl(
            num_tasks=4, num_samples=192, pairwise_cosine=-0.3, seed=3
        )
        balancer = MoCoGrad(seed=0)
        seen = []
        original = balancer.balance

        def recording(grads, losses):
            seen.append((np.copy(grads), np.copy(losses)))
            return original(grads, losses)

        balancer.balance = recording
        trainer = MTLTrainer(
            bench.build_model("hps", np.random.default_rng(3)),
            bench.tasks,
            balancer,
            seed=3,
            optimizer="sgd",
        )
        trainer.fit(bench.train, epochs=3, batch_size=16)
        assert len(seen) >= 21
        replayed, applied = assert_direct_path_matches(reference, seen)
        assert applied >= 20
        assert np.array_equal(replayed.momentum, balancer.momentum)
