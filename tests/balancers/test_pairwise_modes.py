"""Vectorized pairwise kernels vs their per-pair loop references.

The vectorized kernels must be a pure performance change: for every
registered balancer, every task count, and every step of a multi-step
trajectory, the production balancer must reproduce its loop reference
(``tests/reference/balancers.py``; balancers without a pairwise kernel
are compared against a second instance of themselves) — outputs to within
fp tolerance and telemetry counters *bitwise identical*.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.balancers  # noqa: F401 - triggers registration
from repro.core import available_balancers, create_balancer
from repro.core.mocograd import MoCoGrad
from repro.obs import Telemetry

from ..reference.balancers import LOOP_KERNELS

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
        np.testing.assert_allclose(
            vectorized.momentum, loop.momentum, rtol=0.0, atol=1e-9
        )

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
