"""Tests for the optimizers (semantics + convergence on quadratics)."""

import numpy as np
import pytest

from repro.nn import Adam, AdaGrad, Parameter, ParameterArena, RMSProp, SGD


def quadratic_step(optimizer_cls, steps=200, **kwargs):
    """Minimize f(θ) = ||θ − 3||² from 0; return the final parameter."""
    param = Parameter(np.zeros(4))
    optimizer = optimizer_cls(ParameterArena([param]), **kwargs)
    for _ in range(steps):
        param.grad[...] = 2.0 * (param.data - 3.0)
        optimizer.step()
    return param.data


class TestSGD:
    def test_single_step_formula(self):
        param = Parameter(np.array([1.0]))
        opt = SGD(ParameterArena([param]), lr=0.1)
        param.grad[...] = np.array([2.0])
        opt.step()
        np.testing.assert_allclose(param.data, [0.8])

    def test_converges_on_quadratic(self):
        final = quadratic_step(SGD, lr=0.1)
        np.testing.assert_allclose(final, np.full(4, 3.0), atol=1e-6)

    def test_momentum_accelerates(self):
        plain = quadratic_step(SGD, steps=10, lr=0.01)
        momentum = quadratic_step(SGD, steps=10, lr=0.01, momentum=0.9)
        assert np.abs(momentum - 3.0).max() < np.abs(plain - 3.0).max()

    def test_momentum_matches_manual_recursion(self):
        param = Parameter(np.array([0.0]))
        opt = SGD(ParameterArena([param]), lr=0.1, momentum=0.5)
        velocity, theta = 0.0, 0.0
        for grad in (1.0, 2.0, -1.0):
            param.grad[...] = np.array([grad])
            opt.step()
            velocity = 0.5 * velocity + grad
            theta -= 0.1 * velocity
            np.testing.assert_allclose(param.data, [theta])

    def test_weight_decay_shrinks(self):
        param = Parameter(np.array([10.0]))
        opt = SGD(ParameterArena([param]), lr=0.1, weight_decay=1.0)
        param.grad[...] = np.array([0.0])
        opt.step()
        np.testing.assert_allclose(param.data, [9.0])

    def test_zero_grad_clears(self):
        param = Parameter(np.array([1.0]))
        opt = SGD(ParameterArena([param]), lr=0.1)
        param.grad[...] = 5.0
        opt.zero_grad()
        np.testing.assert_array_equal(param.grad, [0.0])

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD(ParameterArena([Parameter(np.zeros(1))]), lr=0.0)

    def test_empty_parameters(self):
        with pytest.raises(ValueError, match="empty"):
            SGD(ParameterArena([]), lr=0.1)


class TestAdam:
    def test_first_step_size_is_lr(self):
        """With bias correction, Adam's first step has magnitude ≈ lr."""
        param = Parameter(np.array([0.0]))
        opt = Adam(ParameterArena([param]), lr=0.1)
        param.grad[...] = np.array([1000.0])
        opt.step()
        np.testing.assert_allclose(param.data, [-0.1], rtol=1e-6)

    def test_converges_on_quadratic(self):
        final = quadratic_step(Adam, steps=600, lr=0.05)
        np.testing.assert_allclose(final, np.full(4, 3.0), atol=1e-3)

    def test_matches_reference_implementation(self):
        param = Parameter(np.array([0.5]))
        opt = Adam(ParameterArena([param]), lr=0.01, betas=(0.9, 0.999), eps=1e-8)
        m = v = 0.0
        theta = 0.5
        rng = np.random.default_rng(0)
        for t in range(1, 6):
            grad = float(rng.normal())
            param.grad[...] = np.array([grad])
            opt.step()
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad**2
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            theta -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(param.data, [theta], rtol=1e-12)

    def test_weight_decay(self):
        param = Parameter(np.array([1.0]))
        opt = Adam(ParameterArena([param]), lr=0.1, weight_decay=0.5)
        param.grad[...] = np.array([0.0])
        opt.step()
        assert param.data[0] < 1.0


class TestAdaGrad:
    def test_step_shrinks_with_accumulation(self):
        param = Parameter(np.array([0.0]))
        opt = AdaGrad(ParameterArena([param]), lr=1.0)
        param.grad[...] = np.array([1.0])
        opt.step()
        first = abs(param.data[0])
        previous = param.data.copy()
        param.grad[...] = np.array([1.0])
        opt.step()
        second = abs(param.data[0] - previous[0])
        assert second < first

    def test_converges_on_quadratic(self):
        final = quadratic_step(AdaGrad, steps=800, lr=1.0)
        np.testing.assert_allclose(final, np.full(4, 3.0), atol=1e-2)


class TestRMSProp:
    def test_normalizes_gradient_scale(self):
        """Step size should be roughly lr regardless of gradient magnitude."""
        big = Parameter(np.array([0.0]))
        small = Parameter(np.array([0.0]))
        opt_big = RMSProp(ParameterArena([big]), lr=0.01, alpha=0.0)
        opt_small = RMSProp(ParameterArena([small]), lr=0.01, alpha=0.0)
        big.grad[...] = np.array([1000.0])
        small.grad[...] = np.array([0.001])
        opt_big.step()
        opt_small.step()
        np.testing.assert_allclose(abs(big.data[0]), abs(small.data[0]), rtol=1e-4)

    def test_converges_on_quadratic(self):
        final = quadratic_step(RMSProp, steps=800, lr=0.01)
        np.testing.assert_allclose(final, np.full(4, 3.0), atol=1e-2)


class TestStepCounting:
    def test_step_count_increments(self):
        param = Parameter(np.zeros(1))
        opt = SGD(ParameterArena([param]), lr=0.1)
        for expected in range(1, 4):
            param.grad[...] = np.ones(1)
            opt.step()
            assert opt.step_count == expected
