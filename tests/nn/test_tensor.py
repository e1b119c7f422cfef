"""Tests for the autograd engine: op semantics, gradients, graph behaviour."""

import gc

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, concat, is_grad_enabled, no_grad, stack, where
from repro.nn.tensor import unbroadcast

from ..conftest import assert_gradcheck


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64
        assert not t.requires_grad

    def test_scalar_item(self):
        assert Tensor(2.5).item() == 2.5

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_wraps_scalar(self):
        t = as_tensor(3.0)
        assert isinstance(t, Tensor)
        assert t.item() == 3.0

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad
        assert y.is_leaf

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_numpy_shares_data(self):
        t = Tensor([1.0, 2.0])
        t.numpy()[0] = 9.0
        assert t.data[0] == 9.0


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_radd_with_scalar(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_allclose((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_broadcast(self):
        out = Tensor(np.ones((2, 3))) * Tensor([1.0, 2.0, 3.0])
        np.testing.assert_allclose(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_div_and_rdiv(self):
        np.testing.assert_allclose((Tensor([6.0]) / 2.0).data, [3.0])
        np.testing.assert_allclose((6.0 / Tensor([2.0])).data, [3.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow_scalar_only(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_rmatmul_ndarray_left(self):
        a = np.ones((2, 3))
        out = a @ Tensor(np.ones((3, 2)), requires_grad=True)
        assert out.shape == (2, 2)
        assert out.requires_grad

    def test_comparisons_return_masks(self):
        mask = Tensor([1.0, -1.0]) > 0
        assert isinstance(mask, np.ndarray)
        np.testing.assert_array_equal(mask, [True, False])


class TestGradients:
    def test_add_grad(self, rng):
        assert_gradcheck(lambda x: (x + 2.0).sum(), rng.normal(size=(3, 2)))

    def test_mul_grad(self, rng):
        c = Tensor(rng.normal(size=(3, 2)))
        assert_gradcheck(lambda x: (x * c).sum(), rng.normal(size=(3, 2)))

    def test_div_grad_numerator(self, rng):
        c = Tensor(rng.normal(size=(3,)) + 3.0)
        assert_gradcheck(lambda x: (x / c).sum(), rng.normal(size=(3,)))

    def test_div_grad_denominator(self, rng):
        c = Tensor(rng.normal(size=(3,)))
        assert_gradcheck(lambda x: (c / x).sum(), rng.normal(size=(3,)) + 2.0)

    def test_pow_grad(self, rng):
        assert_gradcheck(lambda x: (x**3).sum(), rng.normal(size=(4,)))

    def test_matmul_grad_left(self, rng):
        b = Tensor(rng.normal(size=(3, 2)))
        assert_gradcheck(lambda x: ((x @ b) ** 2).sum(), rng.normal(size=(4, 3)), tol=1e-5)

    def test_matmul_grad_right(self, rng):
        a = Tensor(rng.normal(size=(4, 3)))
        assert_gradcheck(lambda x: ((a @ x) ** 2).sum(), rng.normal(size=(3, 2)), tol=1e-5)

    def test_matmul_grad_batched(self, rng):
        b = Tensor(rng.normal(size=(2, 3, 4)))
        assert_gradcheck(lambda x: ((x @ b) ** 2).sum(), rng.normal(size=(2, 5, 3)), tol=1e-4)

    def test_matmul_grad_broadcast_left(self, rng):
        # (2D) @ (3D batched): left operand broadcasts over the batch.
        b = Tensor(rng.normal(size=(3, 4, 5)))
        assert_gradcheck(lambda x: ((x @ b) ** 2).sum(), rng.normal(size=(2, 4)), tol=1e-4)

    def test_matmul_vector_right(self, rng):
        v = Tensor(rng.normal(size=(3,)))
        assert_gradcheck(lambda x: ((x @ v) ** 2).sum(), rng.normal(size=(4, 3)), tol=1e-5)

    def test_exp_grad(self, rng):
        assert_gradcheck(lambda x: x.exp().sum(), rng.normal(size=(3,)))

    def test_log_grad(self, rng):
        assert_gradcheck(lambda x: x.log().sum(), rng.random(3) + 0.5)

    def test_sqrt_grad(self, rng):
        assert_gradcheck(lambda x: x.sqrt().sum(), rng.random(3) + 0.5)

    def test_tanh_grad(self, rng):
        assert_gradcheck(lambda x: x.tanh().sum(), rng.normal(size=(3,)))

    def test_sigmoid_grad(self, rng):
        assert_gradcheck(lambda x: x.sigmoid().sum(), rng.normal(size=(3,)))

    def test_relu_grad(self, rng):
        x0 = rng.normal(size=(5,))
        x0[np.abs(x0) < 0.1] = 0.5  # avoid the kink
        assert_gradcheck(lambda x: x.relu().sum(), x0)

    def test_leaky_relu_grad(self, rng):
        x0 = rng.normal(size=(5,))
        x0[np.abs(x0) < 0.1] = 0.5
        assert_gradcheck(lambda x: x.leaky_relu(0.1).sum(), x0)

    def test_abs_grad(self, rng):
        x0 = rng.normal(size=(5,))
        x0[np.abs(x0) < 0.1] = 0.5
        assert_gradcheck(lambda x: x.abs().sum(), x0)

    def test_clip_grad(self, rng):
        assert_gradcheck(lambda x: x.clip(-0.5, 0.5).sum(), rng.normal(size=(6,)) * 2)

    def test_sum_axis_grad(self, rng):
        assert_gradcheck(lambda x: (x.sum(axis=0) ** 2).sum(), rng.normal(size=(3, 4)))

    def test_sum_keepdims_grad(self, rng):
        assert_gradcheck(
            lambda x: (x.sum(axis=1, keepdims=True) ** 2).sum(), rng.normal(size=(3, 4))
        )

    def test_mean_grad(self, rng):
        assert_gradcheck(lambda x: (x.mean(axis=(0, 2)) ** 2).sum(), rng.normal(size=(2, 3, 4)))

    def test_max_grad(self, rng):
        x0 = rng.normal(size=(3, 4))
        assert_gradcheck(lambda x: x.max(axis=1).sum(), x0)

    def test_max_splits_ties(self):
        x = Tensor([[1.0, 1.0, 0.0]], requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5, 0.0]])

    def test_min_grad(self, rng):
        assert_gradcheck(lambda x: x.min(axis=0).sum(), rng.normal(size=(3, 4)))

    def test_reshape_grad(self, rng):
        assert_gradcheck(lambda x: (x.reshape(6) ** 2).sum(), rng.normal(size=(2, 3)))

    def test_flatten(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert x.flatten(1).shape == (2, 12)
        assert x.flatten().shape == (24,)

    def test_transpose_grad(self, rng):
        assert_gradcheck(
            lambda x: (x.transpose(1, 0, 2) ** 2).sum(), rng.normal(size=(2, 3, 4))
        )

    def test_T_property(self, rng):
        x = Tensor(rng.normal(size=(2, 3)))
        assert x.T.shape == (3, 2)

    def test_getitem_grad(self, rng):
        assert_gradcheck(lambda x: (x[1] ** 2).sum(), rng.normal(size=(3, 4)))

    def test_getitem_fancy_grad(self, rng):
        idx = np.array([0, 2, 2])
        assert_gradcheck(lambda x: (x[idx] ** 2).sum(), rng.normal(size=(3, 4)))

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        x[np.array([0, 0])].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0])

    def test_broadcast_add_grad_shapes(self, rng):
        a = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 1)
        assert b.grad.shape == (1, 4)
        np.testing.assert_allclose(a.grad, np.full((3, 1), 4.0))
        np.testing.assert_allclose(b.grad, np.full((1, 4), 3.0))


class TestFreeFunctions:
    def test_concat_values_and_grad(self, rng):
        a0, b0 = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        out = concat([a, b], axis=0)
        np.testing.assert_allclose(out.data, np.concatenate([a0, b0]))
        (out**2).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a0)
        np.testing.assert_allclose(b.grad, 2 * b0)

    def test_concat_axis1(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 1)), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 4)
        out.sum().backward()
        assert a.grad.shape == (2, 3)

    def test_stack_values_and_grad(self, rng):
        a0, b0 = rng.normal(size=(3,)), rng.normal(size=(3,))
        a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        (out * out).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a0)

    def test_where_grad(self, rng):
        cond = np.array([True, False, True])
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])


class TestGraphBehaviour:
    def test_multiple_backward_no_double_count(self, rng):
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 4)))
        z = (x @ w).relu()
        loss1 = (z * z).sum()
        loss2 = z.sum()
        loss1.backward()
        first = w.grad.copy()
        w.zero_grad()
        loss2.backward()
        w.zero_grad()
        # Re-running loss1 backward must reproduce the original gradient.
        loss1_fresh = ((x @ w).relu() ** 2).sum()
        loss1_fresh.backward()
        np.testing.assert_allclose(first, w.grad)

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3).sum().backward()
        (x * 3).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_intermediate_nodes_keep_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2
        (y * 3).sum().backward()
        assert y.grad is None

    def test_retain_grad_on_intermediate(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * 2).retain_grad()
        (y**2).sum().backward()
        np.testing.assert_allclose(y.grad, 2 * y.data)

    def test_diamond_graph_grad(self):
        # f = (x*2) + (x*3); df/dx = 5
        x = Tensor([1.0], requires_grad=True)
        ((x * 2) + (x * 3)).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_shape_mismatch_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            x.backward(np.ones(3))

    def test_no_grad_disables_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        try:
            with no_grad():
                raise ValueError
        except ValueError:
            pass
        assert is_grad_enabled()

    def test_non_scalar_backward_with_explicit_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        y = x * 2
        upstream = rng.normal(size=(2, 3))
        y.backward(upstream)
        np.testing.assert_allclose(x.grad, 2 * upstream)

    def test_graphs_are_freed_without_the_cycle_collector(self, rng):
        # A node must not reference itself (e.g. through a backward closure
        # capturing its own output), or every training graph would wait for
        # the cyclic garbage collector instead of dying with its last name.
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = rng.normal(size=(5, 4))
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                h = Tensor(x) @ w
                loss = (h.tanh().sigmoid() + h.exp()).sum()
                loss.backward()
                del h, loss
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_leading_axis_sum(self):
        g = np.ones((4, 2, 3))
        np.testing.assert_allclose(unbroadcast(g, (2, 3)), np.full((2, 3), 4.0))

    def test_keepdim_axis_sum(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(g, (2, 1)), np.full((2, 1), 3.0))

    def test_scalar_target(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(g, ()), 6.0)
