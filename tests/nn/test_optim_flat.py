"""Flat-vs-loop optimizer equivalence and kernel-selection tests."""

import numpy as np
import pytest

from repro.nn import Adam, AdaGrad, Parameter, ParameterArena, RMSProp, SGD

from ..reference.optim import loop_order, unpacked_copy

OPTIMIZERS = {
    "sgd": (SGD, dict(lr=0.05)),
    "sgd_momentum_wd": (SGD, dict(lr=0.05, momentum=0.9, weight_decay=0.01)),
    "adam": (Adam, dict(lr=0.01)),
    "adam_wd": (Adam, dict(lr=0.01, weight_decay=0.01)),
    "adagrad": (AdaGrad, dict(lr=0.1)),
    "rmsprop": (RMSProp, dict(lr=0.01)),
}

SHAPES = ((5, 3), (7,), (2, 4), (1,))


def make_arena(seed=1):
    rng = np.random.default_rng(seed)
    params = [Parameter(rng.normal(size=shape)) for shape in SHAPES]
    return ParameterArena(params)


class TestFlatLoopEquivalence:
    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_trajectories_bitwise_identical(self, name):
        """Same elementwise op sequence ⇒ bitwise-equal parameters."""
        cls, kwargs = OPTIMIZERS[name]
        arena = make_arena()
        plain = unpacked_copy(arena.parameters)
        optimizers = {"flat": cls(arena, **kwargs), "loop": cls(plain, **kwargs)}
        assert optimizers["flat"].flat and not optimizers["loop"].flat
        grad_rng = np.random.default_rng(7)
        for _ in range(25):
            arena.grad[:] = grad_rng.normal(size=arena.size)
            for packed, param in zip(arena.parameters, plain):
                param.grad = packed.grad.copy()
            for optimizer in optimizers.values():
                optimizer.step()
        loop_data = np.concatenate([param.data.reshape(-1) for param in plain])
        np.testing.assert_array_equal(arena.data, loop_data)

    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_flat_matches_unpacked_loop(self, name):
        """The arena fast path reproduces the plain-parameter optimizer."""
        cls, kwargs = OPTIMIZERS[name]
        rng = np.random.default_rng(3)
        plain = [Parameter(rng.normal(size=shape)) for shape in SHAPES]
        rng = np.random.default_rng(3)
        packed = [Parameter(rng.normal(size=shape)) for shape in SHAPES]
        arena = ParameterArena(packed)
        opt_plain = cls(plain, **kwargs)
        opt_flat = cls(arena, **kwargs)
        assert not opt_plain.flat
        assert opt_flat.flat
        grad_rng = np.random.default_rng(9)
        for _ in range(10):
            for p_plain, p_packed in zip(plain, packed):
                grad = grad_rng.normal(size=p_plain.data.shape)
                p_plain.grad = grad.copy()
                p_packed.grad[...] = grad
            opt_plain.step()
            opt_flat.step()
        for p_plain, p_packed in zip(plain, packed):
            np.testing.assert_array_equal(p_packed.data, p_plain.data)

    def test_flat_state_is_single_vector(self):
        arena = make_arena()
        opt = Adam(arena, lr=0.01)
        assert opt._m_flat.shape == (arena.size,)
        assert opt._v_flat.shape == (arena.size,)


class TestAdamBiasFold:
    def test_matches_textbook_bias_correction(self):
        """Folded scalar step size ≡ m_hat/v_hat form within 1e-12."""
        arena = make_arena(seed=5)
        opt = Adam(arena, lr=0.01, betas=(0.9, 0.999), eps=1e-8)
        reference = arena.data.copy()
        m = np.zeros(arena.size)
        v = np.zeros(arena.size)
        grad_rng = np.random.default_rng(11)
        for t in range(1, 30):
            grad = grad_rng.normal(size=arena.size)
            arena.grad[:] = grad
            opt.step()
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad**2
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            reference -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(arena.data, reference, rtol=1e-12, atol=0)


class TestStepModeDispatch:
    """The kernel follows the parameters: flat for arena segments."""

    def test_auto_is_loop_without_arena(self):
        opt = SGD([Parameter(np.zeros(3))], lr=0.1)
        assert not opt.flat

    def test_auto_is_flat_with_arena(self):
        assert SGD(make_arena(), lr=0.1).flat

    def test_auto_is_flat_for_packed_parameter_list(self):
        arena = make_arena()
        opt = SGD(arena.parameters, lr=0.1)
        assert opt.flat

    def test_flat_on_arena_segment(self):
        """A contiguous sub-list of an arena gets its own flat window."""
        arena = make_arena()
        subset = arena.parameters[:2]
        opt = SGD(subset, lr=0.1)
        assert opt.flat
        dim = sum(p.size for p in subset)
        assert opt._flat_data.shape == (dim,)
        arena.grad[:] = 1.0
        tail_before = arena.data[dim:].copy()
        opt.step()
        np.testing.assert_array_equal(arena.data[dim:], tail_before)
        np.testing.assert_allclose(arena.data[:dim] - (-0.1), make_arena().data[:dim])

    def test_loop_mode_forced_on_arena(self):
        """Packed parameters that form no contiguous segment run the loop
        kernel, which still updates the arena through the views."""
        arena = make_arena()
        opt = SGD(loop_order(arena.parameters), lr=0.1)
        assert not opt.flat
        arena.grad[:] = 1.0
        before = arena.data.copy()
        opt.step()
        np.testing.assert_allclose(arena.data, before - 0.1)

    def test_zero_grad_single_fill_keeps_views(self):
        arena = make_arena()
        opt = SGD(arena, lr=0.1)
        arena.grad[:] = 2.0
        opt.zero_grad()
        assert not arena.grad.any()
        for param in arena.parameters:
            assert np.shares_memory(param.grad, arena.grad)


class TestFlatStepAllocations:
    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_no_d_length_allocations_after_warmup(self, name):
        """The fused step must not allocate gradient-sized temporaries."""
        import tracemalloc

        cls, kwargs = OPTIMIZERS[name]
        rng = np.random.default_rng(0)
        arena = ParameterArena([Parameter(rng.normal(size=(256, 64)))])
        opt = cls(arena, **kwargs)
        arena.grad[:] = rng.normal(size=arena.size)
        for _ in range(3):  # warm up scratch/state
            opt.step()
        d_bytes = arena.size * 8
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        for _ in range(5):
            opt.step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak - baseline < d_bytes // 4, (
            f"flat step allocated {peak - baseline} bytes (d-length is {d_bytes})"
        )
