"""Arena kernels vs the per-parameter loop reference, and the arena-only API."""

import numpy as np
import pytest

from repro.nn import Adam, AdaGrad, Parameter, ParameterArena, RMSProp, SGD

from ..reference.optim import LOOP_KERNELS, LoopAdam, unpacked_copy

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
        optimizers = {"flat": cls(arena, **kwargs), "loop": LOOP_KERNELS[cls](plain, **kwargs)}
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
        """The arena kernel reproduces the plain-parameter loop reference."""
        cls, kwargs = OPTIMIZERS[name]
        rng = np.random.default_rng(3)
        plain = [Parameter(rng.normal(size=shape)) for shape in SHAPES]
        rng = np.random.default_rng(3)
        packed = [Parameter(rng.normal(size=shape)) for shape in SHAPES]
        arena = ParameterArena(packed)
        opt_plain = LOOP_KERNELS[cls](plain, **kwargs)
        opt_flat = cls(arena, **kwargs)
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
        assert opt._m.shape == (arena.size,)
        assert opt._v.shape == (arena.size,)


class TestAdamBiasFold:
    def test_matches_textbook_bias_correction(self):
        """Folded scalar step size ≡ m_hat/v_hat form within 1e-12."""
        arena = make_arena(seed=5)
        plain = unpacked_copy(arena.parameters)
        opt = Adam(arena, lr=0.01, betas=(0.9, 0.999), eps=1e-8)
        loop = LoopAdam(plain, lr=0.01, betas=(0.9, 0.999), eps=1e-8)
        reference = arena.data.copy()
        m = np.zeros(arena.size)
        v = np.zeros(arena.size)
        grad_rng = np.random.default_rng(11)
        for t in range(1, 30):
            grad = grad_rng.normal(size=arena.size)
            arena.grad[:] = grad
            for packed, param in zip(arena.parameters, plain):
                param.grad = packed.grad.copy()
            opt.step()
            loop.step()
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad**2
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            reference -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(arena.data, reference, rtol=1e-12, atol=0)
            loop_data = np.concatenate([param.data.reshape(-1) for param in plain])
            np.testing.assert_array_equal(loop_data, arena.data)


class TestArenaOnly:
    """Optimizers step a ParameterArena and nothing else."""

    @pytest.mark.parametrize(
        "wrap",
        [
            pytest.param(lambda arena: [Parameter(np.zeros(3))], id="plain_list"),
            pytest.param(lambda arena: arena.parameters[:2], id="packed_sublist"),
            pytest.param(lambda arena: tuple(arena.parameters), id="tuple"),
        ],
    )
    def test_non_arena_rejected(self, wrap):
        for cls in (SGD, Adam, AdaGrad, RMSProp):
            with pytest.raises(TypeError, match=r"ParameterArena\(params\)"):
                cls(wrap(make_arena()), lr=0.1)

    def test_zero_grad_single_fill_keeps_views(self):
        arena = make_arena()
        opt = SGD(arena, lr=0.1)
        arena.grad[:] = 2.0
        opt.zero_grad()
        assert not arena.grad.any()
        for param in arena.parameters:
            assert np.shares_memory(param.grad, arena.grad)

    def test_step_raises_after_unpack(self):
        """A stale optimizer must not keep updating detached buffers while
        the parameters it was built for stand still."""
        for cls, kwargs in OPTIMIZERS.values():
            arena = make_arena()
            opt = cls(arena, **kwargs)
            arena.grad[:] = 1.0
            opt.step()
            arena.unpack()
            with pytest.raises(RuntimeError, match="unpacked"):
                opt.step()
            with pytest.raises(RuntimeError, match="unpacked"):
                opt.zero_grad()
            assert opt.step_count == 1


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
