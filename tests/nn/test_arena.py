"""Tests for the contiguous parameter arena (packing, views, fast paths)."""

import numpy as np
import pytest

from repro.nn import Parameter, ParameterArena, packed_segment
from repro.nn.utils import (
    grad_vector,
    parameter_vector,
    set_grad_from_vector,
    set_parameters_from_vector,
)


def make_params(rng, shapes=((3, 2), (4,), (2, 2, 2))):
    return [Parameter(rng.normal(size=shape)) for shape in shapes]


class TestPacking:
    def test_values_preserved(self, rng):
        params = make_params(rng)
        before = [p.data.copy() for p in params]
        ParameterArena(params)
        for param, value in zip(params, before):
            np.testing.assert_array_equal(param.data, value)

    def test_existing_grads_preserved(self, rng):
        params = make_params(rng)
        params[1].grad = np.full(4, 2.5)
        arena = ParameterArena(params)
        np.testing.assert_array_equal(params[1].grad, np.full(4, 2.5))
        np.testing.assert_array_equal(arena.grad[6:10], np.full(4, 2.5))

    def test_data_and_grad_are_views(self, rng):
        params = make_params(rng)
        arena = ParameterArena(params)
        for param in params:
            assert np.shares_memory(param.data, arena.data)
            assert np.shares_memory(param.grad, arena.grad)
            assert param.grad is not None
            assert param.data.shape == param.grad.shape

    def test_offsets_and_size(self, rng):
        params = make_params(rng)
        arena = ParameterArena(params)
        assert arena.offsets == [0, 6, 10]
        assert arena.size == 18
        assert len(arena) == 3

    def test_writes_go_both_ways(self, rng):
        params = make_params(rng)
        arena = ParameterArena(params)
        params[0].data[...] = 7.0
        np.testing.assert_array_equal(arena.data[:6], np.full(6, 7.0))
        arena.data[6:10] = -1.0
        np.testing.assert_array_equal(params[1].data, np.full(4, -1.0))

    def test_duplicates_collapse(self, rng):
        param = Parameter(rng.normal(size=3))
        arena = ParameterArena([param, param])
        assert len(arena) == 1
        assert arena.size == 3

    def test_double_pack_rejected(self, rng):
        params = make_params(rng)
        ParameterArena(params)
        with pytest.raises(ValueError, match="already packed"):
            ParameterArena(params)

    def test_non_parameter_rejected(self, rng):
        with pytest.raises(TypeError):
            ParameterArena([np.zeros(3)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ParameterArena([])

    def test_unpack_restores_standalone_arrays(self, rng):
        params = make_params(rng)
        arena = ParameterArena(params)
        params[0].data[...] = 5.0
        data, grad = arena.data, arena.grad
        arena.unpack()
        assert arena.data is None and arena.grad is None
        for param in params:
            assert param._arena is None
            assert not np.shares_memory(param.data, data)
            assert not np.shares_memory(param.grad, grad)
        np.testing.assert_array_equal(params[0].data, np.full((3, 2), 5.0))
        # Unpacked parameters may be packed again.
        ParameterArena(params)


class TestZeroGrad:
    def test_arena_zero_grad_is_single_fill(self, rng):
        params = make_params(rng)
        arena = ParameterArena(params)
        arena.grad[:] = 3.0
        arena.zero_grad()
        assert not arena.grad.any()

    def test_packed_param_zero_grad_keeps_view(self, rng):
        params = make_params(rng)
        arena = ParameterArena(params)
        params[0].grad[...] = 1.0
        params[0].zero_grad()
        assert params[0].grad is not None
        assert np.shares_memory(params[0].grad, arena.grad)
        assert not params[0].grad.any()

    def test_unpacked_param_zero_grad_still_drops_array(self, rng):
        param = Parameter(rng.normal(size=3))
        param.grad = np.ones(3)
        param.zero_grad()
        assert param.grad is None


class TestSegments:
    def test_full_segment(self, rng):
        params = make_params(rng)
        arena = ParameterArena(params)
        assert packed_segment(params) == (arena, slice(0, 18))

    def test_prefix_segment(self, rng):
        params = make_params(rng)
        arena = ParameterArena(params)
        assert packed_segment(params[:2]) == (arena, slice(0, 10))
        assert packed_segment(params[1:]) == (arena, slice(6, 18))

    def test_non_contiguous_returns_none(self, rng):
        params = make_params(rng)
        ParameterArena(params)
        assert packed_segment([params[0], params[2]]) is None
        assert packed_segment([params[1], params[0]]) is None

    def test_foreign_parameters_return_none(self, rng):
        params = make_params(rng)
        ParameterArena(params)
        assert packed_segment([Parameter(np.zeros(2))]) is None
        assert packed_segment(params[:1] + [Parameter(np.zeros(2))]) is None
        other = ParameterArena([Parameter(np.zeros(2))])
        assert packed_segment(params[-1:] + other.parameters) is None


class TestVectorFastPaths:
    def test_grad_vector_returns_zero_copy_view(self, rng):
        params = make_params(rng)
        arena = ParameterArena(params)
        arena.grad[:] = np.arange(18.0)
        vec = grad_vector(params)
        assert np.shares_memory(vec, arena.grad)
        np.testing.assert_array_equal(vec, np.arange(18.0))

    def test_grad_vector_bulk_copies_into_out(self, rng):
        params = make_params(rng)
        arena = ParameterArena(params)
        arena.grad[:] = np.arange(18.0)
        out = np.empty(18)
        result = grad_vector(params, out=out)
        assert result is out
        assert not np.shares_memory(out, arena.grad)
        np.testing.assert_array_equal(out, np.arange(18.0))

    def test_grad_vector_out_shape_validated(self, rng):
        params = make_params(rng)
        ParameterArena(params)
        with pytest.raises(ValueError):
            grad_vector(params, out=np.empty(5))

    def test_set_grad_from_vector_bulk_write(self, rng):
        params = make_params(rng)
        arena = ParameterArena(params)
        set_grad_from_vector(params, np.arange(18.0))
        np.testing.assert_array_equal(arena.grad, np.arange(18.0))
        for param in params:
            assert np.shares_memory(param.grad, arena.grad)

    def test_set_grad_from_vector_noncontiguous_keeps_binding(self, rng):
        params = make_params(rng)
        arena = ParameterArena(params)
        # Reversed order defeats the segment fast path but must still write
        # through the arena views rather than rebinding .grad.
        set_grad_from_vector(list(reversed(params)), np.arange(18.0))
        for param in params:
            assert np.shares_memory(param.grad, arena.grad)
        np.testing.assert_array_equal(arena.grad[10:18], np.arange(8.0))

    def test_parameter_vector_is_copy(self, rng):
        params = make_params(rng)
        arena = ParameterArena(params)
        vec = parameter_vector(params)
        assert not np.shares_memory(vec, arena.data)
        np.testing.assert_array_equal(vec, arena.data)

    def test_set_parameters_from_vector_keeps_binding(self, rng):
        """Regression: arena views must survive a flat-vector restore."""
        params = make_params(rng)
        arena = ParameterArena(params)
        set_parameters_from_vector(params, np.arange(18.0))
        np.testing.assert_array_equal(arena.data, np.arange(18.0))
        for param in params:
            assert param._arena is arena
            assert np.shares_memory(param.data, arena.data)


class TestSerializationRoundTrip:
    def test_checkpoint_round_trip_survives_packing(self, rng, tmp_path):
        from repro.arch import HardParameterSharing, LinearHead, MLPEncoder
        from repro.nn import load_checkpoint, save_checkpoint

        model = HardParameterSharing(
            MLPEncoder(4, [6], rng),
            {"a": LinearHead(6, 1, rng), "b": LinearHead(6, 1, rng)},
        )
        arena = ParameterArena(model.parameters())
        before = arena.data.copy()
        path = save_checkpoint(model, tmp_path / "model.npz", {"note": "packed"})
        arena.data[:] = 0.0
        metadata = load_checkpoint(model, path)
        assert metadata == {"note": "packed"}
        np.testing.assert_array_equal(arena.data, before)
        for param in model.parameters():
            assert np.shares_memory(param.data, arena.data)

