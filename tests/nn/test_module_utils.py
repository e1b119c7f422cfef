"""Tests for the Module system and parameter-vector utilities."""

import numpy as np
import pytest

from repro.nn import (
    Linear,
    Module,
    ModuleList,
    Parameter,
    Sequential,
    Tensor,
    clip_grad_norm,
    grad_vector,
    parameter_vector,
    set_grad_from_vector,
    set_parameters_from_vector,
)


class Toy(Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(3, 4, rng)
        self.fc2 = Linear(4, 2, rng)
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.fc2(self.fc1(x).relu()) * self.scale


class TestModule:
    def test_named_parameters_deterministic(self, rng):
        model = Toy(rng)
        names = [name for name, _ in model.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias", "scale"]

    def test_num_parameters(self, rng):
        model = Toy(rng)
        assert model.num_parameters() == 3 * 4 + 4 + 4 * 2 + 2 + 1

    def test_zero_grad(self, rng):
        model = Toy(rng)
        model(Tensor(rng.normal(size=(2, 3)))).sum().backward()
        assert all(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_train_eval_propagates(self, rng):
        model = Sequential(Linear(2, 2, rng))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_state_dict_roundtrip(self, rng):
        model = Toy(rng)
        state = model.state_dict()
        original = model.fc1.weight.data.copy()
        model.fc1.weight.data += 100.0
        model.load_state_dict(state)
        np.testing.assert_allclose(model.fc1.weight.data, original)

    def test_state_dict_is_copy(self, rng):
        model = Toy(rng)
        state = model.state_dict()
        state["fc1.weight"][:] = 0.0
        assert not np.allclose(model.fc1.weight.data, 0.0)

    def test_load_state_dict_rejects_mismatch(self, rng):
        model = Toy(rng)
        with pytest.raises(KeyError):
            model.load_state_dict({"bogus": np.zeros(1)})

    def test_load_state_dict_rejects_wrong_shape(self, rng):
        model = Toy(rng)
        state = model.state_dict()
        state["scale"] = np.zeros(7)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_module_list_traversal(self, rng):
        ml = ModuleList([Linear(2, 2, rng), Linear(2, 2, rng)])
        assert len(ml) == 2
        assert len(ml.parameters()) == 4
        assert ml[0] is list(iter(ml))[0]

    def test_module_list_append(self, rng):
        ml = ModuleList()
        ml.append(Linear(2, 2, rng))
        assert len(ml.parameters()) == 2

    def test_module_list_not_callable(self):
        with pytest.raises(RuntimeError):
            ModuleList()()

    def test_parameters_in_plain_lists_found(self, rng):
        class WithList(Module):
            def __init__(self):
                super().__init__()
                self.items = [Linear(2, 2, rng), Linear(2, 2, rng)]

        assert len(WithList().parameters()) == 4

    def test_dict_of_modules_walked(self, rng):
        class WithDict(Module):
            def __init__(self):
                super().__init__()
                self.heads = {"x": Linear(2, 1, rng), "y": Linear(2, 1, rng)}

        model = WithDict()
        names = [name for name, _ in model.named_parameters()]
        assert names == ["heads.x.weight", "heads.x.bias", "heads.y.weight", "heads.y.bias"]
        assert len(list(model.modules())) == 3

    def test_dict_of_lists_of_module_lists_walked(self, rng):
        class Nested(Module):
            def __init__(self):
                super().__init__()
                self.experts = {
                    "a": [ModuleList([Linear(2, 2, rng)]), ModuleList([Linear(2, 2, rng)])],
                }

        model = Nested()
        names = [name for name, _ in model.named_parameters()]
        assert names == [
            "experts.a.0.0.weight",
            "experts.a.0.0.bias",
            "experts.a.1.0.weight",
            "experts.a.1.0.bias",
        ]
        # self + 2 ModuleLists + 2 Linears
        assert len(list(model.modules())) == 5

    def test_list_of_parameters_walked(self):
        class WithParams(Module):
            def __init__(self):
                super().__init__()
                self.stitches = [Parameter(np.eye(2)), Parameter(np.eye(2))]

        model = WithParams()
        assert [name for name, _ in model.named_parameters()] == ["stitches.0", "stitches.1"]
        assert model.parameters()[1] is model.stitches[1]

    def test_dict_names_follow_insertion_order(self, rng):
        class Ordered(Module):
            def __init__(self):
                super().__init__()
                self.heads = {"zeta": Parameter(np.zeros(1)), "alpha": Parameter(np.zeros(1))}

        assert [name for name, _ in Ordered().named_parameters()] == ["heads.zeta", "heads.alpha"]

    def test_eval_reaches_every_nested_module(self, rng):
        class Nested(Module):
            def __init__(self):
                super().__init__()
                self.blocks = {"a": [ModuleList([Sequential(Linear(2, 2, rng))])]}
                self.plain = (Linear(2, 2, rng),)

        model = Nested()
        everything = list(model.modules())
        assert len(everything) == 6
        model.eval()
        assert not any(module.training for module in everything)
        model.train()
        assert all(module.training for module in everything)

    def test_load_state_dict_casts_to_float64(self, rng):
        """A float32 state must not leave unpacked parameters float32 (an
        arena later refuses to pack them)."""
        from repro.nn import ParameterArena

        model = Toy(rng)
        state = {name: value.astype(np.float32) for name, value in model.state_dict().items()}
        model.load_state_dict(state)
        assert all(param.data.dtype == np.float64 for param in model.parameters())
        np.testing.assert_array_equal(model.fc1.weight.data, state["fc1.weight"])
        ParameterArena(model.parameters())

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestParameterVectors:
    def test_grad_vector_concatenates(self, rng):
        params = [Parameter(np.zeros((2, 2))), Parameter(np.zeros(3))]
        params[0].grad = np.arange(4.0).reshape(2, 2)
        params[1].grad = np.array([4.0, 5.0, 6.0])
        np.testing.assert_allclose(grad_vector(params), np.arange(7.0))

    def test_grad_vector_none_is_zero(self):
        params = [Parameter(np.zeros(3))]
        np.testing.assert_allclose(grad_vector(params), np.zeros(3))

    def test_grad_vector_copies(self):
        param = Parameter(np.zeros(2))
        param.grad = np.ones(2)
        vec = grad_vector([param])
        vec[0] = 99.0
        assert param.grad[0] == 1.0

    def test_set_grad_roundtrip(self, rng):
        params = [Parameter(rng.normal(size=(2, 3))), Parameter(rng.normal(size=5))]
        vector = rng.normal(size=11)
        set_grad_from_vector(params, vector)
        np.testing.assert_allclose(grad_vector(params), vector)

    def test_set_grad_wrong_length_raises(self):
        with pytest.raises(ValueError):
            set_grad_from_vector([Parameter(np.zeros(3))], np.zeros(5))

    def test_parameter_vector_roundtrip(self, rng):
        params = [Parameter(rng.normal(size=(2, 2))), Parameter(rng.normal(size=3))]
        vector = parameter_vector(params)
        set_parameters_from_vector(params, vector * 2)
        np.testing.assert_allclose(parameter_vector(params), vector * 2)

    @pytest.mark.parametrize("bad_size", [5, 11])
    def test_set_parameters_wrong_length_no_partial_write(self, rng, bad_size):
        """Regression: a mismatched vector must not mutate ANY weight.

        The length check used to run only after every parameter had been
        written, so a short (or long) vector partially overwrote the model
        before raising.
        """
        params = [Parameter(rng.normal(size=(2, 2))), Parameter(rng.normal(size=3))]
        before = parameter_vector(params)
        with pytest.raises(ValueError, match="does not match"):
            set_parameters_from_vector(params, np.zeros(bad_size))
        np.testing.assert_array_equal(parameter_vector(params), before)

    def test_clip_grad_norm_scales(self):
        param = Parameter(np.zeros(4))
        param.grad = np.full(4, 3.0)  # norm 6
        pre = clip_grad_norm([param], max_norm=3.0)
        assert pre == pytest.approx(6.0)
        assert np.linalg.norm(param.grad) == pytest.approx(3.0)

    def test_clip_grad_norm_no_clip_needed(self):
        param = Parameter(np.zeros(2))
        param.grad = np.array([0.3, 0.4])
        pre = clip_grad_norm([param], max_norm=10.0)
        assert pre == pytest.approx(0.5)
        np.testing.assert_allclose(param.grad, [0.3, 0.4])

    def test_clip_grad_norm_empty(self):
        assert clip_grad_norm([Parameter(np.zeros(2))], 1.0) == 0.0
