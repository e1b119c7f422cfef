"""Tests for the five MTL architectures: forward, parameter split, gradients."""

import numpy as np
import pytest

from repro.arch import (
    CGC,
    CrossStitch,
    HardParameterSharing,
    LinearHead,
    MLPEncoder,
    MMoE,
    MTAN,
    VectorAttention,
)
from repro.nn import Linear, ReLU, Sequential, Tensor


def make_hps(rng, tasks=("a", "b")):
    encoder = MLPEncoder(6, [10, 8], rng)
    heads = {t: LinearHead(8, 1, rng) for t in tasks}
    return HardParameterSharing(encoder, heads)


def make_mmoe(rng, tasks=("a", "b")):
    return MMoE(
        lambda: MLPEncoder(6, [10, 8], rng),
        num_experts=3,
        heads={t: LinearHead(8, 1, rng) for t in tasks},
        gate_in_features=6,
        rng=rng,
    )


def make_cross_stitch(rng, tasks=("a", "b")):
    return CrossStitch(
        [
            lambda: Sequential(Linear(6, 10, rng), ReLU()),
            lambda: Sequential(Linear(10, 8, rng), ReLU()),
        ],
        {t: LinearHead(8, 1, rng) for t in tasks},
    )


def make_mtan(rng, tasks=("a", "b")):
    stages = [
        Sequential(Linear(6, 10, rng), ReLU()),
        Sequential(Linear(10, 8, rng), ReLU()),
    ]
    factories = [
        lambda: VectorAttention(10, rng),
        lambda: VectorAttention(8, rng, previous_dim=10),
    ]
    return MTAN(stages, factories, {t: LinearHead(8, 1, rng) for t in tasks})


def make_cgc(rng, tasks=("a", "b")):
    return CGC(
        lambda: MLPEncoder(6, [10, 8], rng),
        num_shared_experts=2,
        num_task_experts=1,
        heads={t: LinearHead(8, 1, rng) for t in tasks},
        gate_in_features=6,
        rng=rng,
    )


FACTORIES = {
    "hps": make_hps,
    "mmoe": make_mmoe,
    "cross_stitch": make_cross_stitch,
    "mtan": make_mtan,
    "cgc": make_cgc,
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
class TestCommonBehaviour:
    def test_forward_all_shapes(self, name, rng):
        model = FACTORIES[name](rng)
        outputs = model.forward_all(Tensor(rng.normal(size=(5, 6))))
        assert set(outputs) == {"a", "b"}
        assert all(out.shape == (5,) for out in outputs.values())

    def test_forward_single_matches_forward_all(self, name, rng):
        model = FACTORIES[name](rng)
        x = Tensor(rng.normal(size=(4, 6)))
        all_outputs = model.forward_all(x)
        single = model.forward(x, "a")
        np.testing.assert_allclose(single.data, all_outputs["a"].data)

    def test_unknown_task_raises(self, name, rng):
        model = FACTORIES[name](rng)
        with pytest.raises(KeyError):
            model.forward(Tensor(rng.normal(size=(2, 6))), "missing")

    def test_parameter_partition_is_disjoint_and_complete(self, name, rng):
        model = FACTORIES[name](rng)
        shared = {id(p) for p in model.shared_parameters()}
        task_a = {id(p) for p in model.task_specific_parameters("a")}
        task_b = {id(p) for p in model.task_specific_parameters("b")}
        every = {id(p) for p in model.parameters()}
        assert shared.isdisjoint(task_a)
        assert shared.isdisjoint(task_b)
        assert task_a.isdisjoint(task_b)
        assert shared | task_a | task_b == every

    def test_shared_parameters_receive_gradient_from_each_task(self, name, rng):
        model = FACTORIES[name](rng)
        x = Tensor(rng.normal(size=(4, 6)))
        for task in ("a", "b"):
            model.zero_grad()
            (model.forward(x, task) ** 2).sum().backward()
            grads = [p.grad for p in model.shared_parameters()]
            assert any(g is not None and np.abs(g).sum() > 0 for g in grads), (name, task)

    def test_other_tasks_parameters_untouched(self, name, rng):
        model = FACTORIES[name](rng)
        x = Tensor(rng.normal(size=(4, 6)))
        model.zero_grad()
        (model.forward(x, "a") ** 2).sum().backward()
        for param in model.task_specific_parameters("b"):
            assert param.grad is None

    def test_state_dict_roundtrip(self, name, rng):
        model = FACTORIES[name](rng)
        state = model.state_dict()
        x = Tensor(rng.normal(size=(3, 6)))
        before = model.forward(x, "a").data.copy()
        for param in model.parameters():
            param.data = param.data + 1.0
        model.load_state_dict(state)
        np.testing.assert_allclose(model.forward(x, "a").data, before)

    def test_duplicate_task_names_rejected(self, name, rng):
        from repro.arch.base import MTLModel

        with pytest.raises(ValueError):
            MTLModel(["a", "a"])


SHARED_FEATURE_ARCHS = ("hps", "mmoe", "cross_stitch", "cgc")


class TestSharedFeatureCut:
    """Contract backing ``MTLTrainer(grad_space="features")``: the cut must
    reconstruct forward_all exactly and every shared parameter must lie
    strictly upstream of it."""

    @pytest.mark.parametrize("name", SHARED_FEATURE_ARCHS)
    def test_forward_heads_matches_forward_all(self, name, rng):
        model = FACTORIES[name](rng)
        x = Tensor(rng.normal(size=(4, 6)))
        outputs = model.forward_heads(model.shared_features(x), x)
        reference = model.forward_all(x)
        for task in ("a", "b"):
            np.testing.assert_allclose(outputs[task].data, reference[task].data)

    @pytest.mark.parametrize("name", SHARED_FEATURE_ARCHS)
    def test_every_shared_parameter_upstream_of_cut(self, name, rng):
        model = FACTORIES[name](rng)
        x = Tensor(rng.normal(size=(4, 6)))
        model.zero_grad()
        features = model.shared_features(x)
        features.backward(np.ones(features.shape))
        for param in model.shared_parameters():
            assert param.grad is not None and np.abs(param.grad).sum() > 0

    def test_mtan_has_no_single_cut(self, rng):
        model = make_mtan(rng)
        with pytest.raises(NotImplementedError):
            model.shared_features(Tensor(rng.normal(size=(2, 6))))
        with pytest.raises(NotImplementedError):
            model.forward_heads(Tensor(rng.normal(size=(2, 8))))

    @pytest.mark.parametrize("name", ("mmoe", "cgc"))
    def test_gated_archs_need_raw_input_for_heads(self, name, rng):
        model = FACTORIES[name](rng)
        features = model.shared_features(Tensor(rng.normal(size=(3, 6))))
        with pytest.raises(ValueError, match="raw input"):
            model.forward_heads(features)


class TestHPSSpecific:
    def test_shared_features_exposed(self, rng):
        model = make_hps(rng)
        features = model.shared_features(Tensor(rng.normal(size=(3, 6))))
        assert features.shape == (3, 8)

    def test_forward_heads_on_detached_features(self, rng):
        model = make_hps(rng)
        x = Tensor(rng.normal(size=(3, 6)))
        features = model.shared_features(x)
        outputs = model.forward_heads(Tensor(features.data))
        reference = model.forward_all(x)
        np.testing.assert_allclose(outputs["a"].data, reference["a"].data)

    def test_encoder_is_exactly_shared(self, rng):
        model = make_hps(rng)
        assert len(model.shared_parameters()) == len(model.encoder.parameters())


class TestMMoESpecific:
    def test_gate_mixes_experts(self, rng):
        """Zeroing a gate's logits yields the uniform expert mixture."""
        model = make_mmoe(rng)
        x = Tensor(rng.normal(size=(4, 6)))
        gate = model.gates["a"]
        gate.weight.data[:] = 0.0
        gate.bias.data[:] = 0.0
        expert_outputs = [expert(x) for expert in model.experts]
        mixed = model._mix_stacked(x, "a", model.shared_features(x))
        uniform = sum(e.data for e in expert_outputs) / len(expert_outputs)
        np.testing.assert_allclose(mixed.data, uniform)

    def test_expert_count(self, rng):
        model = make_mmoe(rng)
        assert len(model.experts) == 3

    def test_invalid_expert_count(self, rng):
        with pytest.raises(ValueError):
            MMoE(lambda: MLPEncoder(6, [8], rng), 0, {"a": LinearHead(8, 1, rng)}, 6, rng)


class TestCrossStitchSpecific:
    def test_identity_stitch_decouples_columns(self, rng):
        """With identity stitch matrices each task only sees its own column."""
        model = CrossStitch(
            [lambda: Sequential(Linear(6, 8, rng), ReLU())],
            {t: LinearHead(8, 1, rng) for t in ("a", "b")},
            stitch_self_weight=1.0,
        )
        for stitch in model.stitches:
            stitch.data[:] = np.eye(2)
        x = Tensor(rng.normal(size=(3, 6)))
        column_out = model.columns["a"][0](x)
        full = model._trunk(x)["a"]
        np.testing.assert_allclose(full.data, column_out.data)

    def test_stitch_initialization(self, rng):
        model = make_cross_stitch(rng)
        stitch = model.stitches[0].data
        np.testing.assert_allclose(np.diag(stitch), [0.9, 0.9])
        np.testing.assert_allclose(stitch.sum(axis=1), [1.0, 1.0])

    def test_columns_coupled_through_stitch(self, rng):
        """Task b's loss reaches task a's column parameters."""
        model = make_cross_stitch(rng)
        x = Tensor(rng.normal(size=(3, 6)))
        model.zero_grad()
        (model.forward(x, "b") ** 2).sum().backward()
        a_column_grads = [p.grad for p in model.columns["a"].parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in a_column_grads)

    def test_invalid_stitch_weight(self, rng):
        with pytest.raises(ValueError):
            CrossStitch([lambda: Linear(2, 2, rng)], {"a": LinearHead(2, 1, rng)}, 0.0)


class TestMTANSpecific:
    def test_attention_masks_bounded(self, rng):
        attention = VectorAttention(4, rng)
        stage_out = Tensor(rng.normal(size=(3, 4)))
        attended = attention(stage_out, stage_out)
        ratio = attended.data / np.where(stage_out.data == 0, 1.0, stage_out.data)
        assert np.all(ratio >= -1e-9) and np.all(ratio <= 1.0 + 1e-9)

    def test_mismatched_factories_rejected(self, rng):
        with pytest.raises(ValueError):
            MTAN(
                [Sequential(Linear(6, 8, rng))],
                [],
                {"a": LinearHead(8, 1, rng)},
            )

    def test_backbone_is_exactly_shared(self, rng):
        model = make_mtan(rng)
        assert len(model.shared_parameters()) == len(model.backbone.parameters())


class TestCGCSpecific:
    def test_private_experts_isolated(self, rng):
        """Task a's loss never reaches task b's private experts."""
        model = make_cgc(rng)
        x = Tensor(rng.normal(size=(4, 6)))
        model.zero_grad()
        (model.forward(x, "a") ** 2).sum().backward()
        for param in model.task_experts["b"].parameters():
            assert param.grad is None

    def test_shared_experts_reached_by_both(self, rng):
        model = make_cgc(rng)
        x = Tensor(rng.normal(size=(4, 6)))
        for task in ("a", "b"):
            model.zero_grad()
            (model.forward(x, task) ** 2).sum().backward()
            grads = [p.grad for p in model.shared_experts.parameters()]
            assert any(g is not None and np.abs(g).sum() > 0 for g in grads)

    def test_invalid_expert_counts(self, rng):
        with pytest.raises(ValueError):
            CGC(lambda: MLPEncoder(6, [8], rng), 0, 1, {"a": LinearHead(8, 1, rng)}, 6, rng)
