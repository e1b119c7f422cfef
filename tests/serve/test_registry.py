"""Checkpoint → registry round trips across every buildable architecture."""

import numpy as np
import pytest

from repro.arch.factory import (
    MLP_ARCHITECTURES,
    TABULAR_ARCHITECTURES,
    build_mlp_model,
    build_tabular_model,
)
from repro.nn.tensor import inference_mode
from repro.serve import ModelRegistry, model_spec, save_model

IN_FEATURES = 6
HIDDEN = [8, 5]
TASKS = ["ctr", "ctcvr"]
FIELD_SIZES = [7, 3, 11]


def _perturb(model, rng):
    """Move every parameter off its seeded init so a rebuild alone can't match."""
    for param in model.parameters():
        param.data += rng.standard_normal(param.data.shape)


def _predict(model, x):
    with inference_mode():
        return {task: out.data for task, out in model.forward_all(x).items()}


class TestFactory:
    @pytest.mark.parametrize("architecture", MLP_ARCHITECTURES)
    def test_mlp_builders_are_deterministic(self, architecture):
        a = build_mlp_model(architecture, IN_FEATURES, HIDDEN, TASKS, seed=3)
        b = build_mlp_model(architecture, IN_FEATURES, HIDDEN, TASKS, seed=3)
        for (name_a, val_a), (name_b, val_b) in zip(
            sorted(a.state_dict().items()), sorted(b.state_dict().items())
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(val_a, val_b)

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            build_mlp_model("transformer", IN_FEATURES, HIDDEN, TASKS)
        with pytest.raises(ValueError, match="unknown architecture"):
            build_tabular_model("mtan", FIELD_SIZES, 4, HIDDEN, TASKS)

    def test_empty_hidden_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            build_mlp_model("hps", IN_FEATURES, [], TASKS)
        with pytest.raises(ValueError, match="non-empty"):
            build_tabular_model("hps", FIELD_SIZES, 4, [], TASKS)

    @pytest.mark.parametrize("tasks", [["a", "a"], ["a", "b", "a"]])
    def test_duplicate_tasks_rejected(self, tasks):
        """Specs come from checkpoint metadata: a repeated task must not
        silently collapse into a model with fewer heads."""
        with pytest.raises(ValueError, match="unique"):
            build_mlp_model("hps", IN_FEATURES, HIDDEN, tasks)
        with pytest.raises(ValueError, match="unique"):
            build_tabular_model("hps", FIELD_SIZES, 4, HIDDEN, tasks)

    def test_empty_tasks_rejected(self):
        with pytest.raises(ValueError, match="tasks must be non-empty"):
            build_mlp_model("hps", IN_FEATURES, HIDDEN, [])
        with pytest.raises(ValueError, match="tasks must be non-empty"):
            build_tabular_model("hps", FIELD_SIZES, 4, HIDDEN, [])

    @pytest.mark.parametrize("architecture", TABULAR_ARCHITECTURES)
    def test_aliexpress_models_come_from_tabular_builder(self, architecture):
        """The benchmark's ``build_model`` is the servable tabular spec."""
        from repro.data import make_aliexpress

        bench = make_aliexpress("ES", num_records=60, embedding_dim=4, hidden=(6, 3), seed=5)
        model = bench.build_model(architecture)
        twin = build_tabular_model(
            architecture, (40, 60, 12, 8, 4), 4, (6, 3), ["CTR", "CTCVR"], seed=5
        )
        assert [n for n, _ in model.named_parameters()] == [
            n for n, _ in twin.named_parameters()
        ]
        for (_, a), (_, b) in zip(model.named_parameters(), twin.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)


class TestRoundTrip:
    @pytest.mark.parametrize("architecture", MLP_ARCHITECTURES)
    def test_mlp_checkpoint_roundtrip_bitwise(self, architecture, rng, tmp_path):
        config = dict(
            architecture=architecture,
            in_features=IN_FEATURES,
            hidden=HIDDEN,
            tasks=TASKS,
            seed=1,
        )
        model = build_mlp_model(**config)
        _perturb(model, rng)
        x = rng.standard_normal((5, IN_FEATURES))
        expected = _predict(model, x)

        path = save_model(model, tmp_path / "m.npz", model_spec("mlp", **config))
        restored = ModelRegistry().load(path)
        assert type(restored) is type(model)
        actual = _predict(restored, x)
        assert set(actual) == set(expected)
        for task in expected:
            np.testing.assert_array_equal(actual[task], expected[task])

    @pytest.mark.parametrize("architecture", TABULAR_ARCHITECTURES)
    def test_tabular_checkpoint_roundtrip_bitwise(self, architecture, rng, tmp_path):
        config = dict(
            architecture=architecture,
            field_sizes=FIELD_SIZES,
            embedding_dim=4,
            hidden=HIDDEN,
            tasks=TASKS,
            seed=2,
        )
        model = build_tabular_model(**config)
        _perturb(model, rng)
        x = np.stack(
            [rng.integers(0, size, size=9) for size in FIELD_SIZES], axis=1
        )
        expected = _predict(model, x)

        path = save_model(model, tmp_path / "tab.npz", model_spec("tabular", **config))
        actual = _predict(ModelRegistry().load(path), x)
        for task in expected:
            np.testing.assert_array_equal(actual[task], expected[task])


class TestRegistry:
    def _spec(self):
        return model_spec(
            "mlp",
            architecture="hps",
            in_features=IN_FEATURES,
            hidden=HIDDEN,
            tasks=TASKS,
            seed=0,
        )

    def test_load_caches_by_stem_and_name(self, tmp_path):
        registry = ModelRegistry()
        model = registry.build(self._spec())
        path = save_model(model, tmp_path / "es_model.npz", self._spec())
        registry.load(path)
        assert "es_model" in registry
        registry.load(path, name="ES")
        assert registry.names() == ["ES", "es_model"]
        assert registry.get("ES") is not registry.get("es_model")
        assert len(registry) == 2

    def test_loaded_model_is_eval_mode(self, tmp_path):
        registry = ModelRegistry()
        path = save_model(registry.build(self._spec()), tmp_path / "m", self._spec())
        assert registry.load(path).training is False

    def test_spec_and_metadata_accessors(self, tmp_path):
        registry = ModelRegistry()
        model = registry.build(self._spec())
        path = save_model(model, tmp_path / "m", self._spec(), {"epoch": 12})
        registry.load(path, name="m")
        assert registry.metadata("m") == {"epoch": 12}
        assert registry.spec("m") == self._spec()

    def test_checkpoint_without_spec_rejected(self, tmp_path):
        from repro.nn.serialization import save_checkpoint

        registry = ModelRegistry()
        path = save_checkpoint(registry.build(self._spec()), tmp_path / "bare.npz")
        with pytest.raises(ValueError, match="no model spec"):
            registry.load(path)

    def test_unknown_builder_rejected(self):
        with pytest.raises(KeyError, match="unknown model builder"):
            ModelRegistry().build({"builder": "resnet", "config": {}})

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError, match="unknown model"):
            ModelRegistry().get("nope")

    def test_reserved_metadata_key_rejected(self, tmp_path):
        registry = ModelRegistry()
        model = registry.build(self._spec())
        with pytest.raises(ValueError, match="reserved"):
            save_model(model, tmp_path / "m", self._spec(), {"model": "clash"})

    def test_malformed_spec_rejected(self, tmp_path):
        registry = ModelRegistry()
        model = registry.build(self._spec())
        with pytest.raises(ValueError, match="builder"):
            save_model(model, tmp_path / "m", {"config": {}})

    def test_custom_builder_roundtrip(self, rng, tmp_path):
        from repro.arch import HardParameterSharing, LinearHead, MLPEncoder

        def tiny(width):
            gen = np.random.default_rng(0)
            return HardParameterSharing(
                MLPEncoder(width, [width], gen),
                {"t": LinearHead(width, 1, gen)},
            )

        registry = ModelRegistry()
        registry.register_builder("tiny", tiny)
        model = tiny(3)
        _perturb(model, rng)
        path = save_model(model, tmp_path / "tiny", model_spec("tiny", width=3))
        restored = registry.load(path)
        x = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(
            _predict(restored, x)["t"], _predict(model, x)["t"]
        )

    def test_add_registers_directly(self):
        registry = ModelRegistry()
        model = registry.build(self._spec())
        model.train()
        registry.add("direct", model)
        assert registry.get("direct") is model
        assert model.training is False
        assert registry.spec("direct") == {}
