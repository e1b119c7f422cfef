"""Tests for LR schedulers and checkpoint serialization."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.nn import (
    CosineAnnealing,
    InversePower,
    InverseSqrt,
    Linear,
    Parameter,
    ParameterArena,
    SGD,
    StepDecay,
    load_checkpoint,
    load_state,
    save_checkpoint,
)
from repro.nn.layers import Sequential


def make_opt(lr=1.0):
    return SGD(ParameterArena([Parameter(np.zeros(2))]), lr=lr)


class TestStepDecay:
    def test_decays_at_period(self):
        opt = make_opt()
        sched = StepDecay(opt, period=2, gamma=0.5)
        lrs = [sched.step() for _ in range(4)]
        np.testing.assert_allclose(lrs, [1.0, 0.5, 0.5, 0.25])

    def test_validation(self):
        with pytest.raises(ValueError):
            StepDecay(make_opt(), period=0)
        with pytest.raises(ValueError):
            StepDecay(make_opt(), period=1, gamma=0.0)


class TestCosineAnnealing:
    def test_endpoints(self):
        opt = make_opt()
        sched = CosineAnnealing(opt, total_steps=10, min_lr=0.1)
        first = sched.step()
        assert first < 1.0
        for _ in range(9):
            last = sched.step()
        assert last == pytest.approx(0.1)

    def test_monotone_decreasing(self):
        opt = make_opt()
        sched = CosineAnnealing(opt, total_steps=20)
        lrs = [sched.step() for _ in range(20)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_clamped_after_total(self):
        opt = make_opt()
        sched = CosineAnnealing(opt, total_steps=3, min_lr=0.2)
        for _ in range(5):
            last = sched.step()
        assert last == pytest.approx(0.2)


class TestInversePower:
    def test_corollary1_schedule(self):
        """lr_t = base/√t — the Corollary 1 schedule at p = 1/2."""
        opt = make_opt(lr=0.3)
        sched = InverseSqrt(opt)
        lrs = [sched.step() for _ in range(4)]
        np.testing.assert_allclose(lrs, 0.3 / np.sqrt([1, 2, 3, 4]))

    def test_general_power(self):
        opt = make_opt(lr=1.0)
        sched = InversePower(opt, power=1.0)
        lrs = [sched.step() for _ in range(3)]
        np.testing.assert_allclose(lrs, [1.0, 0.5, 1 / 3])

    def test_mutates_optimizer(self):
        opt = make_opt()
        InverseSqrt(opt).step()
        assert opt.lr == pytest.approx(1.0)
        sched = InverseSqrt(opt)
        sched.step()
        sched.step()
        assert opt.lr == pytest.approx(1.0 / np.sqrt(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            InversePower(make_opt(), power=0.0)


class TestBuiltinFloatContract:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda opt: StepDecay(opt, period=2, gamma=0.5),
            lambda opt: CosineAnnealing(opt, total_steps=5, min_lr=0.1),
            lambda opt: InversePower(opt, power=0.7),
            lambda opt: InverseSqrt(opt),
        ],
        ids=["step_decay", "cosine", "inverse_power", "inverse_sqrt"],
    )
    def test_lr_is_builtin_float_after_stepping(self, factory):
        # np.float64 leaking into optimizer.lr ends up in telemetry JSONL,
        # where it is not JSON-serializable.
        opt = make_opt()
        sched = factory(opt)
        for _ in range(3):
            returned = sched.step()
            assert type(returned) is float
            assert type(opt.lr) is float


class TestMoCoGradCalibrationDecay:
    def test_lambda_decays_per_corollary1(self):
        from repro.core import MoCoGrad

        balancer = MoCoGrad(calibration=0.4, calibration_decay=0.5, seed=0)
        balancer.reset(2)
        assert balancer.current_calibration() == pytest.approx(0.4)
        grads = np.array([[1.0, 0.0], [-1.0, 0.1]])
        balancer.balance(grads, np.ones(2))
        assert balancer.current_calibration() == pytest.approx(0.4 / np.sqrt(2))

    def test_constant_by_default(self):
        from repro.core import MoCoGrad

        balancer = MoCoGrad(calibration=0.4, seed=0)
        balancer.reset(2)
        balancer.balance(np.ones((2, 3)), np.ones(2))
        assert balancer.current_calibration() == pytest.approx(0.4)

    def test_validation(self):
        from repro.core import MoCoGrad

        with pytest.raises(ValueError):
            MoCoGrad(calibration_decay=0.0)


class TestSerialization:
    def _model(self, rng):
        return Sequential(Linear(3, 4, rng), Linear(4, 2, rng))

    def test_roundtrip(self, rng, tmp_path):
        model = self._model(rng)
        path = save_checkpoint(model, tmp_path / "model.npz", {"epoch": 7})
        original = {k: v.copy() for k, v in model.state_dict().items()}
        for param in model.parameters():
            param.data += 9.0
        metadata = load_checkpoint(model, path)
        assert metadata == {"epoch": 7}
        for name, value in model.state_dict().items():
            np.testing.assert_allclose(value, original[name])

    def test_suffix_added(self, rng, tmp_path):
        path = save_checkpoint(self._model(rng), tmp_path / "weights")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_load_state_without_model(self, rng, tmp_path):
        model = self._model(rng)
        path = save_checkpoint(model, tmp_path / "m.npz")
        state, metadata = load_state(path)
        assert metadata == {}
        assert set(state) == set(model.state_dict())

    def test_incompatible_model_rejected(self, rng, tmp_path):
        path = save_checkpoint(self._model(rng), tmp_path / "m.npz")
        other = Sequential(Linear(5, 5, rng))
        with pytest.raises(KeyError):
            load_checkpoint(other, path)

    def test_metadata_roundtrip_types(self, rng, tmp_path):
        metadata = {"lr": 0.001, "tags": ["a", "b"], "nested": {"x": 1}}
        path = save_checkpoint(self._model(rng), tmp_path / "m.npz", metadata)
        _, loaded = load_state(path)
        assert loaded == metadata


class TestAtomicCheckpoint:
    """``save_checkpoint`` must never tear the file under its final name."""

    def _model(self, rng):
        return Sequential(Linear(3, 4, rng), Linear(4, 2, rng))

    def test_interrupted_overwrite_keeps_previous_checkpoint(
        self, rng, tmp_path, monkeypatch
    ):
        model = self._model(rng)
        path = save_checkpoint(model, tmp_path / "m.npz", {"epoch": 1})
        good = {k: v.copy() for k, v in model.state_dict().items()}

        # Simulate a crash mid-write: the archiver emits a plausible
        # prefix into its destination stream, then dies.
        def torn_savez(fh, **payload):
            fh.write(b"PK\x03\x04 half a zip archive")
            raise KeyboardInterrupt

        import repro.nn.serialization as serialization

        monkeypatch.setattr(serialization.np, "savez_compressed", torn_savez)
        for param in model.parameters():
            param.data += 1.0
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(model, path, {"epoch": 2})

        # The previous checkpoint is intact and no temp litter remains.
        monkeypatch.undo()
        state, metadata = load_state(path)
        assert metadata == {"epoch": 1}
        for name, value in state.items():
            np.testing.assert_array_equal(value, good[name])
        assert list(tmp_path.iterdir()) == [path]

    def test_interrupted_first_write_leaves_nothing(self, rng, tmp_path, monkeypatch):
        def torn_savez(fh, **payload):
            raise OSError("disk full")

        import repro.nn.serialization as serialization

        monkeypatch.setattr(serialization.np, "savez_compressed", torn_savez)
        with pytest.raises(OSError):
            save_checkpoint(self._model(rng), tmp_path / "fresh.npz")
        assert list(tmp_path.iterdir()) == []

    def test_tmp_file_written_in_destination_directory(self, rng, tmp_path, monkeypatch):
        # Atomicity of os.replace requires same-filesystem temp files.
        seen = {}
        real_replace = os.replace

        def spying_replace(src, dst):
            seen["src"] = src
            return real_replace(src, dst)

        import repro.nn.serialization as serialization

        monkeypatch.setattr(serialization.os, "replace", spying_replace)
        path = save_checkpoint(self._model(rng), tmp_path / "m.npz")
        assert Path(seen["src"]).parent == path.parent
