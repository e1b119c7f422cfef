"""Arena-backed trainer: flat-vs-loop equivalence across the whole stack.

The acceptance bar for the parameter arena: for every registered optimizer,
every architecture and both collect stages (multi-root and the per-task
reference), training with the fused arena optimizer step must reproduce the
per-parameter loop reference bitwise — including telemetry counters — and the
arena must survive checkpoint restores and flat-vector parameter writes.
"""

import numpy as np
import pytest

from repro.balancers import EqualWeighting
from repro.data import TaskSpec
from repro.nn import ParameterArena, packed_segment
from repro.nn.functional import mse_loss
from repro.nn.utils import parameter_vector, set_parameters_from_vector
from repro.obs import Telemetry
from repro.training import MTLTrainer

from ..arch.test_architectures import FACTORIES
from ..arch.test_ple import make_ple
from ..reference.optim import TRAINER_OPTIMIZERS
from ..reference.trainer import TRAINERS

ALL_FACTORIES = dict(FACTORIES, ple=make_ple)
OPTIMIZERS = ("sgdm", "adam", "adagrad", "rmsprop")
LR = 1e-2


def make_tasks(names=("a", "b")):
    return [TaskSpec(name, mse_loss, {}, {}) for name in names]


def make_batch(rng, n=12):
    x = rng.normal(size=(n, 6))
    targets = {"a": rng.normal(size=n), "b": rng.normal(size=n)}
    return x, targets


def build_trainer(
    name, telemetry=None, backward_mode="multi_root", kernel="flat", optimizer="adam", **kwargs
):
    """A trainer whose optimizer runs the arena kernel or the loop reference."""
    model = ALL_FACTORIES[name](np.random.default_rng(5))
    trainer = TRAINERS[backward_mode](
        model,
        make_tasks(),
        EqualWeighting(),
        seed=0,
        lr=LR,
        optimizer=optimizer,
        telemetry=telemetry if telemetry is not None else Telemetry(),
        **kwargs,
    )
    if kernel == "loop":
        trainer.optimizer = TRAINER_OPTIMIZERS[optimizer](model.parameters(), lr=LR)
    return trainer


def counter_snapshots(telemetry):
    """All counter values, keyed by (name, labels) — for bitwise comparison."""
    return {
        (snap["name"], tuple(sorted(snap["labels"].items()))): snap["value"]
        for snap in telemetry.registry.snapshot()
        if snap["kind"] == "counter"
    }


def run_steps(trainer, steps=3):
    x, targets = make_batch(np.random.default_rng(1))
    for _ in range(steps):
        trainer.train_step_single(x, targets)
    return parameter_vector(trainer.model.parameters())


class TestFlatLoopTrainingEquivalence:
    @pytest.mark.parametrize("backward_mode", ["multi_root", "per_task"])
    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    @pytest.mark.parametrize("arch", sorted(ALL_FACTORIES))
    def test_trajectory_and_counters_identical(self, arch, optimizer, backward_mode):
        finals, counters = {}, {}
        for kernel in ("loop", "flat"):
            telemetry = Telemetry()
            trainer = build_trainer(
                arch,
                telemetry=telemetry,
                optimizer=optimizer,
                backward_mode=backward_mode,
                kernel=kernel,
            )
            finals[kernel] = run_steps(trainer)
            counters[kernel] = counter_snapshots(telemetry)
        np.testing.assert_array_equal(finals["flat"], finals["loop"])
        assert counters["flat"] == counters["loop"]

    def test_feature_grad_space_flat_matches_loop(self):
        finals = {}
        for kernel in ("loop", "flat"):
            trainer = build_trainer("hps", grad_space="features", kernel=kernel)
            finals[kernel] = run_steps(trainer)
        np.testing.assert_array_equal(finals["flat"], finals["loop"])


class TestTrainerArenaWiring:
    def test_shared_partition_is_contiguous_prefix(self):
        trainer = build_trainer("hps")
        shared = trainer.model.shared_parameters()
        assert trainer.arena is not None
        assert packed_segment(shared) == (trainer.arena, slice(0, sum(p.size for p in shared)))

    def test_optimizer_defaults_to_flat_over_whole_arena(self):
        trainer = build_trainer("cgc")
        assert trainer.optimizer.arena is trainer.arena
        assert trainer.optimizer._scratch_a.size == trainer.arena.size

    def test_second_trainer_reuses_existing_arena(self):
        trainer = build_trainer("hps")
        second = MTLTrainer(
            trainer.model, make_tasks(), EqualWeighting(), seed=0, telemetry=Telemetry()
        )
        assert second.arena is trainer.arena

    def test_partly_packed_model_rejected(self):
        """A model half-packed into a foreign arena cannot be repacked
        without detaching that arena's live views: name the fix."""
        model = ALL_FACTORIES["hps"](np.random.default_rng(5))
        params = model.parameters()
        foreign = ParameterArena(params[: len(params) // 2])
        with pytest.raises(ValueError, match=r"unpack\(\)"):
            MTLTrainer(model, make_tasks(), EqualWeighting(), seed=0)
        foreign.unpack()
        assert MTLTrainer(model, make_tasks(), EqualWeighting(), seed=0).arena is not None

    def test_arena_rebinding_after_set_parameters_from_vector(self):
        trainer = build_trainer("hps")
        params = trainer.model.parameters()
        replacement = np.arange(float(trainer.arena.size))
        set_parameters_from_vector(params, replacement)
        np.testing.assert_array_equal(trainer.arena.data, replacement)
        # Training still drives the packed buffers afterwards.
        run_steps(trainer, steps=1)
        assert not np.array_equal(trainer.arena.data, replacement)
        for param in params:
            assert np.shares_memory(param.data, trainer.arena.data)

    def test_checkpoint_round_trip_through_trainer(self, tmp_path):
        from repro.nn import load_checkpoint, save_checkpoint

        trainer = build_trainer("hps")
        run_steps(trainer, steps=1)
        snapshot = parameter_vector(trainer.model.parameters())
        path = save_checkpoint(trainer.model, tmp_path / "ckpt.npz")
        run_steps(trainer, steps=2)
        load_checkpoint(trainer.model, path)
        np.testing.assert_array_equal(
            parameter_vector(trainer.model.parameters()), snapshot
        )
        for param in trainer.model.parameters():
            assert np.shares_memory(param.data, trainer.arena.data)
