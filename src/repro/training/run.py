"""One run protocol: a frozen :class:`RunSpec` and the functions that run it.

Every artifact of the paper trains a benchmark's model under one method,
averages the test metrics over seeds and compares them against the
single-task (STL) models for ΔM (Eq. 27) and TCI (Definition 2).  The spec
holds every data-independent value such a run sets; runtime objects
(telemetry, profiler, dynamics recorder) stay keyword arguments of
:func:`build_trainer`::

    spec = RunSpec(method="mocograd", epochs=4, batch_size=128, lr=2e-3, num_seeds=2)
    metrics, trainer = run(benchmark, spec)   # seed-averaged test metrics
    stl = run_stl(benchmark, spec)            # the STL row, same protocol
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from ..core.balancer import create_balancer
from ..data.base import MULTI_INPUT, Benchmark
from .trainer import MTLTrainer

__all__ = ["METHODS", "RunSpec", "build_trainer", "run", "run_stl", "average_metric_dicts"]

#: Method order used throughout the paper's tables.
METHODS = (
    "equal",
    "dwa",
    "mgda",
    "pcgrad",
    "graddrop",
    "gradvac",
    "cagrad",
    "imtl",
    "rlw",
    "nashmtl",
    "mocograd",
)


class _ReadOnlyDict(dict):
    """A dict that refuses mutation; copies, pickles and ``asdict`` still work."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a RunSpec is frozen; derive a new one with dataclasses.replace")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class RunSpec:
    """Everything one run sets that does not depend on the data.

    ``method`` is a registered balancer name, built with ``seed`` and
    ``balancer_kwargs`` (held as a read-only copy).  ``tasks`` names the
    heads to train, in order (``None``: every task of the benchmark).
    ``num_seeds`` repeats the run with seeds ``seed, seed+1, …`` and
    averages the metrics — the synthetic-scale analogue of the paper's
    "average of ten runs" protocol (essential here, since at laptop scale
    single-seed noise exceeds the between-method gaps).
    """

    method: str = "equal"
    balancer_kwargs: Mapping = field(default_factory=dict)
    architecture: str = "hps"
    tasks: tuple[str, ...] | None = None
    grad_space: str = "parameters"
    optimizer: str = "adam"
    lr: float = 1e-3
    epochs: int = 5
    batch_size: int = 64
    max_steps_per_epoch: int | None = None
    seed: int = 0
    num_seeds: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "balancer_kwargs", _ReadOnlyDict(self.balancer_kwargs))
        if self.tasks is not None:
            object.__setattr__(self, "tasks", tuple(self.tasks))


def average_metric_dicts(runs: Sequence[Mapping[str, Mapping[str, float]]]) -> dict:
    """Element-wise mean of ``{task: {metric: value}}`` dictionaries."""
    if not runs:
        raise ValueError("need at least one run")
    averaged: dict[str, dict[str, float]] = {}
    for task in runs[0]:
        averaged[task] = {
            metric: float(np.mean([run[task][metric] for run in runs]))
            for metric in runs[0][task]
        }
    return averaged


def build_trainer(benchmark: Benchmark, spec: RunSpec, **runtime) -> MTLTrainer:
    """The trainer ``spec`` describes on ``benchmark``, at ``spec.seed``.

    The model is ``benchmark.build_model(spec.architecture, rng,
    tasks=spec.tasks)`` drawn from ``default_rng(spec.seed)``.  ``runtime``
    (``telemetry``, ``profile``, ``record_dynamics``, …) passes to
    :class:`MTLTrainer` untouched.
    """
    model = benchmark.build_model(
        spec.architecture, np.random.default_rng(spec.seed), tasks=spec.tasks
    )
    return MTLTrainer(
        model,
        [benchmark.task(name) for name in model.task_names],
        create_balancer(spec.method, seed=spec.seed, **spec.balancer_kwargs),
        mode=benchmark.mode,
        grad_space=spec.grad_space,
        optimizer=spec.optimizer,
        lr=spec.lr,
        seed=spec.seed,
        **runtime,
    )


def _splits(benchmark: Benchmark, tasks: tuple[str, ...] | None) -> tuple:
    """``(train, test)`` as a trainer of ``tasks`` reads them: multi-input
    splits are cut to those tasks' datasets; a single-input split serves
    every task."""
    if benchmark.mode == MULTI_INPUT and tasks is not None:
        splits = (benchmark.train, benchmark.test)
        return tuple({name: split[name] for name in tasks} for split in splits)
    return benchmark.train, benchmark.test


def run(benchmark: Benchmark, spec: RunSpec) -> tuple[dict, MTLTrainer]:
    """Train and test ``spec`` once per seed; return ``(metrics, trainer)``.

    ``metrics`` is ``{task: {metric: value}}`` averaged over the
    ``num_seeds`` seeds; ``trainer`` is the last seed's.
    """
    runs = []
    for seed in range(spec.seed, spec.seed + max(spec.num_seeds, 1)):
        trainer = build_trainer(benchmark, replace(spec, seed=seed))  # checks spec.tasks
        train, test = _splits(benchmark, spec.tasks)
        trainer.fit(
            train, spec.epochs, spec.batch_size, max_steps_per_epoch=spec.max_steps_per_epoch
        )
        runs.append(trainer.evaluate(test))
    return average_metric_dicts(runs), trainer


def run_stl(benchmark: Benchmark, spec: RunSpec) -> dict[str, dict[str, float]]:
    """The STL row: ``{task: metrics}`` for each task of ``spec.tasks`` (all by default).

    Each task's model is the benchmark's HPS builder with that one head,
    trained by plain joint training (balancing a single gradient is a
    no-op) under the rest of ``spec``, seed-averaged like :func:`run`.
    """
    names = spec.tasks if spec.tasks is not None else tuple(benchmark.task_names)
    return {
        name: run(
            benchmark,
            replace(spec, method="equal", balancer_kwargs={}, architecture="hps", tasks=(name,)),
        )[0][name]
        for name in names
    }
