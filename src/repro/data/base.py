"""Dataset machinery: task specs, array datasets, batch order, benchmarks.

The paper distinguishes **Single-Input MTL** (all tasks share every training
example — MovieLens scenario batches, NYUv2, CityScapes, AliExpress) from
**Multi-Input MTL** (each task has its own disjoint training data — QM9
properties in the LibMTL setup, Office-Home domains).  Both modes are first
class here:

- single-input: one :class:`ArrayDataset` whose targets are a dict
  ``{task: y}``;
- multi-input: a dict ``{task: ArrayDataset}`` with per-task inputs/targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

from ..nn.tensor import Tensor
from ..obs import NULL_TELEMETRY

__all__ = [
    "TaskSpec",
    "ArrayDataset",
    "Benchmark",
    "train_val_test_split",
    "batch_count",
    "batch_index_iter",
    "shard_rng",
    "SINGLE_INPUT",
    "MULTI_INPUT",
]

SINGLE_INPUT = "single_input"
MULTI_INPUT = "multi_input"

#: Seed used when neither an ``rng`` nor a ``seed`` is given.  Batch order
#: must always derive from an explicit seed so that runs — and the shard
#: streams data-parallel workers cut from them — are reproducible; an
#: OS-entropy fallback would silently break that contract.
DEFAULT_DATA_SEED = 0


def shard_rng(seed: int, shard_index: int) -> np.random.Generator:
    """Deterministic per-shard generator: ``default_rng(seed + shard_index)``.

    The spawn-safe seeding helper for data-parallel workers: each shard's
    stream is a pure function of ``(seed, shard_index)``, so a worker
    process reconstructs it identically under any start method (fork or
    spawn) without inheriting parent RNG state.  ``seed`` must be explicit
    — reproducibility of worker shards is the whole point.
    """
    if seed is None:
        raise ValueError("shard_rng requires an explicit seed")
    if shard_index < 0:
        raise ValueError(f"shard_index must be ≥ 0; got {shard_index}")
    return np.random.default_rng(int(seed) + int(shard_index))


def batch_count(n: int, batch_size: int, drop_last: bool = False) -> int:
    """Number of batches :func:`batch_index_iter` yields over ``n`` rows.

    The trailing ``n % batch_size`` rows form one extra partial batch
    unless ``drop_last``.  The loader applies this per shard (see
    ``repro.data.streaming.streaming_batch_count``) — a multi-shard total
    is NOT ``batch_count(total_rows, …)`` because batches never cross
    shards.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be ≥ 1")
    if n < 0:
        raise ValueError(f"n must be ≥ 0; got {n}")
    return n // batch_size if drop_last else -(-n // batch_size)


def batch_index_iter(
    n: int,
    batch_size: int,
    rng: np.random.Generator | None = None,
    shuffle: bool = True,
    drop_last: bool = False,
) -> Iterator[np.ndarray]:
    """Yield per-batch position arrays over ``n`` samples.

    The within-shard step of the one batch-order draw,
    :func:`repro.data.streaming.shard_batch_index_iter`.  An in-memory
    dataset is a single shard, so its epoch order is exactly this stream.
    """
    order = np.arange(n)
    if shuffle:
        (rng if rng is not None else np.random.default_rng(DEFAULT_DATA_SEED)).shuffle(order)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        if drop_last and idx.size < batch_size:
            break
        yield idx


@dataclass
class TaskSpec:
    """Everything the trainer needs to know about one task.

    Attributes
    ----------
    name:
        Unique task identifier (e.g. ``"ES_CTR"``, ``"segmentation"``).
    loss_fn:
        ``(raw_model_output: Tensor, targets: ndarray) -> scalar Tensor``.
    metrics:
        Metric name → ``(raw_outputs: ndarray, targets: ndarray) -> float``;
        each metric closure applies its own output transform (sigmoid,
        argmax, …).
    higher_is_better:
        Metric name → direction, used for ΔM (Eq. 27).
    """

    name: str
    loss_fn: Callable[[Tensor, np.ndarray], Tensor]
    metrics: dict[str, Callable[[np.ndarray, np.ndarray], float]] = field(default_factory=dict)
    higher_is_better: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = set(self.metrics) - set(self.higher_is_better)
        if missing:
            raise ValueError(f"task {self.name!r}: metrics missing direction: {sorted(missing)}")


# ----------------------------------------------------------------------
# Structure helpers: (inputs, targets) trees of ndarray / tuple / dict
# ----------------------------------------------------------------------
def _tree_index(struct, idx: np.ndarray):
    """Row-index an inputs/targets structure (fancy indexing copies)."""
    if isinstance(struct, tuple):
        return tuple(np.asarray(part)[idx] for part in struct)
    if isinstance(struct, Mapping):
        return {name: np.asarray(part)[idx] for name, part in struct.items()}
    return np.asarray(struct)[idx]


def _tree_concat(parts: list):
    """Concatenate a list of same-shaped structures along the row axis."""
    head = parts[0]
    if isinstance(head, tuple):
        return tuple(
            np.concatenate([part[i] for part in parts], axis=0)
            for i in range(len(head))
        )
    if isinstance(head, Mapping):
        return {
            name: np.concatenate([part[name] for part in parts], axis=0)
            for name in head
        }
    return np.concatenate(parts, axis=0)


def _tree_rows(struct) -> int:
    """Row count of an inputs/targets structure."""
    if isinstance(struct, tuple):
        return len(struct[0])
    if isinstance(struct, Mapping):
        return len(next(iter(struct.values())))
    return len(struct)


class ArrayDataset:
    """In-memory dataset of (inputs, targets).

    ``inputs`` is an ndarray or a tuple of aligned ndarrays (e.g. graph
    batches ``(nodes, adjacency, mask)``); ``targets`` is an ndarray
    (single task) or a dict ``{task: ndarray}`` (single-input MTL).

    To the loader it is a one-shard stream: :meth:`load_shard` returns
    the dataset's own arrays (no copy), there is no prefetch thread, and
    numpy draws nothing to shuffle a one-shard order — so its batch order
    is :func:`batch_index_iter` over its rows.
    """

    #: An in-memory dataset never starts a prefetch thread.
    prefetch_depth = 0
    telemetry = NULL_TELEMETRY

    def __init__(self, inputs, targets) -> None:
        self.inputs = inputs
        self.targets = targets
        length = _tree_rows(inputs)
        if isinstance(targets, Mapping):
            for name, target in targets.items():
                if len(target) != length:
                    raise ValueError(f"target {name!r} length {len(target)} != inputs {length}")
        elif len(targets) != length:
            raise ValueError(f"targets length {len(targets)} != inputs {length}")
        self._length = length

    def __len__(self) -> int:
        return self._length

    @property
    def chunk_size(self) -> int:
        """Rows per shard: the whole dataset is shard 0."""
        return max(self._length, 1)

    def load_shard(self, index: int, telemetry=None):
        """Shard 0 is the dataset itself: its own ``(inputs, targets)``."""
        if index != 0:
            raise IndexError(f"an in-memory dataset has one shard; got index {index}")
        return self.inputs, self.targets

    def batch(self, idx: np.ndarray):
        """Return ``(inputs[idx], targets[idx])`` (dicts indexed per task)."""
        idx = np.asarray(idx)
        return _tree_index(self.inputs, idx), _tree_index(self.targets, idx)

    def subset(self, idx: np.ndarray) -> "ArrayDataset":
        """A new dataset restricted to the given positions."""
        inputs, targets = self.batch(np.asarray(idx))
        return ArrayDataset(inputs, targets)

    def all(self):
        """The full dataset as one batch."""
        return self.batch(np.arange(self._length))


def train_val_test_split(
    n: int,
    rng: np.random.Generator,
    val_fraction: float = 0.1,
    test_fraction: float = 0.1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random index split into train/val/test."""
    if val_fraction + test_fraction >= 1.0:
        raise ValueError("val + test fractions must leave room for training data")
    order = rng.permutation(n)
    num_test = int(round(n * test_fraction))
    num_val = int(round(n * val_fraction))
    test = order[:num_test]
    val = order[num_test : num_test + num_val]
    train = order[num_test + num_val :]
    return train, val, test


@dataclass
class Benchmark:
    """One reproduction benchmark: tasks + splits + one model builder.

    ``mode`` is :data:`SINGLE_INPUT` or :data:`MULTI_INPUT`; splits are
    :class:`ArrayDataset` (single-input) or ``{task: ArrayDataset}``
    (multi-input).  ``build_model(architecture="hps", rng=None,
    tasks=None)`` constructs the paper's network for this dataset under the
    requested architecture (``"hps"`` always supported; CityScapes
    additionally supports the Fig. 7 set) with one head per name in
    ``tasks`` — every task, in benchmark order, by default.  The
    single-task (STL) model that TCI / ΔM are measured against is
    ``build_model("hps", rng, tasks=(name,))``: the same builder, so the
    baseline cannot drift from the MTL network.

    The dataset passes its builder as ``build_model(architecture, rng,
    tasks)``; construction wraps it so ``tasks`` is checked once, here,
    before the builder draws anything from ``rng`` (``rng=None`` builds
    from the dataset's own seed).
    """

    name: str
    mode: str
    tasks: list[TaskSpec]
    train: object
    val: object
    test: object
    build_model: Callable[..., object]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in (SINGLE_INPUT, MULTI_INPUT):
            raise ValueError(f"mode must be {SINGLE_INPUT!r} or {MULTI_INPUT!r}")
        builder = self.build_model

        def build_model(architecture: str = "hps", rng=None, tasks=None):
            return builder(architecture, rng, self._checked_tasks(tasks))

        self.build_model = build_model

    def _checked_tasks(self, tasks) -> tuple[str, ...]:
        """``tasks`` as a tuple (default: all, in order); non-empty, distinct, known."""
        if tasks is None:
            return tuple(self.task_names)
        tasks = tuple(tasks)
        if not tasks:
            raise ValueError("tasks must name at least one task")
        if len(set(tasks)) != len(tasks):
            raise ValueError(f"tasks must be distinct; got {list(tasks)}")
        unknown = [name for name in tasks if name not in self.task_names]
        if unknown:
            raise ValueError(f"unknown tasks {unknown}; {self.name} has {self.task_names}")
        return tasks

    @property
    def task_names(self) -> list[str]:
        return [task.name for task in self.tasks]

    def task(self, name: str) -> TaskSpec:
        """Look up one task specification by name."""
        for task in self.tasks:
            if task.name == name:
                return task
        raise KeyError(f"unknown task {name!r}")
