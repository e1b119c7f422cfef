"""Deterministic batch sharding for data-parallel workers.

The parent takes each step's batch indices from
:meth:`~repro.data.streaming.DataLoader.batch_indices` — the same draws a
sequential epoch of the one loader consumes — then cuts the index vector
into contiguous near-equal shards.  Determinism contract: given the same
seed, batch size and dataset (an in-memory dataset is one shard), the
concatenation of the workers' shards at every step equals the sequential
batch — which is why parallel training can be checked against a
sequential large-batch oracle to 1e-12 (see
``tests/parallel/test_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["shard_bounds", "shard_weights"]


def shard_bounds(num_samples: int, num_workers: int) -> list[int]:
    """Contiguous near-equal split points: shard w is ``[b[w], b[w+1])``.

    The first ``num_samples % num_workers`` shards take one extra sample;
    trailing shards may be empty when the (last) batch is smaller than the
    worker count — workers ack empty shards with zeroed slabs.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be ≥ 1; got {num_workers}")
    if num_samples < 0:
        raise ValueError(f"num_samples must be ≥ 0; got {num_samples}")
    base, extra = divmod(num_samples, num_workers)
    bounds = [0]
    for worker in range(num_workers):
        bounds.append(bounds[-1] + base + (1 if worker < extra else 0))
    return bounds


def shard_weights(bounds: list[int]) -> np.ndarray:
    """Per-shard reduce weights ``n_w / n`` (empty batch → all zeros).

    Per-sample mean losses compose exactly under these weights:
    ``sum_w (n_w / n) * mean_shard_w == mean_batch``.  With power-of-two
    batch sizes and worker counts every weight is exact in float64, making
    the reduce bit-compatible with the sequential whole-batch mean.
    """
    total = bounds[-1]
    sizes = np.diff(np.asarray(bounds, dtype=np.float64))
    if total == 0:
        return sizes  # already zeros
    return sizes / float(total)
