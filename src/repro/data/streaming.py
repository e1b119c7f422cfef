"""Streaming shard pipeline and the one loader.

The eager generators materialize every row up front, so epoch memory grows
linearly with dataset size — fine at reproduction scale, fatal at the
~100M-row scale of the real AliExpress logs.  This module is the
streaming counterpart, and the loader that walks both:

- :class:`ChunkedSource` — a generator that produces fixed-size *chunks*
  (shards) on demand.  Shard ``i`` is a pure function of
  ``(seed, shard_index)`` via :func:`~repro.data.base.shard_rng`, so any
  consumer — the loader, global-index ``batch()``, a fresh process —
  reconstructs identical bytes independently.
- :class:`StreamingDataset` — the dataset view over a source: every
  shard fetch (the loader's and global-index ``batch()``) goes through a
  tiny shard LRU, so a stream of at most two shards is generated once
  and reused by every later epoch; and
  :meth:`~StreamingDataset.materialize`, the concatenation of all shards
  as a plain :class:`~repro.data.base.ArrayDataset`.
- :class:`DataLoader` — the only loader, over a :class:`StreamingDataset`
  or an :class:`~repro.data.base.ArrayDataset` (a one-shard stream that
  hands out its own arrays, with no copy).  It fetches each shard
  through ``dataset.shard`` on the caller's thread when the shard's first
  batch is due, and its epochs and evaluation both draw their batch order
  in :meth:`DataLoader.__iter__`.

Ordering contract: one shard-order permutation, then each shard's rows
batched by :func:`~repro.data.base.batch_index_iter`.  Batches never cross
shard boundaries (each shard's trailing ``shard_len % batch_size`` rows
form a partial batch unless ``drop_last``), so one live shard bounds the
working set.  numpy draws nothing to shuffle a length-1 order, so an
in-memory dataset's epoch is exactly ``batch_index_iter`` over its rows.
The eager oracle for equivalence tests is the same loader over
:func:`as_stream` of the materialized arrays — identical index draws,
identical batches, different storage.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterator

import numpy as np

from ..obs import NULL_TELEMETRY
from .base import (
    DEFAULT_DATA_SEED,
    ArrayDataset,
    _tree_concat,
    _tree_index,
    _tree_rows,
    batch_count,
    batch_index_iter,
    shard_rng,
)

__all__ = [
    "ChunkedSource",
    "EagerSource",
    "StreamingDataset",
    "DataLoader",
    "as_stream",
    "num_shards",
    "shard_row_range",
    "streaming_batch_count",
]

#: Shards a :class:`StreamingDataset` keeps materialized.  Two covers the
#: dominant access patterns: repeated batches within one shard (the
#: shard-ordered stream), an eval pass straddling one shard boundary, and
#: every later epoch of a stream of at most two shards.
_SHARD_LRU_CAPACITY = 2


def num_shards(total_rows: int, chunk_size: int) -> int:
    """Shard count for ``total_rows`` rows in ``chunk_size`` chunks.

    The last shard holds the ``total_rows % chunk_size`` remainder (a
    *partial shard* — every consumer must handle it; see the regression
    tests in ``tests/data/test_streaming.py``).
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be ≥ 1; got {chunk_size}")
    if total_rows < 0:
        raise ValueError(f"total_rows must be ≥ 0; got {total_rows}")
    return -(-total_rows // chunk_size)


def shard_row_range(total_rows: int, chunk_size: int, index: int) -> tuple[int, int]:
    """Global row interval ``[start, stop)`` of shard ``index``."""
    shards = num_shards(total_rows, chunk_size)
    if not 0 <= index < max(shards, 1):
        raise IndexError(f"shard index {index} out of range for {shards} shards")
    start = index * chunk_size
    return start, min(start + chunk_size, total_rows)


def streaming_batch_count(
    total_rows: int, chunk_size: int, batch_size: int, drop_last: bool = False
) -> int:
    """Batches one epoch of the shard-ordered stream yields.

    Batches never cross shard boundaries, so the count is per-shard —
    NOT ``ceil(total/batch)``: a 960-row dataset in 400-row chunks at
    batch 128 yields ``4+4+2`` batches, not 8.  With ``drop_last`` each
    shard's trailing partial batch is dropped (a shard smaller than the
    batch size then contributes zero batches).
    """
    count = 0
    for index in range(num_shards(total_rows, chunk_size)):
        start, stop = shard_row_range(total_rows, chunk_size, index)
        count += batch_count(stop - start, batch_size, drop_last)
    return count


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
class ChunkedSource:
    """A dataset generator that produces fixed-size chunks on demand.

    Subclasses set ``total_rows``, ``chunk_size`` and ``seed`` (the shard
    stream seed) and implement :meth:`generate_chunk`, which must be a
    *pure function* of ``(self.seed, index)`` — typically by drawing every
    random value from ``shard_rng(self.seed, index)``.  World-level state
    (latent tables, task directions) is computed in ``__init__`` from the
    seed alone.
    """

    total_rows: int
    chunk_size: int
    seed: int

    @property
    def num_shards(self) -> int:
        """Total shard count for this source."""
        return num_shards(self.total_rows, self.chunk_size)

    def shard_range(self, index: int) -> tuple[int, int]:
        """Global row interval ``[start, stop)`` of shard ``index``."""
        return shard_row_range(self.total_rows, self.chunk_size, index)

    def shard_length(self, index: int) -> int:
        """Row count of shard ``index`` (< chunk_size only for the last)."""
        start, stop = self.shard_range(index)
        return stop - start

    def generate_chunk(self, index: int):
        """Return ``(inputs, targets)`` for shard ``index`` (pure)."""
        raise NotImplementedError

    def shard_generator(self, index: int) -> np.random.Generator:
        """The per-shard RNG: ``shard_rng(self.seed, index)``."""
        return shard_rng(self.seed, index)


class EagerSource(ChunkedSource):
    """Chunk view over an in-memory :class:`ArrayDataset`.

    The eager fallback for generators without a chunked core (the
    image-like datasets) and the oracle adapter for equivalence tests:
    any materialized dataset streams through the same loader machinery by
    slicing rows.
    """

    def __init__(self, dataset: ArrayDataset, chunk_size: int, seed: int = 0) -> None:
        self.dataset = dataset
        self.total_rows = len(dataset)
        self.chunk_size = int(chunk_size)
        self.seed = int(seed)
        num_shards(self.total_rows, self.chunk_size)  # validates chunk_size

    def generate_chunk(self, index: int):
        """Slice shard ``index`` out of the wrapped in-memory dataset."""
        start, stop = self.shard_range(index)
        return self.dataset.batch(np.arange(start, stop))


def as_stream(
    dataset: ArrayDataset, chunk_size: int, **kwargs
) -> "StreamingDataset":
    """Wrap an eager dataset as a :class:`StreamingDataset` (oracle view)."""
    return StreamingDataset(EagerSource(dataset, chunk_size), **kwargs)


# ----------------------------------------------------------------------
# Dataset
# ----------------------------------------------------------------------
class StreamingDataset:
    """Dataset view over a :class:`ChunkedSource` with a shard LRU.

    Shares the :class:`ArrayDataset` surface the loader and the analysis
    helpers touch: ``__len__``, ``chunk_size``, ``shard``, ``load_shard``,
    ``telemetry`` and ``batch``.

    Parameters
    ----------
    source:
        The chunk generator.
    telemetry:
        Default :class:`repro.obs.Telemetry` for shard reuse/generation
        instrumentation; the trainer's loader overrides it per-fit.
    """

    def __init__(self, source: ChunkedSource, telemetry=None) -> None:
        self.source = source
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._lru: OrderedDict[int, tuple] = OrderedDict()
        self._lru_lock = threading.Lock()

    # -- sizes -----------------------------------------------------------
    def __len__(self) -> int:
        return self.source.total_rows

    @property
    def chunk_size(self) -> int:
        """Rows per shard (the last shard may be shorter)."""
        return self.source.chunk_size

    @property
    def num_shards(self) -> int:
        """Total shard count of the underlying source."""
        return self.source.num_shards

    def shard_length(self, index: int) -> int:
        """Row count of shard ``index``."""
        return self.source.shard_length(index)

    # -- shard access ----------------------------------------------------
    def load_shard(self, index: int, telemetry=None):
        """Generate shard ``index`` and check its row count.

        Returns the raw ``(inputs, targets)`` pair.  Generation runs under
        a ``shard_generate`` span so the Chrome trace shows where shards
        come from.
        """
        telemetry = telemetry if telemetry is not None else self.telemetry
        expected = self.shard_length(index)
        with telemetry.span("shard_generate", shard=index):
            inputs, targets = self.source.generate_chunk(index)
        rows = _tree_rows(inputs)
        if rows != expected:
            raise ValueError(
                f"source {type(self.source).__name__} generated {rows} rows for "
                f"shard {index}, expected {expected}"
            )
        return inputs, targets

    def shard(self, index: int, telemetry=None):
        """LRU-cached :meth:`load_shard` (capacity {cap}).

        The one shard accessor: the loader and :meth:`batch` both fetch
        here, so a shard the LRU still holds is reused instead of
        regenerated.  On a stream of at most {cap} shards every epoch
        after the first generates nothing.  A hit counts
        ``stream_shard_reuse_total`` on ``telemetry``; a miss calls
        :meth:`load_shard`.

        ``shard`` and :meth:`batch` are public, so user threads may call
        them concurrently with a loader: one lock guards lookup, insert
        and evict; generation runs outside it.  Two threads that miss the
        same index may therefore both generate it — harmless, since a shard is a pure function of
        ``(seed, index)``: either copy holds the same bytes.
        """
        telemetry = telemetry if telemetry is not None else self.telemetry
        with self._lru_lock:
            hit = self._lru.get(index)
            if hit is not None:
                self._lru.move_to_end(index)
        if hit is not None:
            telemetry.counter("stream_shard_reuse_total").inc()
            return hit
        data = self.load_shard(index, telemetry=telemetry)
        with self._lru_lock:
            self._lru[index] = data
            self._lru.move_to_end(index)
            if len(self._lru) > _SHARD_LRU_CAPACITY:
                self._lru.popitem(last=False)
        return data

    if shard.__doc__:  # stripped under python -OO
        shard.__doc__ = shard.__doc__.format(cap=_SHARD_LRU_CAPACITY)

    # -- ArrayDataset-compatible surface --------------------------------
    def batch(self, idx: np.ndarray):
        """``(inputs[idx], targets[idx])`` by global row positions.

        Positions are grouped by shard; each touched shard is loaded once
        through the LRU.  Row order of ``idx`` is preserved exactly, so
        this is a drop-in for :meth:`ArrayDataset.batch`.
        """
        idx = np.asarray(idx)
        if idx.size == 0:
            raise ValueError("batch requires at least one index")
        shard_ids = idx // self.chunk_size
        unique = np.unique(shard_ids)
        if unique.size == 1:
            inputs, targets = self.shard(int(unique[0]))
            rel = idx - int(unique[0]) * self.chunk_size
            return _tree_index(inputs, rel), _tree_index(targets, rel)
        # Stable-sort positions by shard, gather per shard, then restore
        # the caller's row order with one inverse permutation.
        order = np.argsort(shard_ids, kind="stable")
        inputs_parts, targets_parts = [], []
        for shard_id in unique:
            members = order[shard_ids[order] == shard_id]
            inputs, targets = self.shard(int(shard_id))
            rel = idx[members] - int(shard_id) * self.chunk_size
            inputs_parts.append(_tree_index(inputs, rel))
            targets_parts.append(_tree_index(targets, rel))
        inverse = np.empty(idx.size, dtype=np.int64)
        inverse[order] = np.arange(idx.size)
        return (
            _tree_index(_tree_concat(inputs_parts), inverse),
            _tree_index(_tree_concat(targets_parts), inverse),
        )

    def materialize(self) -> ArrayDataset:
        """The eager oracle: all shards concatenated, in shard order.

        Streaming row ``i`` and ``materialize()`` row ``i`` are identical
        bytes — the equivalence suites compare streaming runs against
        loaders over this dataset.
        """
        if self.num_shards == 0:
            raise ValueError("cannot materialize an empty stream")
        inputs_parts, targets_parts = [], []
        for index in range(self.num_shards):
            inputs, targets = self.load_shard(index)
            inputs_parts.append(inputs)
            targets_parts.append(targets)
        return ArrayDataset(_tree_concat(inputs_parts), _tree_concat(targets_parts))


# ----------------------------------------------------------------------
# Loader
# ----------------------------------------------------------------------
class DataLoader:
    """Minibatch iterator over a :class:`StreamingDataset` or an
    :class:`~repro.data.base.ArrayDataset` (a one-shard stream).

    Each ``iter()`` draws a fresh epoch order from the loader's generator
    — reproducible from the seed; when no ``rng`` is given it derives from
    ``seed`` (default :data:`~repro.data.base.DEFAULT_DATA_SEED`), never
    from OS entropy.  It is the one place batch order is drawn: the
    shard-order permutation first, then, as the epoch reaches each shard,
    that shard's :func:`~repro.data.base.batch_index_iter` permutation —
    O(chunk_size) live index memory, and an epoch cut short draws nothing
    for the shards it never reached.  Batches never cross shard
    boundaries.  A shard is fetched on the caller's thread through
    ``dataset.shard`` when its first batch is due, so a shard that
    ``drop_last`` leaves with no batch is never generated, and a
    :class:`StreamingDataset`'s LRU lets an epoch reuse the shards the
    previous one left there.  At most 3 shards are
    alive at once: the consumer's shard, the one being generated, and the
    LRU's copy of the shard before the consumer's.
    """

    def __init__(
        self,
        dataset,
        batch_size: int,
        rng: np.random.Generator | None = None,
        shuffle: bool = True,
        drop_last: bool = False,
        seed: int | None = None,
        telemetry=None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be ≥ 1")
        if rng is not None and seed is not None:
            raise ValueError("pass either rng or seed, not both")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.telemetry = telemetry if telemetry is not None else dataset.telemetry
        self.rng = (
            rng
            if rng is not None
            else np.random.default_rng(DEFAULT_DATA_SEED if seed is None else seed)
        )

    def __len__(self) -> int:
        return streaming_batch_count(
            len(self.dataset), self.dataset.chunk_size, self.batch_size, self.drop_last
        )

    def __iter__(self) -> Iterator:
        dataset, rng = self.dataset, self.rng
        order = np.arange(num_shards(len(dataset), dataset.chunk_size))
        if self.shuffle:
            rng.shuffle(order)
        for index in order:
            start, stop = shard_row_range(len(dataset), dataset.chunk_size, int(index))
            shard = None
            # The permutation is drawn even when drop_last leaves the shard
            # no batch, so the RNG stream does not depend on shard sizes.
            for positions in batch_index_iter(
                stop - start, self.batch_size, rng=rng, shuffle=self.shuffle,
                drop_last=self.drop_last,
            ):
                if shard is None:
                    shard = dataset.shard(int(index), telemetry=self.telemetry)
                inputs, targets = shard
                yield _tree_index(inputs, positions), _tree_index(targets, positions)
