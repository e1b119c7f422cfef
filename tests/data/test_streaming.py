"""Tests for the streaming shard pipeline core (``repro.data.streaming``)."""

import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    ChunkedSource,
    DataLoader,
    ShardCache,
    StreamingDataset,
    as_stream,
    batch_count,
    batch_index_iter,
    num_shards,
    shard_row_range,
    streaming_batch_count,
)
from repro.obs import Telemetry


def make_dataset(rows: int, seed: int = 0) -> ArrayDataset:
    rng = np.random.default_rng(seed)
    return ArrayDataset(
        rng.normal(size=(rows, 3)),
        {"a": rng.normal(size=rows), "b": rng.normal(size=rows)},
    )


def test_module_imports_with_docstrings_stripped():
    """Regression: class-body ``__doc__.format`` must survive ``-OO``."""
    import repro

    src = str(Path(repro.__file__).parents[1])
    subprocess.run(
        [sys.executable, "-OO", "-c", "import repro.data.streaming"],
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )


class TestShardMath:
    def test_num_shards_exact_and_remainder(self):
        assert num_shards(1000, 250) == 4
        assert num_shards(1001, 250) == 5
        assert num_shards(0, 250) == 0

    def test_chunk_larger_than_dataset_is_one_shard(self):
        assert num_shards(10, 1000) == 1
        assert shard_row_range(10, 1000, 0) == (0, 10)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            num_shards(10, 0)
        with pytest.raises(ValueError):
            num_shards(-1, 4)
        with pytest.raises(IndexError):
            shard_row_range(10, 4, 3)

    def test_last_shard_is_partial(self):
        assert shard_row_range(10, 4, 2) == (8, 10)

    def test_streaming_batch_count_is_per_shard(self):
        # 960 rows in 400-row shards at batch 128: shards of 400/400/160
        # yield 4+4+2 batches — not ceil(960/128) = 8.
        assert streaming_batch_count(960, 400, 128) == 10
        assert streaming_batch_count(960, 400, 128, drop_last=True) == 3 + 3 + 1

    def test_drop_last_can_drop_a_whole_small_shard(self):
        # The 2-row trailing shard is below the batch size: zero batches.
        assert streaming_batch_count(10, 4, 4, drop_last=True) == 1 + 1 + 0


class TestBatchCount:
    @pytest.mark.parametrize("rows,batch", [(10, 4), (12, 4), (3, 8)])
    @pytest.mark.parametrize("drop_last", [False, True])
    def test_matches_loader_len_and_actual_yields(self, rows, batch, drop_last):
        loader = DataLoader(
            make_dataset(rows), batch_size=batch, shuffle=False, drop_last=drop_last
        )
        batches = list(loader)
        assert len(loader) == batch_count(rows, batch, drop_last)
        assert len(batches) == len(loader)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            batch_count(10, 0)
        with pytest.raises(ValueError):
            batch_count(-1, 4)


class TestStreamingDataset:
    @pytest.mark.parametrize("rows,chunk", [(20, 7), (20, 5), (3, 100)])
    def test_materialize_restores_the_original_rows(self, rows, chunk):
        dataset = make_dataset(rows)
        restored = as_stream(dataset, chunk).materialize()
        np.testing.assert_array_equal(restored.inputs, dataset.inputs)
        for name in ("a", "b"):
            np.testing.assert_array_equal(restored.targets[name], dataset.targets[name])

    def test_global_batch_matches_eager_across_shards(self):
        dataset = make_dataset(23)
        stream = as_stream(dataset, 5)
        idx = np.random.default_rng(1).permutation(23)[:11]
        x_stream, t_stream = stream.batch(idx)
        x_eager, t_eager = dataset.batch(idx)
        np.testing.assert_array_equal(x_stream, x_eager)
        np.testing.assert_array_equal(t_stream["a"], t_eager["a"])

    def test_lru_holds_at_most_two_shards(self):
        stream = as_stream(make_dataset(40), 10)
        for index in range(4):
            stream.shard(index)
        assert len(stream._lru) == 2
        assert list(stream._lru) == [2, 3]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            as_stream(make_dataset(10), 4).batch(np.array([], dtype=np.int64))

    def test_lru_hit_counts_reuse_on_the_passed_telemetry(self):
        default, passed = Telemetry(), Telemetry()
        stream = as_stream(make_dataset(10), 4, telemetry=default)
        first = stream.shard(1, telemetry=passed)
        assert stream.shard(1, telemetry=passed) is first
        assert passed.counter("stream_shard_reuse_total").value == 1
        assert default.counter("stream_shard_reuse_total").value == 0
        stream.shard(1)  # no telemetry passed: the dataset's own
        assert default.counter("stream_shard_reuse_total").value == 1

    def test_generated_row_count_is_validated(self):
        stream = as_stream(make_dataset(10), 4)
        stream.source.generate_chunk = lambda index: (
            np.zeros((3, 2)),
            np.zeros(3),
        )
        with pytest.raises(ValueError, match="expected 4"):
            stream.load_shard(0)


class CountingSource(ChunkedSource):
    """Fresh random shards; logs each index it generates and keeps a weak
    reference to every shard's inputs, so tests can count live shards."""

    def __init__(self, total_rows: int, chunk_size: int, seed: int = 0) -> None:
        self.total_rows = total_rows
        self.chunk_size = chunk_size
        self.seed = seed
        self.generated: list[int] = []
        self.shards: list[weakref.ref] = []
        self.max_live = 0

    def live(self) -> int:
        return sum(ref() is not None for ref in self.shards)

    def generate_chunk(self, index: int):
        # The shard in generation counts as live alongside every other.
        self.max_live = max(self.max_live, self.live() + 1)
        self.generated.append(index)
        rng = self.shard_generator(index)
        rows = self.shard_length(index)
        inputs = rng.normal(size=(rows, 2))
        self.shards.append(weakref.ref(inputs))
        return inputs, {"a": rng.normal(size=rows)}


class UnderKeyedSource(ChunkedSource):
    """Source whose cache_key deliberately omits ``total_rows``.

    Models a user source with an under-specified key: two configurations
    that generate different shard layouts collide on the same cache
    entry, which ``load_shard`` must detect instead of silently serving
    the wrong rows.
    """

    def __init__(self, total_rows: int, chunk_size: int, seed: int = 0) -> None:
        self.total_rows = total_rows
        self.chunk_size = chunk_size
        self.seed = seed

    def generate_chunk(self, index: int):
        rng = self.shard_generator(index)
        rows = self.shard_length(index)
        return rng.normal(size=(rows, 2)), rng.normal(size=rows)

    def cache_key(self) -> str:
        return "underkeyed"


class TestCachedShardValidation:
    def test_mis_keyed_cache_hit_is_discarded_and_regenerated(self, tmp_path):
        cache = ShardCache(tmp_path)
        StreamingDataset(UnderKeyedSource(8, 8), cache=cache).load_shard(0)

        telemetry = Telemetry()
        narrower = StreamingDataset(UnderKeyedSource(6, 8), cache=cache)
        inputs, targets = narrower.load_shard(0, telemetry=telemetry)
        assert len(inputs) == 6 and len(targets) == 6
        assert telemetry.counter("stream_cache_hits_total").value == 0
        assert telemetry.counter("stream_cache_misses_total").value == 1
        # The stale entry was replaced: the next load is a valid hit.
        inputs, _ = narrower.load_shard(0, telemetry=telemetry)
        assert len(inputs) == 6
        assert telemetry.counter("stream_cache_hits_total").value == 1

    def test_matching_cache_hit_still_served(self, tmp_path):
        cache = ShardCache(tmp_path)
        telemetry = Telemetry()
        stream = StreamingDataset(UnderKeyedSource(8, 8), cache=cache)
        first, _ = stream.load_shard(0, telemetry=telemetry)
        hit, _ = stream.load_shard(0, telemetry=telemetry)
        np.testing.assert_array_equal(first, hit)
        assert telemetry.counter("stream_cache_hits_total").value == 1


class TestStreamingLoader:
    def test_covers_every_row_exactly_once(self):
        dataset = make_dataset(37)
        loader = DataLoader(as_stream(dataset, 10), batch_size=4, seed=5)
        rows = np.concatenate([x[:, 0] for x, _ in loader])
        np.testing.assert_array_equal(np.sort(rows), np.sort(dataset.inputs[:, 0]))
        assert len(loader) == streaming_batch_count(37, 10, 4)

    @pytest.mark.parametrize("drop_last", [False, True])
    def test_epoch_draws_the_shard_order_then_each_shards_rows(self, drop_last):
        # The draw order trained weights depend on: one shard permutation,
        # then one within-shard permutation per shard, in shard order.
        rows, chunk, batch = 37, 10, 4
        dataset = ArrayDataset(np.arange(rows, dtype=np.float64), np.zeros(rows))
        loader = DataLoader(as_stream(dataset, chunk), batch, seed=3, drop_last=drop_last)
        rng = np.random.default_rng(3)
        for _ in range(2):
            order = np.arange(num_shards(rows, chunk))
            rng.shuffle(order)
            expected = []
            for index in order:
                start, stop = shard_row_range(rows, chunk, int(index))
                for positions in batch_index_iter(
                    stop - start, batch, rng=rng, drop_last=drop_last
                ):
                    expected.append(start + positions)
            got = [x for x, _ in loader]
            assert len(got) == len(expected) == len(loader)
            for x, positions in zip(got, expected):
                np.testing.assert_array_equal(x, positions.astype(np.float64))
        assert loader.rng.bit_generator.state == rng.bit_generator.state

    def test_batches_never_cross_shard_boundaries(self):
        rows, chunk, batch = 22, 8, 8
        dataset = ArrayDataset(np.arange(rows, dtype=np.float64), np.zeros(rows))
        loader = DataLoader(
            as_stream(dataset, chunk), batch, shuffle=False
        )
        sizes = [len(x) for x, _ in loader]
        assert sizes == [8, 8, 6]  # the 6-row trailing shard stays partial

    def test_drop_last_is_per_shard(self):
        dataset = make_dataset(22)
        loader = DataLoader(as_stream(dataset, 8), 8, seed=0, drop_last=True)
        sizes = [len(x) for x, _ in loader]
        assert sizes == [8, 8]  # trailing 6-row shard yields no full batch
        assert len(loader) == 2

    def test_rejects_bad_arguments(self):
        stream = as_stream(make_dataset(10), 4)
        with pytest.raises(ValueError):
            DataLoader(stream, 0)
        with pytest.raises(ValueError):
            DataLoader(stream, 4, rng=np.random.default_rng(0), seed=1)


class TestShardReuse:
    """The loader fetches through the dataset's shard LRU."""

    def test_a_two_shard_stream_is_generated_once(self):
        source = CountingSource(16, 8)
        stream = StreamingDataset(source)
        telemetry = Telemetry()
        loader = DataLoader(stream, 4, seed=3, telemetry=telemetry)
        oracle = DataLoader(as_stream(stream.materialize(), 8), 4, seed=3)
        source.generated.clear()  # materialize() generated through load_shard
        for _ in range(3):
            for (x, t), (x_ref, t_ref) in zip(loader, oracle, strict=True):
                np.testing.assert_array_equal(x, x_ref)
                np.testing.assert_array_equal(t["a"], t_ref["a"])
        assert sorted(source.generated) == [0, 1]
        assert telemetry.counter("stream_shard_reuse_total").value == 4

    def test_a_longer_stream_regenerates_every_epoch(self):
        source = CountingSource(32, 8)
        stream = StreamingDataset(source)
        lru_sizes = []
        for _ in range(3):
            for _batch in DataLoader(stream, 4, shuffle=False):
                lru_sizes.append(len(stream._lru))
        # In order 0..3 the LRU ends an epoch on {2, 3}; the next starts
        # at shard 0, so nothing survives to be reused.
        assert source.generated == [0, 1, 2, 3] * 3
        assert max(lru_sizes) == 2

    def test_live_shards_stay_within_the_documented_bound(self):
        source = CountingSource(8 * 12, 8)
        stream = StreamingDataset(source)
        seen = 0
        for _ in range(3):
            for x, _ in DataLoader(stream, 4, seed=1):
                seen = max(seen, source.live())
                x.sum()
        assert max(seen, source.max_live) <= 3
        # The consumer's shard, the LRU's copy of the one before it and
        # the shard in generation: the bound is reached.
        assert source.max_live == 3

    def test_lru_access_waits_for_the_lock(self):
        # Unlocked, a lookup could find a shard that another thread evicts
        # before move_to_end (a KeyError); the lock must cover the lookup.
        stream = as_stream(make_dataset(16), 8)
        done = threading.Event()
        worker = threading.Thread(target=lambda: (stream.shard(0), done.set()))
        with stream._lru_lock:
            worker.start()
            assert not done.wait(0.05)
        assert done.wait(5)
        worker.join()
        assert list(stream._lru) == [0]

    @pytest.mark.parametrize("shards", [2, 3])
    def test_loader_and_batch_share_the_lru_safely(self, shards):
        # A user thread calls batch() while the loader walks the stream.
        rows = 8 * shards
        dataset = make_dataset(rows)
        stream = as_stream(dataset, 8)
        expected = stream.materialize()
        rng = np.random.default_rng(0)
        errors = []

        def hammer_batch():
            try:
                for _ in range(400):
                    idx = rng.integers(0, rows, size=5)
                    x, t = stream.batch(idx)
                    np.testing.assert_array_equal(x, expected.inputs[idx])
                    np.testing.assert_array_equal(t["b"], expected.targets["b"][idx])
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        loader = DataLoader(stream, 2, rng=np.random.default_rng(1))
        oracle = DataLoader(as_stream(dataset, 8), 2, rng=np.random.default_rng(1))
        thread = threading.Thread(target=hammer_batch)
        # A tiny switch interval makes the threads interleave inside
        # shard(); with 3 shards the LRU also evicts while both use it.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            for _ in range(50):
                for (x, t), (x_ref, t_ref) in zip(loader, oracle, strict=True):
                    np.testing.assert_array_equal(x, x_ref)
                    np.testing.assert_array_equal(t["a"], t_ref["a"])
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert not errors, errors
        assert len(stream._lru) <= 2
