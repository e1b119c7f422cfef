"""Streaming-vs-eager equivalence: identical batches, identical training.

The eager path is the reference oracle: ``StreamingDataset.materialize()``
concatenates every shard, and :func:`~repro.data.as_stream` over that
dataset walks the *same* loader machinery with the same RNG draws — so a
streaming run and its materialized oracle must produce bit-identical
batches and bit-identical trained parameters, across generators and
gradient spaces.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.balancer import create_balancer
from repro.data import (
    DataLoader,
    as_stream,
    make_aliexpress_stream,
    make_movielens_stream,
    make_synthetic_stream,
)
from repro.training import MTLTrainer

GENRES = ("Crime", "Documentary")


def make_stream(name: str):
    if name == "aliexpress":
        return make_aliexpress_stream(
            num_records=384, chunk_size=128, val_records=32, test_records=32, seed=3
        )
    if name == "movielens":
        return make_movielens_stream(
            genres=GENRES,
            records_per_genre=192,
            chunk_size=64,
            val_records=32,
            test_records=32,
            seed=3,
        )
    if name == "synthetic":
        return make_synthetic_stream(
            num_samples=384, chunk_size=128, val_records=32, test_records=32, seed=3
        )
    raise ValueError(name)


def oracle_view(train_data):
    """The eager oracle: materialized shards behind the same loader."""
    if isinstance(train_data, dict):
        return {name: oracle_view(data) for name, data in train_data.items()}
    return as_stream(train_data.materialize(), train_data.chunk_size)


def fit_params(benchmark, train_data, grad_space="parameters", epochs=2):
    model = benchmark.build_model("hps", np.random.default_rng(0))
    trainer = MTLTrainer(
        model,
        benchmark.tasks,
        create_balancer("equal", seed=0),
        mode=benchmark.mode,
        grad_space=grad_space,
        seed=0,
    )
    trainer.fit(train_data, epochs=epochs, batch_size=64)
    return np.concatenate([np.asarray(p.data).ravel() for p in model.parameters()])


class TestBatchEquivalence:
    @pytest.mark.parametrize("name", ["aliexpress", "synthetic"])
    def test_streaming_batches_are_bit_identical_to_eager(self, name):
        train = make_stream(name).train
        oracle = oracle_view(train)
        stream_loader = DataLoader(train, 64, seed=11)
        oracle_loader = DataLoader(oracle, 64, seed=11)
        for (x_s, t_s), (x_o, t_o) in zip(stream_loader, oracle_loader, strict=True):
            np.testing.assert_array_equal(x_s, x_o)
            if isinstance(t_s, dict):
                for task in t_s:
                    np.testing.assert_array_equal(t_s[task], t_o[task])
            else:
                np.testing.assert_array_equal(t_s, t_o)

    def test_movielens_per_genre_streams_match_eager(self):
        train = make_stream("movielens").train
        assert set(train) == set(GENRES)
        for genre, dataset in train.items():
            oracle = oracle_view(dataset)
            for (x_s, t_s), (x_o, t_o) in zip(
                DataLoader(dataset, 32, seed=5),
                DataLoader(oracle, 32, seed=5),
                strict=True,
            ):
                np.testing.assert_array_equal(x_s, x_o)
                np.testing.assert_array_equal(t_s, t_o)


class TestTrainingEquivalence:
    @pytest.mark.parametrize("name", ["aliexpress", "synthetic"])
    @pytest.mark.parametrize("grad_space", ["parameters", "features"])
    def test_single_input_stream_trains_identically_to_eager(self, name, grad_space):
        benchmark = make_stream(name)
        streamed = fit_params(benchmark, benchmark.train, grad_space=grad_space)
        eager = fit_params(benchmark, oracle_view(benchmark.train), grad_space=grad_space)
        np.testing.assert_array_equal(streamed, eager)

    def test_movielens_multi_input_stream_trains_identically_to_eager(self):
        benchmark = make_stream("movielens")
        streamed = fit_params(benchmark, benchmark.train)
        eager = fit_params(benchmark, oracle_view(benchmark.train))
        np.testing.assert_array_equal(streamed, eager)


def logged_generations(dataset) -> list[int]:
    """Wrap ``dataset``'s source to log each shard index it generates."""
    generate, calls = dataset.source.generate_chunk, []

    def logged(index: int):
        calls.append(index)
        return generate(index)

    dataset.source.generate_chunk = logged
    return calls


def small_stream(name: str):
    """Streams of at most two shards, so later epochs reuse the LRU's shards."""
    if name == "aliexpress":
        return make_aliexpress_stream(
            num_records=256, chunk_size=128, val_records=32, test_records=32,
            seed=3,
        )
    if name == "synthetic":
        return make_synthetic_stream(
            num_samples=256, chunk_size=128, val_records=32, test_records=32,
            seed=3,
        )
    return make_movielens_stream(
        genres=("Crime", "Documentary", "Fantasy"),
        records_per_genre=128,
        chunk_size=128,
        val_records=32,
        test_records=32,
        seed=3,
    )


class TestShardReuseInTraining:
    def test_movielens_genre_shards_are_generated_once_over_three_epochs(self):
        benchmark = small_stream("movielens")
        calls = {genre: logged_generations(data) for genre, data in benchmark.train.items()}
        fit_params(benchmark, benchmark.train, epochs=3)
        assert calls == {genre: [0] for genre in benchmark.train}

    @pytest.mark.parametrize(
        "name,grad_space",
        [
            ("aliexpress", "parameters"),
            ("aliexpress", "features"),
            ("synthetic", "parameters"),
            ("synthetic", "features"),
            ("movielens", "parameters"),  # feature space is single-input only
        ],
    )
    def test_reusing_shards_trains_identically_to_the_materialized_oracle(
        self, name, grad_space
    ):
        benchmark = small_stream(name)
        datasets = (
            benchmark.train.values() if isinstance(benchmark.train, dict) else [benchmark.train]
        )
        calls = [logged_generations(data) for data in datasets]
        streamed = fit_params(benchmark, benchmark.train, grad_space=grad_space, epochs=3)
        for data, generated in zip(datasets, calls):
            assert sorted(generated) == list(range(data.num_shards))  # each once
        eager = fit_params(
            benchmark, oracle_view(benchmark.train), grad_space=grad_space, epochs=3
        )
        np.testing.assert_array_equal(streamed, eager)


class TestTrainerShutdown:
    def test_step_exception_propagates_and_leaks_no_thread(self, monkeypatch):
        benchmark = make_stream("synthetic")
        model = benchmark.build_model("hps", np.random.default_rng(0))
        trainer = MTLTrainer(
            model, benchmark.tasks, create_balancer("equal", seed=0), seed=0
        )
        original = trainer.train_step_single
        calls = {"count": 0}

        def failing_step(x, targets):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("step exploded")
            return original(x, targets)

        monkeypatch.setattr(trainer, "train_step_single", failing_step)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="step exploded"):
            trainer.fit(benchmark.train, epochs=1, batch_size=64)
        assert threading.active_count() == before


class TestBoundedMemory:
    def test_streaming_peak_is_flat_when_rows_grow_10x(self):
        def peak_bytes(rows: int) -> int:
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                benchmark = make_synthetic_stream(
                    num_samples=rows, chunk_size=128, val_records=8, test_records=8
                )
                for x, _ in DataLoader(benchmark.train, 64, seed=0):
                    x.sum()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak

        base = peak_bytes(1024)
        grown = peak_bytes(10240)
        assert grown < 2 * base, (
            f"streaming peak grew from {base} to {grown} bytes across a "
            "10x row-count step — the working set is not bounded"
        )
