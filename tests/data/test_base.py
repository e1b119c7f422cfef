"""Tests for dataset machinery: TaskSpec, ArrayDataset, DataLoader, splits."""

import numpy as np
import pytest

from repro.data import (
    MULTI_INPUT,
    SINGLE_INPUT,
    ArrayDataset,
    Benchmark,
    DataLoader,
    TaskSpec,
    batch_count,
    batch_index_iter,
    train_val_test_split,
)
from repro.nn.functional import mse_loss


class TestTaskSpec:
    def test_valid_construction(self):
        spec = TaskSpec("t", mse_loss, {"rmse": lambda o, t: 0.0}, {"rmse": False})
        assert spec.name == "t"

    def test_missing_direction_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec("t", mse_loss, {"rmse": lambda o, t: 0.0}, {})


class TestArrayDataset:
    def test_length(self, rng):
        dataset = ArrayDataset(rng.normal(size=(10, 3)), rng.normal(size=10))
        assert len(dataset) == 10

    def test_batch_indexing(self, rng):
        inputs = rng.normal(size=(10, 3))
        targets = rng.normal(size=10)
        dataset = ArrayDataset(inputs, targets)
        x, y = dataset.batch(np.array([1, 3]))
        np.testing.assert_allclose(x, inputs[[1, 3]])
        np.testing.assert_allclose(y, targets[[1, 3]])

    def test_dict_targets(self, rng):
        dataset = ArrayDataset(
            rng.normal(size=(6, 2)), {"a": rng.normal(size=6), "b": rng.normal(size=6)}
        )
        _, targets = dataset.batch(np.array([0, 5]))
        assert set(targets) == {"a", "b"}
        assert len(targets["a"]) == 2

    def test_tuple_inputs(self, rng):
        inputs = (rng.normal(size=(5, 2, 2)), rng.normal(size=(5, 2, 2)), np.ones((5, 2)))
        dataset = ArrayDataset(inputs, rng.normal(size=5))
        x, _ = dataset.batch(np.array([0, 1]))
        assert isinstance(x, tuple)
        assert all(part.shape[0] == 2 for part in x)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(rng.normal(size=(5, 2)), rng.normal(size=4))

    def test_dict_target_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(rng.normal(size=(5, 2)), {"a": rng.normal(size=4)})

    def test_subset(self, rng):
        dataset = ArrayDataset(rng.normal(size=(8, 2)), rng.normal(size=8))
        sub = dataset.subset(np.array([0, 2, 4]))
        assert len(sub) == 3

    def test_all(self, rng):
        dataset = ArrayDataset(rng.normal(size=(4, 2)), rng.normal(size=4))
        x, y = dataset.all()
        assert len(x) == 4


class TestDataLoader:
    def test_batch_count(self, rng):
        dataset = ArrayDataset(rng.normal(size=(10, 2)), rng.normal(size=10))
        assert len(DataLoader(dataset, 3, rng=rng)) == 4
        assert len(DataLoader(dataset, 3, rng=rng, drop_last=True)) == 3

    def test_covers_all_samples(self, rng):
        targets = np.arange(10.0)
        dataset = ArrayDataset(np.zeros((10, 1)), targets)
        loader = DataLoader(dataset, 3, rng=rng)
        seen = np.concatenate([y for _, y in loader])
        assert sorted(seen) == sorted(targets)

    def test_shuffle_changes_order_between_epochs(self):
        dataset = ArrayDataset(np.zeros((50, 1)), np.arange(50.0))
        loader = DataLoader(dataset, 50, rng=np.random.default_rng(0))
        first = next(iter(loader))[1]
        second = next(iter(loader))[1]
        assert not np.allclose(first, second)

    def test_no_shuffle_keeps_order(self):
        dataset = ArrayDataset(np.zeros((5, 1)), np.arange(5.0))
        loader = DataLoader(dataset, 2, shuffle=False)
        batches = [y for _, y in loader]
        np.testing.assert_allclose(np.concatenate(batches), np.arange(5.0))

    def test_drop_last(self):
        dataset = ArrayDataset(np.zeros((5, 1)), np.arange(5.0))
        loader = DataLoader(dataset, 2, shuffle=False, drop_last=True)
        assert sum(len(y) for _, y in loader) == 4

    def test_invalid_batch_size(self, rng):
        dataset = ArrayDataset(np.zeros((5, 1)), np.zeros(5))
        with pytest.raises(ValueError):
            DataLoader(dataset, 0)

    @pytest.mark.parametrize("n,batch", [(10, 4), (12, 4), (3, 8), (1, 1), (0, 4)])
    @pytest.mark.parametrize("shuffle", [True, False])
    @pytest.mark.parametrize("drop_last", [False, True])
    def test_in_memory_epochs_follow_batch_index_iter(self, n, batch, shuffle, drop_last):
        """An in-memory dataset is one shard: over 3 epochs the loader's
        batches are exactly ``batch_index_iter``'s draws on the same rng."""
        inputs = np.arange(2 * n, dtype=np.float64).reshape(n, 2)
        dataset = ArrayDataset(inputs, {"t": np.arange(n, dtype=np.float64)})
        loader = DataLoader(dataset, batch, seed=21, shuffle=shuffle, drop_last=drop_last)
        reference = np.random.default_rng(21)
        assert len(loader) == batch_count(n, batch, drop_last)
        for _ in range(3):
            expected = list(
                batch_index_iter(n, batch, rng=reference, shuffle=shuffle, drop_last=drop_last)
            )
            batches = list(loader)
            assert len(batches) == len(expected) == len(loader)
            for (x, targets), idx in zip(batches, expected):
                np.testing.assert_array_equal(x, inputs[idx])
                np.testing.assert_array_equal(targets["t"], idx.astype(np.float64))
        assert loader.rng.bit_generator.state == reference.bit_generator.state


class TestSplits:
    def test_proportions(self, rng):
        train, val, test = train_val_test_split(100, rng, 0.2, 0.1)
        assert len(test) == 10
        assert len(val) == 20
        assert len(train) == 70

    def test_disjoint_and_complete(self, rng):
        train, val, test = train_val_test_split(50, rng)
        union = np.concatenate([train, val, test])
        assert sorted(union) == list(range(50))

    def test_invalid_fractions(self, rng):
        with pytest.raises(ValueError):
            train_val_test_split(10, rng, 0.5, 0.5)


class TestBenchmark:
    def _dummy(self, mode=SINGLE_INPUT):
        spec = TaskSpec("t", mse_loss, {}, {})
        data = ArrayDataset(np.zeros((4, 2)), {"t": np.zeros(4)})
        return Benchmark("test", mode, [spec], data, data, data, lambda *a: a)

    def test_task_lookup(self):
        bench = self._dummy()
        assert bench.task("t").name == "t"
        with pytest.raises(KeyError):
            bench.task("missing")

    def test_task_names(self):
        assert self._dummy().task_names == ["t"]

    def test_build_model_defaults_to_every_task(self):
        assert self._dummy().build_model() == ("hps", None, ("t",))

    def test_build_model_checks_tasks(self):
        with pytest.raises(ValueError, match="unknown tasks"):
            self._dummy().build_model("hps", None, tasks=("missing",))

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            self._dummy(mode="both")


class TestDeterministicSeeding:
    def test_shard_rng_is_seed_plus_index(self):
        from repro.data import shard_rng

        expected = np.random.default_rng(5 + 3).random(8)
        np.testing.assert_array_equal(shard_rng(5, 3).random(8), expected)

    def test_shard_rng_rejects_missing_seed(self):
        from repro.data import shard_rng

        with pytest.raises(ValueError, match="seed"):
            shard_rng(None, 0)

    def test_shard_rng_rejects_negative_shard(self):
        from repro.data import shard_rng

        with pytest.raises(ValueError, match="shard_index"):
            shard_rng(0, -1)

    def test_batch_index_iter_covers_each_sample_once(self):
        from repro.data import batch_index_iter

        batches = list(batch_index_iter(10, 4, rng=np.random.default_rng(1)))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert sorted(np.concatenate(batches)) == list(range(10))

    def test_batch_index_iter_drop_last(self):
        from repro.data import batch_index_iter

        batches = list(
            batch_index_iter(10, 4, rng=np.random.default_rng(1), drop_last=True)
        )
        assert [len(b) for b in batches] == [4, 4]

    def test_batch_index_iter_no_shuffle_is_sequential(self):
        from repro.data import batch_index_iter

        batches = list(batch_index_iter(6, 3, shuffle=False))
        np.testing.assert_array_equal(batches[0], [0, 1, 2])
        np.testing.assert_array_equal(batches[1], [3, 4, 5])

    def test_loader_and_index_iter_share_one_stream(self, rng):
        """The loader's batch order IS batch_index_iter over the same rng."""
        from repro.data import batch_index_iter

        inputs = np.arange(20, dtype=np.float64).reshape(10, 2)
        dataset = ArrayDataset(inputs, {"t": np.zeros(10)})
        loader = DataLoader(dataset, 4, seed=13)
        indices = batch_index_iter(10, 4, rng=np.random.default_rng(13))
        for (batch_inputs, _targets), idx in zip(loader, indices):
            np.testing.assert_array_equal(batch_inputs, inputs[idx])

    def test_unseeded_loaders_are_reproducible(self):
        """Regression: the rng=None fallback must not draw OS entropy."""
        dataset = ArrayDataset(np.arange(12, dtype=np.float64).reshape(12, 1), np.zeros(12))
        first = [b for b, _ in DataLoader(dataset, 5)]
        second = [b for b, _ in DataLoader(dataset, 5)]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_loader_rejects_rng_and_seed_together(self):
        dataset = ArrayDataset(np.zeros((4, 1)), np.zeros(4))
        with pytest.raises(ValueError, match="rng or seed"):
            DataLoader(dataset, 2, rng=np.random.default_rng(0), seed=1)
