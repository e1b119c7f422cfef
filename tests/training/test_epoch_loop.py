"""The epoch loop over the one loader, and the dynamics it records.

- an in-memory dataset trains as a one-shard stream, batches indexed from
  the dataset's own arrays, and no fit starts a thread;
- an epoch draws exactly the batches it trains on, so a
  ``max_steps_per_epoch`` cut on a shard boundary leaves the trainer's rng
  where a loader advanced by those batches leaves it;
- ``record_dynamics`` accepts a recorder instance, and samples every step.
"""

import itertools
import threading

import numpy as np
import pytest

from repro.core.balancer import create_balancer
from repro.data import DataLoader, make_synthetic_mtl, make_synthetic_stream
from repro.obs import DynamicsRecorder
from repro.training import MTLTrainer

BENCH = make_synthetic_mtl(num_tasks=3, num_samples=200, pairwise_cosine=-0.3, seed=2)


def make_trainer(bench=BENCH, method="equal", **kwargs):
    model = bench.build_model("hps", np.random.default_rng(0))
    return MTLTrainer(model, bench.tasks, create_balancer(method, seed=0), seed=4, **kwargs)


def record_thread_starts(monkeypatch) -> list[str]:
    """Patch ``Thread.start``; the list logs the name of every thread started."""
    started, original_start = [], threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        return original_start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def test_eager_fit_starts_no_prefetch_thread_and_indexes_in_place(monkeypatch):
    dataset = BENCH.train
    shards = []

    def recording_load(index, telemetry=None):
        shards.append(type(dataset).load_shard(dataset, index, telemetry))
        return shards[-1]

    started = record_thread_starts(monkeypatch)
    monkeypatch.setattr(dataset, "load_shard", recording_load)
    make_trainer().fit(dataset, epochs=2, batch_size=32)
    assert started == []
    assert len(shards) == 2  # shard 0, once per epoch
    for inputs, targets in shards:
        assert np.shares_memory(inputs, dataset.inputs)
        for name, target in targets.items():
            assert np.shares_memory(target, dataset.targets[name])


def test_streaming_fit_starts_no_thread(monkeypatch):
    bench = make_synthetic_stream(
        num_samples=512, chunk_size=128, val_records=32, test_records=32, seed=1
    )
    started = record_thread_starts(monkeypatch)
    make_trainer(bench).fit(bench.train, epochs=2, batch_size=32, eval_data=bench.val)
    assert started == []


def test_max_steps_on_a_shard_boundary_draws_only_trained_batches():
    bench = make_synthetic_stream(
        num_samples=512 + 64, chunk_size=128, val_records=32, test_records=32, seed=1
    )
    trainer = make_trainer(bench)
    reference = np.random.default_rng()
    reference.bit_generator.state = trainer.rng.bit_generator.state
    # 4 batches of 32 fill exactly the first shard in the drawn order.
    trainer.fit(bench.train, epochs=1, batch_size=32, max_steps_per_epoch=4)
    loader = DataLoader(bench.train, 32, rng=reference)
    epoch = iter(loader)
    trained = list(itertools.islice(epoch, 4))
    epoch.close()
    assert len(trained) == 4
    assert trainer.rng.bit_generator.state == reference.bit_generator.state


def test_record_dynamics_accepts_an_empty_recorder_instance():
    recorder = DynamicsRecorder(capacity=64)
    assert len(recorder) == 0  # falsy until it holds a sample
    trainer = make_trainer(record_dynamics=recorder)
    assert trainer.recorder is recorder
    trainer.fit(BENCH.train, epochs=1, batch_size=32, max_steps_per_epoch=3)
    assert [sample["step"] for sample in recorder.samples()] == [1, 2, 3]


@pytest.mark.parametrize("disabled", [False, None])
def test_record_dynamics_off(disabled):
    assert make_trainer(record_dynamics=disabled).recorder is None
