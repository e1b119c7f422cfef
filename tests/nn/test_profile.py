"""The per-op engine profile: what it records, where, and when it is off."""

import threading
import time

import numpy as np

from repro.balancers import EqualWeighting
from repro.data import make_synthetic_mtl
from repro.nn import OpProfile, Tensor, backward_multi
from repro.nn.functional import embedding, linear
from repro.nn.profile import active_op_profile
from repro.obs import NULL_TELEMETRY
from repro.training import MTLTrainer


def _graph():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(5, 3)))
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    return x, w, b


def test_off_by_default_and_records_nothing():
    assert active_op_profile() is None
    ops = OpProfile()
    x, w, b = _graph()
    linear(x, w, b).relu().sum().backward()
    assert ops.to_dict() == {"forward": {}, "backward": {}, "walks": [0, 0.0, 0]}


def test_page_faults_are_read_only_while_profiling(monkeypatch):
    from repro.nn import profile

    def fail():
        raise AssertionError("getrusage read with no profile active")

    monkeypatch.setattr(profile, "_minor_faults", fail)
    x, w, b = _graph()
    linear(x, w, b).sum().backward()


def test_counts_calls_bytes_and_walks():
    x, w, b = _graph()
    with OpProfile() as ops:
        assert active_op_profile() is ops
        hidden = linear(x, w, b)
        loss = hidden.relu().sum()
        loss.backward()
    assert active_op_profile() is None
    stats = ops.to_dict()
    assert sorted(stats["forward"]) == ["linear", "relu", "sum"]
    assert stats["forward"]["linear"][0] == 1
    assert stats["forward"]["linear"][2] == hidden.data.nbytes
    assert stats["forward"]["sum"][2] == 8
    assert sorted(stats["backward"]) == ["linear", "relu", "sum"]
    # linear's adjoint returns x (None: no grad), W and b gradients.
    assert stats["backward"]["linear"][2] == w.data.nbytes + b.data.nbytes
    walks, walk_seconds, faults = stats["walks"]
    assert walks == 1
    assert walk_seconds >= sum(s[1] for s in stats["backward"].values())
    assert isinstance(faults, int) and faults >= 0


def test_walk_counts_the_page_faults_of_a_fresh_large_gradient():
    # 40 MB is above glibc's largest mmap threshold, so the sum adjoint's
    # broadcast copy is a fresh mapping that faults in as it is written.
    x = Tensor(np.ones(5_000_000), requires_grad=True)
    loss = x.sum()
    with OpProfile() as ops:
        backward_multi([loss], per_root=[x])
    assert ops.walks[2] > 0


def test_row_sparse_gradient_counts_values_and_rows():
    table = Tensor(np.ones((1000, 4)), requires_grad=True)
    ids = np.array([[3, 7], [3, 9]])
    with OpProfile() as ops:
        backward_multi([embedding(table, ids).sum()], per_root=[table])
    # three distinct rows: (1, 3, 4) float64 values plus three int64 rows
    assert ops.backward["embedding"][2] == 3 * 4 * 8 + 3 * 8


def test_profiles_nest_and_restore():
    x, w, b = _graph()
    with OpProfile() as outer:
        linear(x, w, b)
        with OpProfile() as inner:
            linear(x, w).relu()
        assert active_op_profile() is outer
        linear(x, w)
    assert outer.forward["linear"][0] == 2 and "relu" not in outer.forward
    assert inner.forward["linear"][0] == 1 and inner.forward["relu"][0] == 1


def test_profile_is_per_thread():
    x, w, b = _graph()
    seen = []

    def other_thread():
        seen.append(active_op_profile())
        linear(x, w, b)

    with OpProfile() as ops:
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
    assert seen == [None]
    assert ops.forward == {}


def test_inference_mode_ops_are_not_recorded():
    from repro.nn import inference_mode

    x, w, b = _graph()
    with OpProfile() as ops, inference_mode():
        linear(x, w, b)
    assert ops.forward == {}


def test_trainer_restarts_the_lap_at_each_step():
    benchmark = make_synthetic_mtl(num_tasks=2, num_samples=128, seed=0)
    model = benchmark.build_model("hps", np.random.default_rng(0))
    trainer = MTLTrainer(
        model, benchmark.tasks, EqualWeighting(), seed=0, telemetry=NULL_TELEMETRY
    )
    inputs, targets = benchmark.train.batch(np.arange(32))
    with OpProfile() as ops:
        for _ in range(3):
            time.sleep(0.02)  # stands in for the loader and the optimizer
            trainer.train_step_single(inputs, targets)
    forward_seconds = sum(stats[1] for stats in ops.forward.values())
    assert forward_seconds < 0.02
    assert ops.forward["linear"][0] % 3 == 0 and ops.walks[0] == 3
