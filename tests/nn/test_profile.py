"""The per-op engine profile: what it records, where, and when it is off."""

import threading
import time

import numpy as np

from repro.balancers import EqualWeighting
from repro.data import make_synthetic_mtl
from repro.nn import OpProfile, Tensor
from repro.nn.functional import linear
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
    assert ops.to_dict() == {"forward": {}, "backward": {}, "walks": [0, 0.0]}


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
    walks, walk_seconds = stats["walks"]
    assert walks == 1
    assert walk_seconds >= sum(s[1] for s in stats["backward"].values())


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
