"""Regression bound on instrumentation cost.

The observability layer must be cheap enough to leave on: with a no-op
sink attached, an instrumented ``train_step_single`` must stay within
1.5× the median uninstrumented step time on the synthetic benchmark.
The same bar applies to the full flight recorder (profiler collecting
every span + per-step dynamics recording) in its default configuration
(memory tracking off), and to the per-op engine profile
(``repro.nn.OpProfile``).

The two trainers are stepped in alternation (A, B, A, B, …) so that any
background load on the test machine inflates both medians equally rather
than biasing whichever variant happened to run second.
"""

import time

import numpy as np

from repro.balancers import EqualWeighting
from repro.data import make_synthetic_mtl
from repro.obs import NULL_TELEMETRY, NullSink, Telemetry
from repro.training import MTLTrainer


def _make_trainer(telemetry, **kwargs):
    benchmark = make_synthetic_mtl(num_tasks=2, num_samples=512, seed=0)
    model = benchmark.build_model("hps", np.random.default_rng(0))
    trainer = MTLTrainer(
        model,
        benchmark.tasks,
        EqualWeighting(),
        seed=0,
        telemetry=telemetry,
        **kwargs,
    )
    rng = np.random.default_rng(1)
    idx = rng.choice(len(benchmark.train), size=64, replace=False)
    inputs, targets = benchmark.train.batch(idx)
    return trainer, inputs, targets


def _timed_step(trainer, inputs, targets) -> float:
    start = time.perf_counter()
    trainer.train_step_single(inputs, targets)
    return time.perf_counter() - start


def measure_overhead(steps=40, warmup=5, **instrumented_kwargs):
    """Median step times (uninstrumented, instrumented), interleaved."""
    bare = _make_trainer(NULL_TELEMETRY)
    instrumented = _make_trainer(
        Telemetry(sinks=[NullSink()]), **instrumented_kwargs
    )
    bare_times, instrumented_times = [], []
    for step in range(warmup + steps):
        bare_elapsed = _timed_step(*bare)
        instrumented_elapsed = _timed_step(*instrumented)
        if step >= warmup:
            bare_times.append(bare_elapsed)
            instrumented_times.append(instrumented_elapsed)
    return float(np.median(bare_times)), float(np.median(instrumented_times))


def _assert_within_1_5x(uninstrumented, instrumented, what):
    assert instrumented <= 1.5 * uninstrumented, (
        f"{what} overhead too high: instrumented {instrumented * 1e6:.0f}µs vs "
        f"uninstrumented {uninstrumented * 1e6:.0f}µs"
    )


def test_instrumented_step_within_1_5x_of_uninstrumented():
    uninstrumented, instrumented = measure_overhead()
    if instrumented > 1.5 * uninstrumented:
        # One retry with more samples guards against a transient load spike.
        uninstrumented, instrumented = measure_overhead(steps=120, warmup=10)
    _assert_within_1_5x(uninstrumented, instrumented, "telemetry")


def test_full_flight_recorder_within_1_5x_of_uninstrumented():
    """Profiler + dynamics recorder (defaults: no tracemalloc) stay ≤ 1.5×."""
    from repro.obs import Profiler

    kwargs = dict(profile=Profiler(), record_dynamics=True)
    uninstrumented, instrumented = measure_overhead(**kwargs)
    if instrumented > 1.5 * uninstrumented:
        uninstrumented, instrumented = measure_overhead(
            steps=120, warmup=10, **kwargs
        )
    _assert_within_1_5x(uninstrumented, instrumented, "flight recorder")


def measure_op_profile_overhead(steps=40, warmup=5):
    """Median step times (bare, inside an OpProfile), interleaved."""
    from repro.nn import OpProfile

    bare = _make_trainer(NULL_TELEMETRY)
    profiled = _make_trainer(NULL_TELEMETRY)
    ops = OpProfile()
    bare_times, profiled_times = [], []
    for step in range(warmup + steps):
        bare_elapsed = _timed_step(*bare)
        start = time.perf_counter()
        with ops:
            profiled[0].train_step_single(*profiled[1:])
        profiled_elapsed = time.perf_counter() - start
        if step >= warmup:
            bare_times.append(bare_elapsed)
            profiled_times.append(profiled_elapsed)
    assert ops.walks[0] == warmup + steps
    return float(np.median(bare_times)), float(np.median(profiled_times))


def test_op_profile_within_1_5x_of_uninstrumented():
    """The per-op engine profile (calls, seconds, bytes per op) stays ≤ 1.5×."""
    uninstrumented, instrumented = measure_op_profile_overhead()
    if instrumented > 1.5 * uninstrumented:
        uninstrumented, instrumented = measure_op_profile_overhead(steps=120, warmup=10)
    _assert_within_1_5x(uninstrumented, instrumented, "op profile")
