"""Step-protocol robustness: crashes, errors, timeouts, clean teardown."""

import multiprocessing as mp
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.balancer import create_balancer
from repro.parallel import WorkerCrashed, WorkerSpec, worker_sink_path
from repro.training import MTLTrainer

from tests.parallel import support


def _parallel_trainer(tasks=None, **kwargs):
    model = support.hps_factory()
    return MTLTrainer(
        model,
        tasks if tasks is not None else support.BENCH.tasks,
        create_balancer("mocograd", seed=3),
        seed=11,
        optimizer="sgd",
        parallel=2,
        model_factory=support.hps_factory,
        **kwargs,
    )


def _no_live_workers():
    return not [p for p in mp.active_children() if p.name.startswith("repro-worker")]


def test_killed_worker_process_raises_worker_crashed():
    trainer = _parallel_trainer()
    try:
        executor = trainer._start_executor(support.BENCH.train, 64)
        try:
            victim = executor.processes[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            executor.dispatch(0, np.arange(64, dtype=np.int64))
            with pytest.raises(WorkerCrashed, match="worker 1 failed at step 0"):
                executor.wait(0)
        finally:
            executor.shutdown()
    finally:
        trainer.close()
    assert _no_live_workers()


def test_worker_crashed_carries_worker_and_step():
    error = WorkerCrashed(3, 17, "boom")
    assert error.worker == 3
    assert error.step == 17
    assert error.detail == "boom"
    assert "worker 3 failed at step 17: boom" in str(error)


def test_worker_exception_surfaces_traceback():
    trainer = _parallel_trainer(
        tasks=support.tasks_with_first_loss(support.erroring_loss)
    )
    try:
        with pytest.raises(WorkerCrashed, match="intentional failure"):
            trainer.fit(
                support.BENCH.train, epochs=1, batch_size=64, max_steps_per_epoch=2
            )
    finally:
        trainer.close()
    assert _no_live_workers()


def test_worker_hard_exit_surfaces_as_crash():
    trainer = _parallel_trainer(
        tasks=support.tasks_with_first_loss(support.exiting_loss)
    )
    try:
        with pytest.raises(WorkerCrashed, match="process died"):
            trainer.fit(
                support.BENCH.train, epochs=1, batch_size=64, max_steps_per_epoch=2
            )
    finally:
        trainer.close()
    assert _no_live_workers()


def test_step_timeout_raises_worker_crashed():
    trainer = _parallel_trainer(
        tasks=support.tasks_with_first_loss(support.slow_loss), step_timeout=1.5
    )
    try:
        with pytest.raises(WorkerCrashed, match="no ack within"):
            trainer.fit(
                support.BENCH.train, epochs=1, batch_size=64, max_steps_per_epoch=1
            )
    finally:
        trainer.close()
    assert _no_live_workers()


def test_fit_then_close_leaves_no_children():
    trainer = _parallel_trainer()
    try:
        trainer.fit(support.BENCH.train, epochs=1, batch_size=64, max_steps_per_epoch=2)
    finally:
        trainer.close()
    assert _no_live_workers()


def test_executor_shutdown_is_idempotent():
    trainer = _parallel_trainer()
    try:
        executor = trainer._start_executor(support.BENCH.train, 64)
        executor.shutdown()
        executor.shutdown()
    finally:
        trainer.close()
    assert _no_live_workers()


def test_trainer_close_is_idempotent():
    trainer = _parallel_trainer()
    trainer.close()
    trainer.close()


def test_trainer_context_manager_closes():
    with _parallel_trainer() as trainer:
        trainer.fit(support.BENCH.train, epochs=1, batch_size=64, max_steps_per_epoch=1)
    assert trainer.shared_buffers is None
    assert _no_live_workers()


def _shm_segments() -> set[str] | None:
    """Names of the POSIX shared-memory segments, or None where unlisted."""
    shm = Path("/dev/shm")
    return {name for name in os.listdir(shm) if name.startswith("psm_")} if shm.is_dir() else None


@pytest.mark.parametrize("bad_kwargs", [{"optimizer": "nope"}, {"lr": 0.0}], ids=["name", "lr"])
def test_invalid_optimizer_releases_shared_block(bad_kwargs):
    """A constructor that fails after allocating the shared block must
    unlink it and leave the model unpacked, not packed into an orphan."""
    before = _shm_segments()
    model = support.hps_factory()
    with pytest.raises(ValueError):
        MTLTrainer(
            model,
            support.BENCH.tasks,
            create_balancer("mocograd", seed=3),
            parallel=2,
            model_factory=support.hps_factory,
            **bad_kwargs,
        )
    assert all(param._arena is None for param in model.parameters())
    if before is not None:
        assert _shm_segments() - before == set()


_STEP_AFTER_CLOSE = """
from repro.core.balancer import create_balancer
from repro.training import MTLTrainer
from tests.parallel import support

trainer = MTLTrainer(
    support.hps_factory(),
    support.BENCH.tasks,
    create_balancer("mocograd", seed=3),
    optimizer="sgd",
    parallel=2,
    model_factory=support.hps_factory,
)
trainer.close()
try:
    trainer.optimizer.step()
except RuntimeError as error:
    print("raised:", error)
"""


def test_optimizer_step_after_close_raises():
    """After close() released the block, a stale optimizer step must raise a
    Python error instead of writing to unmapped memory (SIGSEGV)."""
    import repro

    root = Path(__file__).resolve().parents[2]
    src = str(Path(repro.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _STEP_AFTER_CLOSE],
        cwd=root,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, str(root)])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, f"exit {result.returncode}: {result.stderr}"
    assert "raised:" in result.stdout and "unpacked" in result.stdout


def test_parallel_requires_model_factory():
    model = support.hps_factory()
    with pytest.raises(ValueError, match="model_factory"):
        MTLTrainer(
            model,
            support.BENCH.tasks,
            create_balancer("mocograd", seed=3),
            parallel=2,
        )


def test_parallel_requires_parameter_space_and_single_input():
    for bad_kwargs, match in [
        ({"grad_space": "features"}, "grad_space"),
        ({"mode": "multi_input"}, "single-input"),
    ]:
        model = support.hps_factory()
        with pytest.raises(ValueError, match=match):
            MTLTrainer(
                model,
                support.BENCH.tasks,
                create_balancer("mocograd", seed=3),
                parallel=2,
                model_factory=support.hps_factory,
                **bad_kwargs,
            )


def test_worker_spec_validates_task_loss_arity():
    with pytest.raises(ValueError, match="task names"):
        WorkerSpec(
            model_factory=support.hps_factory,
            task_names=["a", "b"],
            loss_fns=[support.erroring_loss],
            dataset=support.BENCH.train,
        )


def test_worker_sink_path_naming():
    assert worker_sink_path(Path("/tmp/run.jsonl"), 0) == Path("/tmp/run.worker0.jsonl")
    assert worker_sink_path("out/telemetry.jsonl", 3) == Path(
        "out/telemetry.worker3.jsonl"
    )


def test_worker_telemetry_writes_per_worker_files(tmp_path):
    from repro.obs import load_run_events, summarize_events

    base = tmp_path / "run.jsonl"
    trainer = _parallel_trainer(worker_telemetry=str(base))
    try:
        trainer.fit(support.BENCH.train, epochs=1, batch_size=64, max_steps_per_epoch=3)
    finally:
        trainer.close()
    worker_files = sorted(tmp_path.glob("run.worker*.jsonl"))
    assert [p.name for p in worker_files] == ["run.worker0.jsonl", "run.worker1.jsonl"]
    events = load_run_events([str(p) for p in worker_files])
    summary = summarize_events(events)
    per_worker = summary["counters"]["worker_steps_total"]
    assert sum(per_worker.values()) == 6  # 3 steps × 2 workers, summed across files
    assert len(per_worker) == 2  # one labelled series per worker
