"""Worker process: an arena-packed model replica over shared memory.

Each worker builds its own model from ``spec.model_factory`` and packs it
into a :class:`~repro.nn.arena.ParameterArena` whose *data* buffer is the
shared ``params`` region (``load=True`` — the replica adopts the parent's
published weights, and every later optimizer step is visible without any
copy) and whose *grad* buffer is the worker's private row of the shared
``worker_grads`` slab.  A step then runs entirely in-place:

1. zero the grad slab;
2. forward + multi-root backward on the shard ``indices[lo:hi]``;
3. write the ``(K, ds)`` per-task shared-partition gradients into
   ``task_grads[worker]`` and the per-task losses into ``losses[worker]``
   (full-model gradients land in ``worker_grads[worker]`` as autograd's
   side effect);
4. ack ``(worker, step, "ok", compute_seconds)``.

No gradient, parameter, or batch data is ever pickled — the queues carry
only small command/ack tuples.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..data.base import ArrayDataset
from ..nn.arena import ParameterArena
from ..nn.module import Parameter
from ..nn.tensor import backward_multi
from ..nn.utils import grad_vector_from_slots
from ..obs import NULL_TELEMETRY, JsonlSink, Telemetry
from .shm import ArenaDims, SharedArenaBuffers, SharedIndexBuffer

__all__ = ["WorkerSpec", "arena_order", "worker_sink_path", "worker_main"]


def arena_order(model) -> tuple[list[Parameter], list[Parameter]]:
    """``(ordered, shared)`` — the canonical packing order of a model.

    Shared parameters first (so the balancer's partition is one contiguous
    arena prefix), task-specific parameters after, duplicates dropped by
    identity.  Parent and workers both pack in this order, which is what
    makes their flat buffers element-compatible.
    """
    shared = model.shared_parameters()
    shared_ids = {id(p) for p in shared}
    ordered = list(shared) + [p for p in model.parameters() if id(p) not in shared_ids]
    return ordered, shared


def worker_sink_path(base: str | os.PathLike, index: int) -> Path:
    """Per-worker JSONL path: ``run.jsonl`` → ``run.worker<i>.jsonl``.

    Workers must not share the parent's sink file (interleaved writes from
    multiple processes tear JSONL lines); ``repro report`` accepts the
    whole file set and merges it.
    """
    base = Path(base)
    return base.with_name(f"{base.stem}.worker{index}{base.suffix}")


@dataclass
class WorkerSpec:
    """Everything a worker needs to reconstruct its replica.

    ``model_factory`` must deterministically rebuild the parent's model
    *structure* (same parameters, shapes, packing order); the replica's
    initial values are discarded in favour of the shared buffer.  Under
    the ``spawn`` start method every field must be picklable — use
    module-level factories and loss functions, not closures or lambdas.
    """

    model_factory: Callable[[], object]
    task_names: list[str]
    loss_fns: list[Callable]
    dataset: ArrayDataset
    telemetry_base: str | None = field(default=None)

    def __post_init__(self) -> None:
        if len(self.task_names) != len(self.loss_fns):
            raise ValueError(
                f"{len(self.task_names)} task names but {len(self.loss_fns)} loss fns"
            )


def worker_main(
    spec: WorkerSpec,
    index: int,
    arena_name: str,
    dims: ArenaDims,
    index_name: str,
    index_capacity: int,
    command_queue,
    ack_queue,
) -> None:
    """Worker process entry point: attach, replicate, serve step commands.

    Commands: ``("step", step, lo, hi)`` computes shard ``[lo, hi)`` of the
    current index buffer and acks; ``("stop",)`` exits the loop.  Any
    exception during a step is acked as ``("error", traceback)`` so the
    parent can surface it instead of hanging on the barrier.
    """
    buffers = SharedArenaBuffers.attach(arena_name, dims)
    indices = SharedIndexBuffer.attach(index_name, index_capacity)
    telemetry = NULL_TELEMETRY
    if spec.telemetry_base is not None:
        sink_path = worker_sink_path(spec.telemetry_base, index)
        telemetry = Telemetry(sinks=[JsonlSink(str(sink_path))])
    try:
        model = spec.model_factory()
        ordered, shared = arena_order(model)
        arena = ParameterArena(
            ordered, data=buffers.params, grad=buffers.worker_grads[index], load=True
        )
        model.train()
        task_grads = buffers.task_grads[index]
        losses_row = buffers.losses[index]
        while True:
            command = command_queue.get()
            if command[0] == "stop":
                break
            _, step, lo, hi = command
            started = time.perf_counter()
            try:
                with telemetry.span("worker_step", worker=str(index)):
                    if hi <= lo:
                        arena.zero_grad()
                        task_grads.fill(0.0)
                        losses_row.fill(0.0)
                    else:
                        shard = indices.indices[lo:hi]
                        arena.zero_grad()
                        inputs, targets = spec.dataset.batch(shard)
                        with telemetry.span("forward"):
                            outputs = model.forward_all(inputs)
                            loss_tensors = [
                                loss_fn(outputs[name], targets[name])
                                for name, loss_fn in zip(spec.task_names, spec.loss_fns)
                            ]
                            for k, loss in enumerate(loss_tensors):
                                losses_row[k] = loss.item()
                        with telemetry.span("backward"):
                            slots = backward_multi(
                                loss_tensors, per_root=shared, out=task_grads
                            )
                            for k in range(len(loss_tensors)):
                                grad_vector_from_slots(shared, slots, k, out=task_grads[k])
                if telemetry.enabled:
                    telemetry.counter("worker_steps_total", worker=str(index)).inc()
            except Exception:
                ack_queue.put((index, step, "error", traceback.format_exc()))
                continue
            ack_queue.put((index, step, "ok", time.perf_counter() - started))
    finally:
        if telemetry.enabled:
            telemetry.flush()
        indices.close(unlink=False)
        buffers.close(unlink=False)
