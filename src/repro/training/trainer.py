"""Multi-task trainer: one step pipeline over per-task gradients.

Reproduces the LibMTL-style optimization loop the paper runs on
(Algorithm 1).  Every optimization step runs the same five stages:

1. **collect** — forward every task, then ONE multi-root backward
   (:func:`repro.nn.tensor.backward_multi`: one topological sort, one walk
   over the union graph of all K task losses) fills a reused trainer-owned
   ``(K, dim)`` matrix with each task's gradient.  In parallel mode the
   workers compute shard gradients and the executor's weighted reduce
   fills the same matrix.
2. **accumulate** (``accumulate_steps=W > 1`` only, GCond-style) — sum the
   matrix and the losses over ``W`` micro-steps; model gradients sum in the
   arena because micro-steps skip ``zero_grad``.
3. **resolve** — the balancer (MoCoGrad or any baseline) turns the
   (window-mean) matrix into one direction, once per window.
4. **write-back** — the direction replaces the shared gradient.
5. **step** — one optimizer step over the parameter arena, then zero.

Only *collect* depends on the input (single-input, multi-input or the
parallel reduce); what depends on the gradient space lives in one
gradient-source object per space.  ``grad_space="parameters"`` rows are
shared-parameter gradients, written back into the shared partition.
``grad_space="features"`` rows are gradients of the shared representation
z (the paper's §VI-C mode): the forward cuts the graph at z, and
write-back back-propagates ``direction / W`` through each retained trunk
graph, so balancing costs O(K·d_feat) instead of O(K·d).

The model's parameters always live in one contiguous
:class:`~repro.nn.arena.ParameterArena` (shared partition first), so row
fills and write-back are slice copies, ``zero_grad`` is one fill and the
optimizer steps that arena with its fused flat kernel.

Observability
-------------
Every step is traced with nested :mod:`repro.obs` spans::

    step                      whole optimization step
    ├── forward               all task forwards (losses computed)
    ├── backward              backward-only wall-clock (Fig. 8's quantity)
    │   └── task_backward     one per task, labelled task=<name>
    ├── balance               balancer.balance (conflict counters inside)
    ├── backward_shared       trunk backprop (grad_space="features" only)
    └── optimizer_step        parameter update

The union-graph walk is not separable by task, so each ``task_backward``
span wraps one root's *accumulation* into the gradient matrix; the walk
itself is the remainder of the enclosing ``backward`` span.  Within an
accumulation window every micro-step records ``forward``/``backward``;
``balance``, ``backward_shared`` and ``optimizer_step`` are recorded once
per window.  Counters: ``train_steps_total`` / ``train_epochs_total``,
plus per-task ``train_loss`` gauges.

The flight recorder builds on the same spans: ``profile=`` exports the
step timeline as Chrome ``trace_event`` JSON and ``record_dynamics=``
keeps a bounded per-step series of conflict geometry (GCD, cosine
extrema, grad norms) and balancer state (MoCoGrad λ / momentum norms) —
see DESIGN.md ("Flight recorder").
"""

from __future__ import annotations

import itertools
import time
import warnings
from typing import Callable, Mapping, Sequence

import numpy as np

from ..arch.base import MTLModel
from ..core.balancer import GradientBalancer
from ..core.ema import EMANormalizer
from ..data.base import MULTI_INPUT, SINGLE_INPUT, ArrayDataset, TaskSpec
from ..data.streaming import DataLoader
from ..nn.arena import ParameterArena
from ..nn.optim import SGD, Adam, AdaGrad, Optimizer, RMSProp
from ..nn.tensor import Tensor, backward_multi
from ..nn.utils import grad_vector_from_slots, set_grad_from_vector
from ..obs import NULL_TELEMETRY, DynamicsRecorder, Profiler, Telemetry, default_sinks
from ..parallel import (
    ArenaDims,
    ParallelExecutor,
    SharedArenaBuffers,
    WorkerSpec,
    arena_order,
)
from .history import History

__all__ = ["MTLTrainer", "GRAD_SPACES"]

#: Valid gradient spaces: balance per-task gradients of the shared
#: *parameters* (the ``(K, d)`` matrix) or of the shared *representation*
#: (the ``(K, d_feat)`` matrix, one trunk backprop per step).
GRAD_SPACES = ("parameters", "features")


def _make_optimizer(name: str, arena: ParameterArena, lr: float) -> Optimizer:
    name = name.lower()
    if name == "adam":
        return Adam(arena, lr=lr)
    if name == "sgd":
        return SGD(arena, lr=lr)
    if name == "sgdm":
        return SGD(arena, lr=lr, momentum=0.9)
    if name == "adagrad":
        return AdaGrad(arena, lr=lr)
    if name == "rmsprop":
        return RMSProp(arena, lr=lr)
    raise ValueError(f"unknown optimizer {name!r}; use adam, sgd, sgdm, adagrad or rmsprop")


def _build_arena(model: MTLModel) -> ParameterArena:
    """Pack the model into one arena in :func:`~repro.parallel.arena_order`.

    The ordering matters: with the shared partition contiguous at offset 0,
    the row fills and the write-back hit the zero-copy segment fast path in
    :mod:`repro.nn.utils`.  If the model is already packed (e.g. a second
    trainer over the same model), the existing arena is reused when it
    covers exactly the model's parameters.  A partial or foreign packing is
    rejected: repacking would detach the other arena's live views.
    """
    ordered, _ = arena_order(model)
    existing = next((p._arena for p in ordered if p._arena is not None), None)
    if existing is None:
        return ParameterArena(ordered)
    if all(p._arena is existing for p in ordered) and len(existing.parameters) == len(ordered):
        return existing
    raise ValueError(
        "the model's parameters are partly packed into another ParameterArena; "
        "call arena.unpack() on that arena before building a trainer"
    )


class _ParameterSource:
    """``grad_space="parameters"``: rows are shared-parameter gradients."""

    def __init__(self, model: MTLModel) -> None:
        #: the tensors whose per-task gradients form the rows
        self.roots: list[Tensor] = model.shared_parameters()
        #: trunk graphs awaiting write-back — always empty here, because
        #: parameter gradients accumulate in the arena by themselves
        self.retained: list[Tensor] = []

    @staticmethod
    def forward(model: MTLModel, inputs) -> dict[str, Tensor]:
        return model.forward_all(inputs)

    def write_back(self, combined: np.ndarray, window: int, telemetry: Telemetry) -> None:
        """The direction becomes the shared partition's gradient."""
        set_grad_from_vector(self.roots, combined)


class _FeatureSource:
    """``grad_space="features"``: rows are gradients of the representation.

    The forward cuts the graph at the trunk output: the heads run on a
    detached leaf (the single root of the per-task backward), while the
    trunk output and its graph are retained for the write-back.
    """

    def __init__(self) -> None:
        self.roots: list[Tensor] = []
        self.retained: list[Tensor] = []

    def forward(self, model: MTLModel, inputs) -> dict[str, Tensor]:
        features = model.shared_features(inputs)
        cut = Tensor(features.data)
        cut.requires_grad = True
        self.roots = [cut]
        self.retained.append(features)
        return model.forward_heads(cut, inputs)

    def write_back(self, combined: np.ndarray, window: int, telemetry: Telemetry) -> None:
        """Back-propagate ``combined / W`` through each retained trunk graph.

        ``Σ_w J_wᵀ (combined / W)`` is the window-mean chain rule; for
        ``W = 1`` it is the single trunk backprop that makes this space
        fast.  It is still backward time, so it gets its own span and
        :attr:`MTLTrainer.backward_seconds` includes it.
        """
        graphs, self.retained = self.retained, []
        seed = (combined / window).reshape(graphs[0].shape)
        with telemetry.span("backward_shared"):
            for graph in graphs:
                graph.backward(seed)


class MTLTrainer:
    """Trains an :class:`~repro.arch.base.MTLModel` under a gradient balancer.

    Each step runs collect → (accumulate) → resolve → write-back → step;
    see the module docstring.

    Parameters
    ----------
    model, tasks, balancer:
        The architecture, the task specifications (order defines the task
        axis of the gradient matrix) and the balancing strategy.
    mode:
        ``"single_input"`` (one batch feeds all tasks) or ``"multi_input"``
        (one batch per task per step).
    grad_space:
        ``"parameters"`` (default) or ``"features"`` (see the module
        docstring).  Features work with every balancer and every
        single-input architecture implementing
        :meth:`~repro.arch.base.MTLModel.shared_features`.  Note that
        stateful balancers (MoCoGrad, GradVac) shape their state to
        d_feat, which follows the batch shape — keep batch sizes fixed
        (or use a stateless balancer) when the loader yields a partial
        trailing batch.
    feature_ema:
        Optional EMA smoothing factor in ``[0, 1)`` enabling a
        :class:`~repro.core.ema.EMANormalizer` over the feature-gradient
        rows (``grad_space="features"`` only): per-task rows are rescaled
        so their *smoothed* norms agree before balancing, keeping task
        scales comparable across steps.  ``None`` (default) applies no
        normalization.
    optimizer / lr:
        Optimizer name (adam, sgd, sgdm, adagrad, rmsprop) and learning
        rate; the paper uses Adam at 1e-4 (recommendation/vision) or 3e-3
        (QM9).  The optimizer runs over the trainer's parameter arena.
    seed:
        Seeds batch order; balancer randomness is seeded separately through
        the balancer's own ``seed``.
    telemetry:
        A :class:`repro.obs.Telemetry` instance, or None to create a
        private one attached to the process-wide default sinks (installed
        by ``python -m repro --telemetry``).  Pass
        ``repro.obs.NULL_TELEMETRY`` to disable instrumentation entirely.
    profile:
        Flight-recorder timeline profiling.  A path string enables
        profiling and exports a Chrome ``trace_event`` JSON there when
        :meth:`fit` completes (load it in ``chrome://tracing`` or
        Perfetto); a :class:`repro.obs.Profiler` instance attaches as-is
        (export it yourself).  Requires enabled telemetry.
    accumulate_steps:
        GCond-style accumulate-then-resolve window ``W``.  ``1`` (default)
        resolves conflicts every step.  ``W > 1`` sums the per-task
        gradient matrices and losses over ``W`` micro-steps, then calls
        :meth:`~repro.core.balancer.GradientBalancer.resolve_accumulated`
        *once* (so stateful balancers — MoCoGrad momentum, DWA history —
        advance once per resolve) and takes one optimizer step on the
        window-mean gradients.  Works with every balancer, in both
        gradient spaces, and in parallel mode.  With
        ``grad_space="features"`` each micro-step's trunk graph is
        retained and back-propagated at the window boundary, so memory
        grows with ``W`` retained forward graphs; a mid-window
        feature-dimension change (batch-size change) discards the open
        window with a ``RuntimeWarning``.
    parallel:
        ``0`` (default) trains in-process.  ``N ≥ 1`` creates the trainer's
        arena over a :mod:`repro.parallel` shared-memory block and, inside
        :meth:`fit`, runs each batch as ``N`` worker processes over
        deterministic contiguous shards with a weighted flat-sum reduce —
        the same batch stream as sequential training, matching it ≤ 1e-12.
        Requires ``model_factory``, single-input mode and
        ``grad_space="parameters"``.  Call :meth:`close` (or use the
        trainer as a context manager) to release the shared-memory block.
    model_factory:
        Zero-argument callable rebuilding the model *structure* in each
        worker (same parameters, same order; values are adopted from the
        shared buffer).  Must be picklable under the ``spawn`` start
        method.  Required when ``parallel ≥ 1``.
    start_method / worker_telemetry / step_timeout:
        Parallel-mode knobs: the multiprocessing start method (default
        ``fork`` where available, else ``spawn``); a base JSONL path giving
        every worker its own telemetry sink (``run.jsonl`` →
        ``run.worker<i>.jsonl``; merge with ``repro report``); and the
        per-step barrier timeout in seconds before a silent worker is
        declared crashed.
    record_dynamics:
        Per-step conflict-dynamics recording into a bounded
        :class:`repro.obs.DynamicsRecorder` (``trainer.recorder``):
        ``True`` for the default 1024-sample stride recorder, an int for
        a custom capacity, or a preconfigured recorder instance.  Each
        step that resolves — every step, or with ``accumulate_steps=W``
        the last micro-step of each window — samples the balancer's
        :class:`~repro.core.gradstats.GradStats`
        (per-task grad norms, pairwise GCD, mean GCD, conflicting-pair
        fraction, cosine extrema) plus the balancer's
        :meth:`~repro.core.balancer.GradientBalancer.dynamics` state
        (MoCoGrad: λ, momentum norms) and per-task losses — the live
        version of the paper's Section III diagnostics, summarized by
        :func:`repro.analysis.conflict_trajectory`.  :meth:`fit` flushes
        the retained samples to the telemetry sinks as ``dynamics``
        events (``repro report --dynamics`` renders them).
    """

    def __init__(
        self,
        model: MTLModel,
        tasks: Sequence[TaskSpec],
        balancer: GradientBalancer,
        mode: str = SINGLE_INPUT,
        grad_space: str = "parameters",
        optimizer: str = "adam",
        lr: float = 1e-3,
        seed: int | None = None,
        telemetry: Telemetry | None = None,
        profile: str | Profiler | None = None,
        record_dynamics: bool | int | DynamicsRecorder = False,
        accumulate_steps: int = 1,
        parallel: int = 0,
        model_factory: Callable[[], MTLModel] | None = None,
        start_method: str | None = None,
        worker_telemetry: str | None = None,
        step_timeout: float = 120.0,
        feature_ema: float | None = None,
    ) -> None:
        if mode not in (SINGLE_INPUT, MULTI_INPUT):
            raise ValueError(f"mode must be {SINGLE_INPUT!r} or {MULTI_INPUT!r}")
        if grad_space not in GRAD_SPACES:
            raise ValueError(f"grad_space must be one of {GRAD_SPACES}; got {grad_space!r}")
        if grad_space == "features" and mode != SINGLE_INPUT:
            raise ValueError("feature-level gradients require single-input MTL")
        if accumulate_steps < 1:
            raise ValueError(f"accumulate_steps must be ≥ 1; got {accumulate_steps}")
        if feature_ema is not None and grad_space != "features":
            raise ValueError("feature_ema requires grad_space='features'")
        if parallel < 0:
            raise ValueError(f"parallel must be ≥ 0; got {parallel}")
        if parallel:
            if model_factory is None:
                raise ValueError("parallel training requires a model_factory")
            if mode != SINGLE_INPUT:
                raise ValueError("parallel training requires single-input mode")
            if grad_space != "parameters":
                raise ValueError("parallel training requires grad_space='parameters'")
        model_tasks = set(model.task_names)
        spec_tasks = {task.name for task in tasks}
        if model_tasks != spec_tasks:
            raise ValueError(f"model tasks {model_tasks} do not match specs {spec_tasks}")
        self.model = model
        self.tasks = list(tasks)
        self.balancer = balancer
        self.mode = mode
        self.grad_space = grad_space
        #: where the rows of the gradient matrix come from, and where the
        #: balanced direction is written back (one object per space)
        self.source = _FeatureSource() if grad_space == "features" else _ParameterSource(model)
        #: EMA norm-normalizer over the feature-gradient rows, or None
        self.feature_normalizer = (
            EMANormalizer(beta=feature_ema) if feature_ema is not None else None
        )
        self.accumulate_steps = int(accumulate_steps)
        self.parallel = int(parallel)
        self.model_factory = model_factory
        self._start_method = start_method
        self._worker_telemetry = worker_telemetry
        self._step_timeout = step_timeout
        #: parent-owned shared-memory block (parallel mode), or None
        self.shared_buffers: SharedArenaBuffers | None = None
        #: the contiguous parameter arena (shared partition first); None
        #: only after :meth:`close` released a parallel trainer
        self.arena: ParameterArena | None = None
        try:
            self.arena = self._pack(model)
            self.optimizer = _make_optimizer(optimizer, self.arena, lr)
        except BaseException:
            # Never leave the model packed into an orphaned shared block.
            self.close()
            raise
        self.rng = np.random.default_rng(seed)
        self.balancer.reset(len(self.tasks))
        self.history = History([task.name for task in self.tasks])
        self.step_count = 0
        self.telemetry = telemetry if telemetry is not None else Telemetry(sinks=default_sinks())
        self.balancer.telemetry = self.telemetry
        self._step_labels = {"method": self.balancer.name, "mode": self.mode}
        #: Chrome-trace profiler (``profile=`` kwarg), or None.
        self.profiler: Profiler | None = None
        self._profile_path: str | None = None
        if profile is not None:
            if isinstance(profile, Profiler):
                self.profiler = profile
            else:
                self._profile_path = str(profile)
                self.profiler = Profiler()
            self.profiler.attach(self.telemetry)
        #: bounded per-step dynamics recorder (``record_dynamics=``), or None.
        self.recorder: DynamicsRecorder | None = None
        if record_dynamics is not False and record_dynamics is not None:
            if isinstance(record_dynamics, DynamicsRecorder):
                self.recorder = record_dynamics
            elif record_dynamics is True:
                self.recorder = DynamicsRecorder()
            else:
                self.recorder = DynamicsRecorder(capacity=int(record_dynamics))
        # Preallocated (K, dim) per-task gradient workspaces, reused across
        # steps and keyed by dim (allocated lazily once a dim is seen) — the
        # parameter-space d and the batch-shaped feature-space d_feat can
        # interleave without reallocating.  Balancers never retain the
        # matrix, so reuse is safe; `task_gradients` hands out fresh
        # matrices because its callers may keep them.
        self._grad_workspaces: dict[int, np.ndarray] = {}
        # Accumulate-stage state: running (K, dim) gradient sum, (K,) loss
        # sum and the micro-step count within the open window.
        self._acc_grads: np.ndarray | None = None
        self._acc_losses: np.ndarray | None = None
        self._micro_steps = 0

    # ------------------------------------------------------------------
    def _pack(self, model: MTLModel) -> ParameterArena:
        """The model's arena; in parallel mode, packed into a new shared block."""
        if not self.parallel:
            return _build_arena(model)
        # Parallel mode packs straight into the shared block so the fused
        # optimizer step doubles as the parameter broadcast.
        ordered, shared = arena_order(model)
        dims = ArenaDims(
            num_workers=self.parallel,
            num_tasks=len(self.tasks),
            dim_total=sum(p.size for p in ordered),
            dim_shared=sum(p.size for p in shared),
        )
        self.shared_buffers = SharedArenaBuffers.create(dims)
        return ParameterArena(
            ordered, data=self.shared_buffers.params, grad=self.shared_buffers.parent_grad
        )

    def close(self) -> None:
        """Release the parallel shared-memory block (no-op otherwise).

        Idempotent; required in parallel mode once the trainer is done —
        shared-memory segments outlive the process if never unlinked.  The
        model keeps its (now copied-out) parameters usable via
        :meth:`~repro.nn.arena.ParameterArena.unpack`, which also leaves
        ``trainer.optimizer`` raising instead of stepping released memory.
        """
        if self.shared_buffers is None:
            return
        if self.arena is not None:
            self.arena.unpack()
            self.arena = None
        self.shared_buffers.close()
        self.shared_buffers = None

    def __enter__(self) -> "MTLTrainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    #: Max distinct gradient widths cached by :meth:`_workspace` (FIFO).
    _MAX_WORKSPACES = 8

    def _workspace(self, dim: int) -> np.ndarray:
        """The trainer-owned ``(K, dim)`` gradient matrix for this width.

        One buffer per dim: parameter-space steps (d), feature-space steps
        (d_feat, which follows the batch shape) and varying batch sizes all
        keep their own reused buffer instead of thrashing a single cache
        slot.  Bounded so a pathological dim sequence cannot grow it
        without limit.
        """
        workspace = self._grad_workspaces.get(dim)
        if workspace is None:
            if len(self._grad_workspaces) >= self._MAX_WORKSPACES:
                self._grad_workspaces.pop(next(iter(self._grad_workspaces)))
            self._grad_workspaces[dim] = workspace = np.empty((len(self.tasks), dim))
        return workspace

    # ------------------------------------------------------------------
    # The step pipeline
    # ------------------------------------------------------------------
    def train_step_single(self, inputs, targets: Mapping[str, np.ndarray]) -> np.ndarray:
        """One step in single-input mode; returns per-task loss values."""
        return self._step(self._collect_single, inputs, targets)

    def train_step_multi(self, batches: Mapping[str, tuple]) -> np.ndarray:
        """One step in multi-input mode; ``batches[task] = (inputs, targets)``."""
        return self._step(self._collect_multi, batches)

    def _step(self, collect: Callable, *batch) -> np.ndarray:
        """Run one (micro-)step: collect, then accumulate → resolve → step."""
        telemetry = self.telemetry
        with telemetry.span("step", **self._step_labels):
            self.model.train()
            if self._micro_steps == 0:
                # A new window starts from zero gradients and no trunk
                # graphs, even if the previous step raised part-way.
                self.arena.zero_grad()
                self.source.retained.clear()
            grads, losses = collect(*batch, telemetry)
            self._update(grads, losses, telemetry)
        self._finish_step(losses)
        return losses

    def _collect_single(
        self, inputs, targets: Mapping[str, np.ndarray], telemetry: Telemetry
    ) -> tuple[np.ndarray, np.ndarray]:
        """Collect stage, single-input: one forward feeds every task."""
        with telemetry.span("forward"):
            outputs = self.source.forward(self.model, inputs)
            loss_tensors = [
                task.loss_fn(outputs[task.name], targets[task.name]) for task in self.tasks
            ]
            losses = np.array([loss.item() for loss in loss_tensors])
        return self._backward(loss_tensors, telemetry), losses

    def _collect_multi(
        self, batches: Mapping[str, tuple], telemetry: Telemetry
    ) -> tuple[np.ndarray, np.ndarray]:
        """Collect stage, multi-input: one forward per task on its own batch."""
        with telemetry.span("forward"):
            loss_tensors = []
            for task in self.tasks:
                inputs, targets = batches[task.name]
                loss_tensors.append(task.loss_fn(self.model.forward(inputs, task.name), targets))
            losses = np.array([loss.item() for loss in loss_tensors])
        return self._backward(loss_tensors, telemetry), losses

    def _backward(self, loss_tensors: list[Tensor], telemetry: Telemetry) -> np.ndarray:
        """The ``(K, dim)`` matrix of per-task gradients of the source's roots."""
        roots = self.source.roots
        grads = self._workspace(sum(root.size for root in roots))
        with telemetry.span("backward"):
            self._task_gradients_into(loss_tensors, roots, grads, telemetry)
        if self.feature_normalizer is not None:
            self.feature_normalizer.normalize(grads)
        return grads

    def _task_gradients_into(
        self,
        loss_tensors: list[Tensor],
        roots: list[Tensor],
        grads: np.ndarray,
        telemetry: Telemetry,
    ) -> None:
        """Fill ``grads[k]`` with task k's gradient w.r.t. ``roots``.

        One union-graph walk (``backward_multi``) collects every root at
        once; each ``task_backward`` span then wraps that root's
        accumulation into the matrix.  A root a task's graph never reaches
        contributes zeros (e.g. a head disconnected from the trunk).  The
        walk also accumulates task-specific (head) gradients into
        ``.grad``, ready for the optimizer step.
        """
        slots = backward_multi(loss_tensors, per_root=roots)
        for k, task in enumerate(self.tasks):
            with telemetry.span("task_backward", task=task.name):
                grad_vector_from_slots(roots, slots, k, out=grads[k])

    def _update(self, grads: np.ndarray, losses: np.ndarray, telemetry: Telemetry) -> None:
        """Accumulate → resolve → write-back → step (resolve once per window)."""
        window = self.accumulate_steps
        if window > 1:
            if not self._accumulate(grads, losses):
                return
            grads, losses = self._acc_grads, self._acc_losses
            # The model gradients summed over the window become their mean.
            self.arena.grad *= 1.0 / window
        with telemetry.span("balance", method=self.balancer.name):
            combined = self.balancer.resolve_accumulated(grads, losses, window)
        self.source.write_back(combined, window, telemetry)
        with telemetry.span("optimizer_step"):
            self.optimizer.step()
        self.arena.zero_grad()
        self._micro_steps = 0

    def _accumulate(self, grads: np.ndarray, losses: np.ndarray) -> bool:
        """Fold one micro-step into the open window; True once it is full.

        A window left partially filled (e.g. at the end of ``fit``) stays
        open — its micro-steps apply no update until the window completes.
        A mid-window width change (a batch-size change in feature space)
        discards the open window with a warning rather than mixing
        incompatible spaces; the current micro-step opens a fresh one.
        """
        if self._micro_steps and self._acc_grads.shape != grads.shape:
            warnings.warn(
                "feature-space accumulation window discarded: the feature "
                f"dimension changed from {self._acc_grads.shape[1]} to "
                f"{grads.shape[1]} mid-window (batch-size change); the dropped "
                "micro-steps apply no update",
                RuntimeWarning,
                stacklevel=5,
            )
            self._micro_steps = 0
            self.arena.zero_grad()
            del self.source.retained[:-1]
        if self._micro_steps == 0:
            self._acc_grads = np.zeros_like(grads)
            self._acc_losses = np.zeros_like(losses)
        self._acc_grads += grads
        self._acc_losses += losses
        self._micro_steps += 1
        return self._micro_steps >= self.accumulate_steps

    def _finish_step(self, losses: np.ndarray) -> None:
        """Per-step bookkeeping: history, counters, dynamics sample."""
        self.step_count += 1
        self.history.record_step(losses)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.counter("train_steps_total", **self._step_labels).inc()
            for task, loss in zip(self.tasks, losses):
                telemetry.gauge("train_loss", task=task.name).set(float(loss))
        if self.recorder is not None and self._micro_steps == 0:
            # Only a resolving step has fresh balancer stats to sample.
            self._record_dynamics_sample(losses)

    def _record_dynamics_sample(self, losses: np.ndarray) -> None:
        """Offer this step's conflict-dynamics sample to the recorder.

        Reads the :class:`~repro.core.gradstats.GradStats` the balancer
        built during ``balance()`` (no extra ``d``-length work) plus the
        balancer's own dynamics hook; keyed by the 1-based step index.
        The sample dict is built lazily — a high-stride recorder that
        discards this step never pays for the snapshot.
        """

        def build() -> dict:
            sample: dict = {"losses": [float(loss) for loss in losses]}
            stats = self.balancer.gradstats
            if stats is not None:
                sample.update(stats.snapshot())
            sample.update(self.balancer.dynamics())
            return sample

        self.recorder.record(self.step_count, build)

    # ------------------------------------------------------------------
    # Gradient inspection (used by the TCI/GCD analysis)
    # ------------------------------------------------------------------
    def task_gradients(self, inputs, targets: Mapping[str, np.ndarray]) -> np.ndarray:
        """Per-task shared-parameter gradients without updating anything.

        Runs the step's multi-root collect over the shared parameters, in
        either gradient space, and returns a fresh ``(K, d)`` matrix (not
        the trainer's step workspace) — callers are free to keep it across
        calls.
        """
        self.model.train()
        shared = self.model.shared_parameters()
        self.arena.zero_grad()
        outputs = self.model.forward_all(inputs)
        loss_tensors = [
            task.loss_fn(outputs[task.name], targets[task.name]) for task in self.tasks
        ]
        grads = np.empty((len(self.tasks), sum(p.size for p in shared)))
        # Inspection path: no step is running, so spans stay out of the
        # step/backward accounting.
        self._task_gradients_into(loss_tensors, shared, grads, NULL_TELEMETRY)
        self.arena.zero_grad()
        return grads

    # ------------------------------------------------------------------
    # Epoch loops
    # ------------------------------------------------------------------
    def fit(
        self,
        train_data,
        epochs: int,
        batch_size: int,
        eval_data=None,
        max_steps_per_epoch: int | None = None,
        drop_last: bool = False,
    ) -> History:
        """Train for ``epochs`` epochs; optionally evaluate per epoch.

        ``train_data`` is an :class:`ArrayDataset` or
        :class:`~repro.data.streaming.StreamingDataset` (single-input), or
        a ``{task: dataset}`` mapping of either (multi-input); every
        dataset is walked by the one
        :class:`~repro.data.streaming.DataLoader`.  Streaming datasets
        iterate in bounded memory — shards are generated (or mmap-loaded)
        on demand, double-buffered by a prefetch thread that is shut down
        even when a training step raises; an in-memory dataset is one
        shard, indexed in place.  ``drop_last`` discards each shard's
        trailing partial batch — useful when a stateful balancer assumes a
        fixed batch shape.  An epoch draws exactly the batches it trains
        on, ``max_steps_per_epoch`` included.  On completion the trainer's
        metric registry is flushed to the attached sinks.

        In parallel mode the worker pool is started on entry and shut down
        before returning (even on error), so workers never outlive a fit.
        """
        executor = None
        if self.parallel:
            executor = self._start_executor(train_data, batch_size)
        try:
            for _ in range(epochs):
                if executor is not None:
                    self._run_epoch_parallel(
                        executor, train_data, batch_size, max_steps_per_epoch, drop_last
                    )
                else:
                    self._run_epoch(train_data, batch_size, max_steps_per_epoch, drop_last)
                metrics = self.evaluate(eval_data) if eval_data is not None else None
                self.history.close_epoch(metrics)
                self.telemetry.counter("train_epochs_total", **self._step_labels).inc()
        finally:
            if executor is not None:
                executor.shutdown()
        self.flush_dynamics()
        self.telemetry.flush()
        if self.profiler is not None and self._profile_path is not None:
            self.profiler.export_chrome_trace(self._profile_path)
        return self.history

    def flush_dynamics(self) -> None:
        """Emit the recorder's retained samples to the telemetry sinks.

        Called automatically at the end of :meth:`fit`; call it directly
        when stepping the trainer manually.  Safe to call repeatedly —
        the report layer dedupes dynamics events by step.
        """
        if self.recorder is None or not self.telemetry.enabled:
            return
        meta = {"tasks": [task.name for task in self.tasks]}
        for event in self.recorder.to_events(meta=meta):
            self.telemetry.emit(event)

    # ------------------------------------------------------------------
    # Parallel (shared-memory data-parallel) training
    # ------------------------------------------------------------------
    def _start_executor(self, dataset: ArrayDataset, batch_size: int) -> ParallelExecutor:
        """Spawn the worker pool for one ``fit`` over ``dataset``."""
        spec = WorkerSpec(
            model_factory=self.model_factory,
            task_names=[task.name for task in self.tasks],
            loss_fns=[task.loss_fn for task in self.tasks],
            dataset=dataset,
            telemetry_base=self._worker_telemetry,
        )
        return ParallelExecutor(
            spec,
            self.shared_buffers,
            batch_size,
            start_method=self._start_method,
            step_timeout=self._step_timeout,
        )

    def _run_epoch_parallel(
        self,
        executor: ParallelExecutor,
        dataset: ArrayDataset,
        batch_size: int,
        max_steps,
        drop_last: bool = False,
    ) -> None:
        # The loader's index stream: the same generator calls as its
        # sequential epoch, cut at the same step count, so parallel and
        # sequential runs with equal seeds walk identical batch streams.
        # Every batch lies inside one shard, so each worker's contiguous
        # slice touches a single shard of its own dataset copy.
        loader = self._make_loader(dataset, batch_size, drop_last)
        steps = self._epoch_steps([loader], max_steps)
        for idx in itertools.islice(loader.batch_indices(), steps):
            self._parallel_train_step(executor, idx)

    def _parallel_train_step(
        self, executor: ParallelExecutor, batch_indices: np.ndarray
    ) -> np.ndarray:
        """One data-parallel step: the executor reduce is the collect stage."""
        return self._step(self._collect_parallel, executor, batch_indices)

    def _collect_parallel(
        self, executor: ParallelExecutor, batch_indices: np.ndarray, telemetry: Telemetry
    ) -> tuple[np.ndarray, np.ndarray]:
        """Collect stage, parallel: dispatch → barrier → weighted reduce.

        The workers produce weighted shard gradients whose flat-sum equals
        the sequential whole-batch gradient (per-sample mean losses compose
        exactly under ``n_w / n`` weights); the rest of the pipeline then
        runs exactly as in the single-process step.  Raises
        :class:`~repro.parallel.WorkerCrashed` if a worker dies mid-step.
        """
        with telemetry.span("dispatch"):
            executor.dispatch(
                self.step_count, np.ascontiguousarray(batch_indices, dtype=np.int64)
            )
        wait_started = time.perf_counter()
        with telemetry.span("shard_compute"):
            busy_seconds = executor.wait(self.step_count)
        wait_wall = time.perf_counter() - wait_started
        if telemetry.enabled and wait_wall > 0:
            for worker, busy in enumerate(busy_seconds):
                telemetry.gauge("parallel_worker_utilization", worker=str(worker)).set(
                    min(busy / wait_wall, 1.0)
                )
        grads = self._workspace(sum(p.size for p in self.source.roots))
        losses = np.empty(len(self.tasks))
        with telemetry.span("reduce"):
            executor.reduce(
                grads,
                self.arena.grad,
                losses,
                accumulate_full=self.accumulate_steps > 1,
            )
        return grads, losses

    def _make_loader(self, dataset, batch_size: int, drop_last: bool) -> DataLoader:
        """The epoch loader for one dataset, drawing from the trainer's rng."""
        return DataLoader(
            dataset, batch_size, rng=self.rng, drop_last=drop_last, telemetry=self.telemetry
        )

    @staticmethod
    def _epoch_steps(loaders: list[DataLoader], max_steps) -> int:
        """Steps in one epoch: the longest loader, capped at ``max_steps``."""
        steps = max(len(loader) for loader in loaders)
        return steps if max_steps is None else min(steps, max_steps)

    def _run_epoch(self, train_data, batch_size: int, max_steps, drop_last: bool = False) -> None:
        """One epoch; single-input is one loader feeding every task.

        Exactly ``steps`` batches are drawn per loader, so no batch past
        ``max_steps`` consumes the trainer's rng.  In multi-input mode a
        shorter task loader restarts (a fresh epoch order) when it runs
        out.
        """
        single = self.mode == SINGLE_INPUT
        datasets = {None: train_data} if single else train_data
        loaders = {
            name: self._make_loader(dataset, batch_size, drop_last)
            for name, dataset in datasets.items()
        }
        steps = self._epoch_steps(list(loaders.values()), max_steps)
        empty = sorted(name for name, loader in loaders.items() if len(loader) == 0)
        if steps > 0 and empty:
            # Cycling an empty loader would StopIteration forever; name the
            # offender instead (drop_last with batch_size > rows hits this).
            raise ValueError(
                f"task datasets {empty} yield no batches at batch_size="
                f"{batch_size} with drop_last={drop_last}"
            )
        names = [None] if single else [task.name for task in self.tasks]
        iterators = {name: iter(loader) for name, loader in loaders.items()}
        # Closing in a finally (not just on exhaustion) is what guarantees
        # a raising train step leaves no prefetch thread behind — and a
        # generator's close() never masks the in-flight exception.
        try:
            for _ in range(steps):
                batches = {}
                for name in names:
                    try:
                        batches[name] = next(iterators[name])
                    except StopIteration:
                        iterators[name] = iter(loaders[name])
                        batches[name] = next(iterators[name])
                if single:
                    self.train_step_single(*batches[None])
                else:
                    self.train_step_multi(batches)
        finally:
            for iterator in iterators.values():
                iterator.close()

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, data, batch_size: int = 256) -> dict[str, dict[str, float]]:
        """Task → metric → value on held-out data (no gradients)."""
        from .evaluation import evaluate_model

        return evaluate_model(self.model, self.tasks, data, self.mode, batch_size)

    # ------------------------------------------------------------------
    # Timing views (span-backed)
    # ------------------------------------------------------------------
    @property
    def last_step_seconds(self) -> float:
        """Wall-clock seconds of the most recent optimization step."""
        durations = self.telemetry.durations("step")
        return durations[-1] if durations else 0.0

    @property
    def backward_seconds(self) -> list[float]:
        """Per-step *backward-only* seconds (the paper's Fig. 8 quantity).

        Sum of the per-task backward passes; with
        ``grad_space="features"`` the shared-trunk backprop is included
        as well.
        """
        per_step = self.telemetry.durations("step/backward")
        shared = self.telemetry.durations("step/backward_shared")
        if shared and len(shared) == len(per_step):
            return [b + s for b, s in zip(per_step, shared)]
        return per_step

    @property
    def mean_step_seconds(self) -> float:
        """Average wall-clock seconds per *whole* optimization step."""
        durations = self.telemetry.durations("step")
        return float(np.mean(durations)) if durations else 0.0

    @property
    def median_step_seconds(self) -> float:
        """Median step time — robust to scheduler noise."""
        durations = self.telemetry.durations("step")
        return float(np.median(durations)) if durations else 0.0

    @property
    def mean_backward_seconds(self) -> float:
        """Average backward-only seconds per step (Fig. 8)."""
        durations = self.backward_seconds
        return float(np.mean(durations)) if durations else 0.0

    @property
    def median_backward_seconds(self) -> float:
        """Median backward-only seconds per step (Fig. 8)."""
        durations = self.backward_seconds
        return float(np.median(durations)) if durations else 0.0
