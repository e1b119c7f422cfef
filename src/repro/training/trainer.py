"""Multi-task trainer: one step pipeline over per-task gradients.

Reproduces the LibMTL-style optimization loop the paper runs on
(Algorithm 1).  Every optimization step runs the same four stages:

1. **collect** — zero the arena, forward every task, then ONE multi-root
   backward (:func:`repro.nn.tensor.backward_multi`: one topological sort,
   one walk over the union graph of all K task losses) fills a reused
   trainer-owned ``(K, dim)`` matrix with each task's gradient; an
   embedding table's gradient is written as its touched rows only.
2. **resolve** — the balancer (MoCoGrad or any baseline) turns the
   matrix into one direction.
3. **write-back** — the direction replaces the shared gradient.
4. **step** — one optimizer step over the parameter arena.

Only *collect* depends on the input (single-input or multi-input); what
depends on the gradient space lives in one gradient-source object per
space.  ``grad_space="parameters"`` rows are shared-parameter gradients,
written back into the shared partition.  ``grad_space="features"`` rows
are gradients of the shared representation z (the paper's §VI-C mode):
the forward cuts the graph at z, and write-back back-propagates the
direction through the retained trunk graph, so balancing costs
O(K·d_feat) instead of O(K·d).

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
itself is the remainder of the enclosing ``backward`` span.  Counters:
``train_steps_total`` / ``train_epochs_total``, plus per-task
``train_loss`` gauges.

The flight recorder builds on the same spans: ``profile=`` exports the
step timeline as Chrome ``trace_event`` JSON and ``record_dynamics=``
keeps a bounded per-step series of conflict geometry (GCD, cosine
extrema, grad norms) and balancer state (MoCoGrad λ / momentum norms) —
see DESIGN.md ("Flight recorder").
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from ..arch.base import MTLModel
from ..core.balancer import GradientBalancer
from ..data.base import MULTI_INPUT, SINGLE_INPUT, TaskSpec
from ..data.streaming import DataLoader
from ..nn.arena import ParameterArena
from ..nn.optim import SGD, Adam, AdaGrad, Optimizer, RMSProp
from ..nn.profile import active_op_profile
from ..nn.tensor import Tensor, backward_multi
from ..nn.utils import grad_vector_from_slots, set_grad_from_vector
from ..obs import NULL_TELEMETRY, DynamicsRecorder, Profiler, Telemetry, default_sinks
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
    """Pack the model into one arena: shared parameters, then the rest.

    This is the one owner of the packing order (duplicates are dropped by
    identity).  The ordering matters: with the shared partition contiguous
    at offset 0, the row fills and the write-back hit the zero-copy segment
    fast path in :mod:`repro.nn.utils`.  If the model is already packed (e.g. a second
    trainer over the same model), the existing arena is reused when it
    covers exactly the model's parameters.  A partial or foreign packing is
    rejected: repacking would detach the other arena's live views.
    """
    shared = model.shared_parameters()
    shared_ids = {id(p) for p in shared}
    ordered = shared + [p for p in model.parameters() if id(p) not in shared_ids]
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

    @staticmethod
    def forward(model: MTLModel, inputs) -> dict[str, Tensor]:
        return model.forward_all(inputs)

    def write_back(self, combined: np.ndarray, telemetry: Telemetry) -> None:
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
        #: the step's trunk output, its graph retained for the write-back
        self.features: Tensor | None = None

    def forward(self, model: MTLModel, inputs) -> dict[str, Tensor]:
        self.features = model.shared_features(inputs)
        cut = Tensor(self.features.data)
        cut.requires_grad = True
        self.roots = [cut]
        return model.forward_heads(cut, inputs)

    def write_back(self, combined: np.ndarray, telemetry: Telemetry) -> None:
        """Back-propagate ``combined`` through the retained trunk graph.

        This single trunk backprop is what makes this space fast.  It is
        still backward time, so it gets its own span and
        :attr:`MTLTrainer.backward_seconds` includes it.
        """
        features, self.features = self.features, None
        with telemetry.span("backward_shared"):
            features.backward(combined.reshape(features.shape))


class MTLTrainer:
    """Trains an :class:`~repro.arch.base.MTLModel` under a gradient balancer.

    Each step runs collect → resolve → write-back → step; see the module
    docstring.

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
        :meth:`~repro.arch.base.MTLModel.shared_features`.  A feature
        row is batch × d_feat wide, so its width follows the batch
        size; MoCoGrad's per-task momentum is shaped to it and raises on
        a partial trailing batch — train it with
        ``fit(..., drop_last=True)``.
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
    record_dynamics:
        Per-step conflict-dynamics recording into a bounded
        :class:`repro.obs.DynamicsRecorder` (``trainer.recorder``):
        ``True`` for the default 1024-sample stride recorder, an int for
        a custom capacity, or a preconfigured recorder instance.  Every
        step samples the balancer's
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
    ) -> None:
        if mode not in (SINGLE_INPUT, MULTI_INPUT):
            raise ValueError(f"mode must be {SINGLE_INPUT!r} or {MULTI_INPUT!r}")
        if grad_space not in GRAD_SPACES:
            raise ValueError(f"grad_space must be one of {GRAD_SPACES}; got {grad_space!r}")
        if grad_space == "features" and mode != SINGLE_INPUT:
            raise ValueError("feature-level gradients require single-input MTL")
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
        #: the contiguous parameter arena (shared partition first)
        self.arena: ParameterArena = _build_arena(model)
        self.optimizer = _make_optimizer(optimizer, self.arena, lr)
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

    # ------------------------------------------------------------------
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
        """Run one step: collect, then resolve → write-back → step."""
        telemetry = self.telemetry
        with telemetry.span("step", **self._step_labels):
            self.model.train()
            # The step's one zeroing: it also clears what a step that
            # raised part-way left behind.
            self.arena.zero_grad()
            ops = active_op_profile()
            if ops is not None:
                # The step's first forward lap starts here, not at the
                # previous step's optimizer or the data loader.
                ops.restart_lap()
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
        once, writing row-sparse embedding gradients straight into
        ``grads``; each ``task_backward`` span then completes that root's
        row (the dense slots, zeros for parameters it never reached).  A
        root a task's graph never reaches contributes zeros (e.g. a head
        disconnected from the trunk).  The
        walk also accumulates task-specific (head) gradients into
        ``.grad``, ready for the optimizer step.
        """
        slots = backward_multi(loss_tensors, per_root=roots, out=grads)
        for k, task in enumerate(self.tasks):
            with telemetry.span("task_backward", task=task.name):
                grad_vector_from_slots(roots, slots, k, out=grads[k])

    def _update(self, grads: np.ndarray, losses: np.ndarray, telemetry: Telemetry) -> None:
        """Resolve → write-back → step."""
        with telemetry.span("balance", method=self.balancer.name):
            combined = self.balancer.balance(grads, losses)
        self.source.write_back(combined, telemetry)
        with telemetry.span("optimizer_step"):
            self.optimizer.step()

    def _finish_step(self, losses: np.ndarray) -> None:
        """Per-step bookkeeping: history, counters, dynamics sample."""
        self.step_count += 1
        self.history.record_step(losses)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.counter("train_steps_total", **self._step_labels).inc()
            for task, loss in zip(self.tasks, losses):
                telemetry.gauge("train_loss", task=task.name).set(float(loss))
        if self.recorder is not None:
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
        iterate in bounded memory — shards are generated on demand, on
        this thread; an in-memory dataset is one shard,
        indexed in place.  ``drop_last`` discards each shard's
        trailing partial batch.  Feature-space MoCoGrad needs it: a
        ``grad_space="features"`` row is batch × features wide, so a
        partial batch changes the width of the momentum's rows and
        MoCoGrad raises.  An epoch draws exactly the batches it trains
        on, ``max_steps_per_epoch`` included.  On completion the trainer's
        metric registry is flushed to the attached sinks.
        """
        for _ in range(epochs):
            self._run_epoch(train_data, batch_size, max_steps_per_epoch, drop_last)
            metrics = self.evaluate(eval_data) if eval_data is not None else None
            self.history.close_epoch(metrics)
            self.telemetry.counter("train_epochs_total", **self._step_labels).inc()
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
            name: DataLoader(
                dataset, batch_size, rng=self.rng, drop_last=drop_last, telemetry=self.telemetry
            )
            for name, dataset in datasets.items()
        }
        # The longest loader sets the epoch, capped at max_steps.
        steps = max(len(loader) for loader in loaders.values())
        if max_steps is not None:
            steps = min(steps, max_steps)
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
    def median_step_seconds(self) -> float:
        """Median step time — robust to scheduler noise."""
        durations = self.telemetry.durations("step")
        return float(np.median(durations)) if durations else 0.0

    @property
    def median_backward_seconds(self) -> float:
        """Median backward-only seconds per step (Fig. 8)."""
        durations = self.backward_seconds
        return float(np.median(durations)) if durations else 0.0
