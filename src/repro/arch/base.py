"""Architecture base class for multi-task models.

An :class:`MTLModel` exposes the split the gradient balancers need:

- ``shared_parameters()`` — parameters updated by *every* task's loss (the
  heavy-weight θ_sh of the paper); per-task gradients are collected over
  these and fed to the balancer;
- ``task_specific_parameters(task)`` — parameters only task ``task``'s loss
  touches (light-weight θ_k); their gradients never conflict and are applied
  directly.

An architecture with a single cut between the two implements
``shared_features(x)`` (the representation ``z`` every shared parameter
feeds) and ``forward_head(z, x, task)``; the base class derives
``forward(x, task)`` (multi-input MTL), ``forward_heads(z, x)`` (the
trainer's feature space) and ``forward_all(x)`` (single-input MTL) from
those two.  Architectures without a single cut (MTAN, PLE) override
``forward`` and ``forward_all`` instead.
"""

from __future__ import annotations

from typing import Sequence

from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor

__all__ = ["MTLModel"]


class MTLModel(Module):
    """Base class for all multi-task architectures in :mod:`repro.arch`."""

    def __init__(self, task_names: Sequence[str]) -> None:
        super().__init__()
        if len(task_names) != len(set(task_names)):
            raise ValueError("task names must be unique")
        self.task_names = list(task_names)

    # ------------------------------------------------------------------
    def shared_features(self, x) -> Tensor:
        """The shared representation ``z`` (the cut between θ_sh and θ_k).

        Every shared parameter lies strictly upstream of ``z`` and every
        task-specific one downstream, so the trainer's
        ``grad_space="features"`` mode can balance per-task gradients of
        ``z`` and back-propagate the trunk once.  Architectures with several
        differently-shaped shared boundary tensors (MTAN, PLE) have no such
        cut: they raise here and override :meth:`forward` and
        :meth:`forward_all` instead.
        """
        raise NotImplementedError(f"{type(self).__name__} has no single shared representation")

    def forward_head(self, features: Tensor, x, task: str) -> Tensor:
        """Task ``task``'s prediction from the shared representation.

        ``x`` is the raw batch input, for architectures whose task-specific
        parts read the input directly (MMoE/CGC gates, CGC private experts);
        trunk-only architectures ignore it.
        """
        raise NotImplementedError(f"{type(self).__name__} has no single shared representation")

    def forward(self, x, task: str) -> Tensor:
        """Prediction of one task for input ``x`` (multi-input entry point)."""
        self._check_task(task)
        return self.forward_head(self.shared_features(x), x, task)

    def forward_heads(self, features: Tensor, x=None) -> dict[str, Tensor]:
        """All task predictions from a precomputed shared representation.

        The trainer detaches ``features`` so per-task backward stops at the
        representation, then calls this to run only the task-specific
        halves.
        """
        return {task: self.forward_head(features, x, task) for task in self.task_names}

    def forward_all(self, x) -> dict[str, Tensor]:
        """Predictions of all tasks on a shared input (single-input MTL).

        The trunk runs once and every head reads its output, so
        ``forward_all(x) == forward_heads(shared_features(x), x)`` holds by
        construction.
        """
        return self.forward_heads(self.shared_features(x), x)

    # ------------------------------------------------------------------
    def shared_parameters(self) -> list[Parameter]:
        """Parameters every task's loss reaches (balanced by the trainer)."""
        raise NotImplementedError

    def task_specific_parameters(self, task: str) -> list[Parameter]:
        """Parameters only ``task``'s loss reaches (applied unbalanced)."""
        raise NotImplementedError

    def _check_task(self, task: str) -> None:
        if task not in self.task_names:
            raise KeyError(f"unknown task {task!r}; tasks: {self.task_names}")
