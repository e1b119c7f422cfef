"""CGC — Customized Gate Control (Tang et al., RecSys 2020).

The single-extraction-layer core of PLE: a bank of *shared* experts plus
per-task *private* expert banks.  Each task's gate mixes the shared experts
with its own private experts:

    y_k = F_k( Σ_{e ∈ shared ∪ private_k} softmax(W_k · pool(x))_e · E_e(x) ).

Shared experts are balanced (their gradients come from every task); private
experts, gates and heads are task-specific.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..nn.functional import softmax
from ..nn.layers import Linear
from ..nn.module import Module, ModuleList, Parameter
from ..nn.tensor import Tensor, concat, stack
from .base import MTLModel
from .mmoe import _pool_input

__all__ = ["CGC"]


class CGC(MTLModel):
    """Customized gate control with shared and task-private experts."""

    def __init__(
        self,
        expert_factory: Callable[[], Module],
        num_shared_experts: int,
        num_task_experts: int,
        heads: dict[str, Module],
        gate_in_features: int,
        rng: np.random.Generator,
        gate_input_fn: Callable[[object], Tensor] | None = None,
    ) -> None:
        super().__init__(list(heads))
        if num_shared_experts < 1 or num_task_experts < 1:
            raise ValueError("need at least one shared and one task expert")
        self.shared_experts = ModuleList(
            [expert_factory() for _ in range(num_shared_experts)]
        )
        self.task_experts = {
            task: ModuleList([expert_factory() for _ in range(num_task_experts)])
            for task in self.task_names
        }
        total = num_shared_experts + num_task_experts
        self.gates = {task: Linear(gate_in_features, total, rng) for task in self.task_names}
        self.heads = heads
        self.gate_input_fn = gate_input_fn or _pool_input

    # ------------------------------------------------------------------
    def _mix_stacked(self, x, task: str, stacked: Tensor) -> Tensor:
        gate = softmax(self.gates[task](self.gate_input_fn(x)), axis=-1)
        weights = gate.reshape(gate.shape + (1,) * (stacked.ndim - 2))
        return (stacked * weights).sum(axis=1)

    def shared_features(self, x) -> Tensor:
        """The stacked *shared* expert bank ``(batch, S, feat...)``.

        Only the shared experts are balanced parameters; the private
        experts, gates and heads are task-specific and recomputed from the
        raw input inside :meth:`forward_head`, downstream of the cut.
        """
        return stack([expert(x) for expert in self.shared_experts], axis=1)

    def forward_head(self, features: Tensor, x, task: str) -> Tensor:
        if x is None:
            raise ValueError(
                "CGC.forward_head needs the raw input x for the gates and private experts"
            )
        private = stack([expert(x) for expert in self.task_experts[task]], axis=1)
        stacked = concat([features, private], axis=1)
        return self.heads[task](self._mix_stacked(x, task, stacked))

    # ------------------------------------------------------------------
    def shared_parameters(self) -> list[Parameter]:
        return self.shared_experts.parameters()

    def task_specific_parameters(self, task: str) -> list[Parameter]:
        self._check_task(task)
        return (
            self.task_experts[task].parameters()
            + self.gates[task].parameters()
            + self.heads[task].parameters()
        )
