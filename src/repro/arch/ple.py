"""PLE — Progressive Layered Extraction (Tang et al., RecSys 2020).

The multi-level generalization of :class:`~repro.arch.cgc.CGC` (the paper's
architecture study uses the single-level CGC; PLE is provided as the
natural extension).  Each extraction level holds shared experts and
per-task private experts; task gates read the task's current feature and
mix shared + own experts, while a *shared* gate mixes **all** experts to
produce the next level's shared feature:

    f_t^{l} = Σ_{e ∈ S^l ∪ P_t^l} softmax(W_t^l · pool(f_t^{l−1}))_e · E_e(...)
    f_s^{l} = Σ_{e ∈ S^l ∪ P_1^l ∪ … ∪ P_K^l} softmax(W_s^l · pool(f_s^{l−1}))_e · E_e(...)

where shared experts consume ``f_s^{l−1}`` and task experts ``f_t^{l−1}``.
Shared experts and the shared gates are balanced parameters; task experts,
task gates and heads are task-specific.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..nn.functional import softmax
from ..nn.layers import Linear
from ..nn.module import Module, ModuleList, Parameter
from ..nn.tensor import Tensor, stack
from .base import MTLModel
from .mmoe import _pool_input

__all__ = ["PLE"]


class PLE(MTLModel):
    """Progressive layered extraction with ``len(expert_factories)`` levels.

    Parameters
    ----------
    expert_factories:
        One factory per level; level ``l``'s factory builds experts mapping
        level-(l−1) features to level-l features.
    gate_in_features:
        Pooled feature width per level (level 0 reads the raw input).
    num_shared_experts / num_task_experts:
        Expert counts per level (same at every level, as in the original).
    """

    def __init__(
        self,
        expert_factories: Sequence[Callable[[], Module]],
        num_shared_experts: int,
        num_task_experts: int,
        heads: dict[str, Module],
        gate_in_features: Sequence[int],
        rng: np.random.Generator,
        gate_input_fn: Callable[[object], Tensor] | None = None,
    ) -> None:
        super().__init__(list(heads))
        if not expert_factories:
            raise ValueError("need at least one extraction level")
        if len(gate_in_features) != len(expert_factories):
            raise ValueError("gate_in_features must align with expert_factories")
        if num_shared_experts < 1 or num_task_experts < 1:
            raise ValueError("need at least one shared and one task expert per level")
        self.num_levels = len(expert_factories)
        self.shared_experts = [
            ModuleList([factory() for _ in range(num_shared_experts)])
            for factory in expert_factories
        ]
        self.task_experts = {
            task: [
                ModuleList([factory() for _ in range(num_task_experts)])
                for factory in expert_factories
            ]
            for task in self.task_names
        }
        total_task_gate = num_shared_experts + num_task_experts
        total_shared_gate = num_shared_experts + num_task_experts * len(self.task_names)
        self.task_gates = {
            task: ModuleList(
                [Linear(width, total_task_gate, rng) for width in gate_in_features]
            )
            for task in self.task_names
        }
        # As in the original PLE, the final extraction layer is a plain CGC
        # layer: no shared gate (nothing consumes the shared feature after it).
        self.shared_gates = ModuleList(
            [Linear(width, total_shared_gate, rng) for width in gate_in_features[:-1]]
        )
        self.heads = heads
        self.gate_input_fn = gate_input_fn or _pool_input

    # ------------------------------------------------------------------
    @staticmethod
    def _mix(gate_logits: Tensor, outputs: list[Tensor]) -> Tensor:
        gate = softmax(gate_logits, axis=-1)
        stacked = stack(outputs, axis=1)
        weights = gate.reshape(gate.shape + (1,) * (stacked.ndim - 2))
        return (stacked * weights).sum(axis=1)

    def _extract(self, x) -> dict[str, Tensor]:
        shared_feature = x
        task_features = {task: x for task in self.task_names}
        for level in range(self.num_levels):
            shared_outputs = [e(shared_feature) for e in self.shared_experts[level]]
            per_task_outputs = {
                task: [e(task_features[task]) for e in self.task_experts[task][level]]
                for task in self.task_names
            }
            new_task_features = {}
            for task in self.task_names:
                logits = self.task_gates[task][level](
                    self.gate_input_fn(task_features[task])
                )
                new_task_features[task] = self._mix(
                    logits, shared_outputs + per_task_outputs[task]
                )
            if level < self.num_levels - 1:
                all_outputs = shared_outputs + [
                    out for task in self.task_names for out in per_task_outputs[task]
                ]
                shared_logits = self.shared_gates[level](
                    self.gate_input_fn(shared_feature)
                )
                shared_feature = self._mix(shared_logits, all_outputs)
            task_features = new_task_features
        return task_features

    def forward(self, x, task: str) -> Tensor:
        self._check_task(task)
        return self.heads[task](self._extract(x)[task])

    def forward_all(self, x) -> dict[str, Tensor]:
        features = self._extract(x)
        return {task: self.heads[task](features[task]) for task in self.task_names}

    # ------------------------------------------------------------------
    def shared_parameters(self) -> list[Parameter]:
        """Parameters reached by every task's loss.

        Through the shared gates, *all* parameters of non-final levels —
        including other tasks' private experts and gates — feed every
        task's prediction, so only final-level private components are
        genuinely task-exclusive.
        """
        params: list[Parameter] = []
        for experts in self.shared_experts:
            params.extend(experts.parameters())
        params.extend(self.shared_gates.parameters())
        for task in self.task_names:
            for experts in self.task_experts[task][:-1]:
                params.extend(experts.parameters())
            for gate in list(self.task_gates[task])[:-1]:
                params.extend(gate.parameters())
        return params

    def task_specific_parameters(self, task: str) -> list[Parameter]:
        self._check_task(task)
        params: list[Parameter] = []
        params.extend(self.task_experts[task][-1].parameters())
        params.extend(self.task_gates[task][-1].parameters())
        params.extend(self.heads[task].parameters())
        return params
