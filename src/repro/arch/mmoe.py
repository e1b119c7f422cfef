"""MMoE — Multi-gate Mixture-of-Experts (Ma et al., KDD 2018).

A bank of shared experts is mixed per task by a softmax gate:

    y_k = F_k( Σ_e softmax(W_k · pool(x))_e · E_e(x) ).

Experts are shared parameters (their gradients conflict across tasks);
gates and heads are task-specific.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..nn.functional import softmax
from ..nn.layers import Linear
from ..nn.module import Module, ModuleList, Parameter
from ..nn.tensor import Tensor, stack
from .base import MTLModel

__all__ = ["MMoE"]


def _pool_input(x) -> Tensor:
    """Flatten arbitrary inputs to a ``(batch, features)`` gate input."""
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x, dtype=np.float64))
    if x.ndim == 2:
        return x
    if x.ndim == 4:  # images: global average pool
        return x.mean(axis=(2, 3))
    if x.ndim == 3:  # sequences: mean over time
        return x.mean(axis=1)
    raise ValueError(f"cannot derive gate input from shape {x.shape}")


class MMoE(MTLModel):
    """Multi-gate mixture of experts.

    Parameters
    ----------
    expert_factory:
        Builds one expert module (input → representation); called
        ``num_experts`` times.
    heads:
        Task name → head module over the mixed representation.
    gate_in_features:
        Dimension of the pooled gate input (for tabular data, the raw
        feature width).
    gate_input_fn:
        Optional callable mapping the raw batch input to the gate input
        tensor; defaults to :func:`_pool_input` (works for dense arrays).
        Datasets with integer/tuple inputs (click logs, graphs) must supply
        one.
    """

    def __init__(
        self,
        expert_factory: Callable[[], Module],
        num_experts: int,
        heads: dict[str, Module],
        gate_in_features: int,
        rng: np.random.Generator,
        gate_input_fn: Callable[[object], Tensor] | None = None,
    ) -> None:
        super().__init__(list(heads))
        if num_experts < 1:
            raise ValueError("need at least one expert")
        self.experts = ModuleList([expert_factory() for _ in range(num_experts)])
        self.heads = heads
        self.gates = {
            task: Linear(gate_in_features, num_experts, rng) for task in self.task_names
        }
        self.gate_input_fn = gate_input_fn or _pool_input

    # ------------------------------------------------------------------
    def _mix_stacked(self, x, task: str, stacked: Tensor) -> Tensor:
        gate_logits = self.gates[task](self.gate_input_fn(x))
        gate = softmax(gate_logits, axis=-1)  # (batch, E)
        weights = gate.reshape(gate.shape + (1,) * (stacked.ndim - 2))
        return (stacked * weights).sum(axis=1)

    def shared_features(self, x) -> Tensor:
        """The stacked expert bank ``(batch, E, feat...)``.

        Every shared parameter (the experts) is strictly upstream of this
        tensor; the gates and heads are task-specific and sit downstream
        (the gates read the raw input, which :meth:`forward_head` takes
        separately), so it is a valid feature-space cut.
        """
        return stack([expert(x) for expert in self.experts], axis=1)

    def forward_head(self, features: Tensor, x, task: str) -> Tensor:
        if x is None:
            raise ValueError("MMoE.forward_head needs the raw input x for the gates")
        return self.heads[task](self._mix_stacked(x, task, features))

    # ------------------------------------------------------------------
    def shared_parameters(self) -> list[Parameter]:
        return self.experts.parameters()

    def task_specific_parameters(self, task: str) -> list[Parameter]:
        self._check_task(task)
        return self.gates[task].parameters() + self.heads[task].parameters()
