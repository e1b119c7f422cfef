"""Hard-parameter sharing (HPS) — the paper's primary architecture.

A single shared encoder feeds per-task heads:

    z = F_sh(x; θ_sh),    ŷ_k = F_k(z; θ_k).

All tasks read the identical intermediate feature ``z``, which is exactly
the setting where task-gradient conflicts arise on θ_sh (paper Fig. 3 left).
"""

from __future__ import annotations

from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor
from .base import MTLModel

__all__ = ["HardParameterSharing"]


class HardParameterSharing(MTLModel):
    """Shared encoder + per-task heads."""

    def __init__(self, encoder: Module, heads: dict[str, Module]) -> None:
        super().__init__(list(heads))
        self.encoder = encoder
        self.heads = heads

    # ------------------------------------------------------------------
    def shared_features(self, x) -> Tensor:
        return self.encoder(x)

    def forward_head(self, features: Tensor, x, task: str) -> Tensor:
        """Apply ``task``'s head to ``z``; ``x`` is unused (heads read only ``z``)."""
        return self.heads[task](features)

    # ------------------------------------------------------------------
    def shared_parameters(self) -> list[Parameter]:
        return self.encoder.parameters()

    def task_specific_parameters(self, task: str) -> list[Parameter]:
        self._check_task(task)
        return self.heads[task].parameters()
