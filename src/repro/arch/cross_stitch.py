"""Cross-stitch networks (Misra et al., CVPR 2016).

Each task owns a full column of stages; after every stage a *cross-stitch
unit* — a learnable (K, K) mixing matrix initialized near identity — linearly
recombines the K per-task feature maps:

    f_t ← Σ_u A[t, u] · f_u.

Because the stitch units couple all columns, every column parameter receives
gradient from every task: the whole trunk (columns + stitch units) counts as
shared for gradient balancing, while heads stay task-specific.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..nn.module import Module, ModuleList, Parameter
from ..nn.tensor import Tensor, stack
from .base import MTLModel

__all__ = ["CrossStitch"]


class CrossStitch(MTLModel):
    """Per-task columns coupled by cross-stitch units.

    Parameters
    ----------
    stage_factories:
        One factory per stage; each is called once per task to build that
        task's column stage (all columns share the same architecture but
        not the same parameters).
    heads:
        Task name → head applied to the task's final column feature.
    stitch_self_weight:
        Initial diagonal value of each stitch matrix (off-diagonals share
        the remaining mass), 0.9 as in the original paper.
    """

    def __init__(
        self,
        stage_factories: Sequence[Callable[[], Module]],
        heads: dict[str, Module],
        stitch_self_weight: float = 0.9,
    ) -> None:
        super().__init__(list(heads))
        num_tasks = len(self.task_names)
        if not 0.0 < stitch_self_weight <= 1.0:
            raise ValueError("stitch_self_weight must be in (0, 1]")
        self.columns = {
            task: ModuleList([factory() for factory in stage_factories])
            for task in self.task_names
        }
        off = (1.0 - stitch_self_weight) / max(num_tasks - 1, 1)
        init = np.full((num_tasks, num_tasks), off)
        np.fill_diagonal(init, stitch_self_weight)
        self.stitches = [Parameter(init.copy()) for _ in stage_factories]
        self.heads = heads

    # ------------------------------------------------------------------
    def _trunk(self, x) -> dict[str, Tensor]:
        features = {task: x for task in self.task_names}
        for stage_index in range(len(self.stitches)):
            outputs = [
                self.columns[task][stage_index](features[task]) for task in self.task_names
            ]
            stacked = stack(outputs, axis=0)  # (K, batch, feat...)
            mix = self.stitches[stage_index]
            flat = stacked.reshape(len(self.task_names), -1)
            mixed = (mix @ flat).reshape(stacked.shape)
            features = {
                task: mixed[t] for t, task in enumerate(self.task_names)
            }
        return features

    def shared_features(self, x) -> Tensor:
        """All K per-task trunk outputs, stacked to ``(K, batch, feat...)``.

        The stitch units couple every column, so the whole trunk (columns
        + stitches) is shared and strictly upstream of this stack; only the
        heads — which read one ``features[t]`` slice each — sit below it.
        """
        features = self._trunk(x)
        return stack([features[task] for task in self.task_names], axis=0)

    def forward_head(self, features: Tensor, x, task: str) -> Tensor:
        return self.heads[task](features[self.task_names.index(task)])

    # ------------------------------------------------------------------
    def shared_parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for task in self.task_names:
            params.extend(self.columns[task].parameters())
        params.extend(self.stitches)
        return params

    def task_specific_parameters(self, task: str) -> list[Parameter]:
        self._check_task(task)
        return self.heads[task].parameters()
