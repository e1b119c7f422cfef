"""MTAN — Multi-Task Attention Network (Liu et al., CVPR 2019).

A single shared backbone plus per-task attention sub-networks: at each
backbone stage s, task t computes a soft mask from the concatenation of the
stage output and its previous attended feature,

    a_t^s = σ(h_t^s([f^s ; a_t^{s−1}])) ⊙ f^s,

so each task selects the shared features relevant to it.  The backbone is
shared; attention modules and heads are task-specific.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..nn.module import Module, ModuleList, Parameter
from ..nn.tensor import Tensor, concat
from .base import MTLModel

__all__ = ["MTAN", "VectorAttention", "ConvAttention"]


class VectorAttention(Module):
    """Attention gate over vector features: σ(Linear([f; a])).

    ``previous_dim`` is the width of the previous attended feature (the
    previous stage's output width); defaults to ``feature_dim`` for the
    first stage, where the previous feature is the stage output itself.
    """

    def __init__(
        self,
        feature_dim: int,
        rng: np.random.Generator,
        previous_dim: int | None = None,
    ) -> None:
        super().__init__()
        from ..nn.layers import Linear

        previous_dim = feature_dim if previous_dim is None else previous_dim
        self.gate = Linear(feature_dim + previous_dim, feature_dim, rng)

    def forward(self, stage_output: Tensor, previous: Tensor) -> Tensor:
        mask = self.gate(concat([stage_output, previous], axis=-1)).sigmoid()
        return mask * stage_output


class ConvAttention(Module):
    """Attention gate over conv feature maps: σ(1×1 conv on [f; a]).

    ``previous`` may have the previous stage's spatial size; it is pooled
    2× when larger than the current stage output.
    """

    def __init__(self, channels: int, previous_channels: int, rng: np.random.Generator) -> None:
        super().__init__()
        from ..nn.conv import Conv2d, MaxPool2d

        self.gate = Conv2d(channels + previous_channels, channels, 1, rng)
        self._pool = MaxPool2d(2)

    def forward(self, stage_output: Tensor, previous: Tensor) -> Tensor:
        while previous.shape[2] > stage_output.shape[2]:
            previous = self._pool(previous)
        mask = self.gate(concat([stage_output, previous], axis=1)).sigmoid()
        return mask * stage_output


class MTAN(MTLModel):
    """Shared backbone with per-task attention streams.

    Parameters
    ----------
    backbone_stages:
        Modules forming the shared trunk, applied in order.
    attention_factories:
        One factory per stage and task: ``attention_factories[s]()`` builds
        the stage-s attention module for one task (modules take
        ``(stage_output, previous_attended)``).
    heads:
        Task name → head over the final attended feature.
    """

    def __init__(
        self,
        backbone_stages: Sequence[Module],
        attention_factories: Sequence[Callable[[], Module]],
        heads: dict[str, Module],
    ) -> None:
        super().__init__(list(heads))
        if len(attention_factories) != len(backbone_stages):
            raise ValueError("need one attention factory per backbone stage")
        self.backbone = ModuleList(list(backbone_stages))
        self.attentions = {
            task: ModuleList([factory() for factory in attention_factories])
            for task in self.task_names
        }
        self.heads = heads

    # ------------------------------------------------------------------
    def _streams(self, x) -> dict[str, Tensor]:
        attended = {}
        current = x
        for stage_index, stage in enumerate(self.backbone):
            current = stage(current)
            for task in self.task_names:
                previous = attended.get(task, current)
                attended[task] = self.attentions[task][stage_index](current, previous)
        return attended

    def forward(self, x, task: str) -> Tensor:
        self._check_task(task)
        return self.heads[task](self._streams(x)[task])

    def forward_all(self, x) -> dict[str, Tensor]:
        streams = self._streams(x)
        return {task: self.heads[task](streams[task]) for task in self.task_names}

    # ------------------------------------------------------------------
    def shared_parameters(self) -> list[Parameter]:
        return self.backbone.parameters()

    def task_specific_parameters(self, task: str) -> list[Parameter]:
        self._check_task(task)
        return self.attentions[task].parameters() + self.heads[task].parameters()
