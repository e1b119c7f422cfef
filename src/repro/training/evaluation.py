"""Model evaluation over benchmark splits."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..arch.base import MTLModel
from ..data.base import MULTI_INPUT, SINGLE_INPUT, ArrayDataset, TaskSpec
from ..data.streaming import DataLoader
from ..nn.tensor import inference_mode

__all__ = ["evaluate_model", "collect_outputs"]


def collect_outputs(
    model: MTLModel,
    dataset: ArrayDataset,
    task: str,
    batch_size: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw model outputs and targets for one task over a full dataset.

    Walks the dataset in row order through the one loader (``shuffle=False``).
    """
    outputs, targets = [], []
    model.eval()
    with inference_mode():
        for inputs, batch_targets in DataLoader(dataset, batch_size, shuffle=False):
            prediction = model.forward(inputs, task)
            outputs.append(prediction.data)
            if isinstance(batch_targets, Mapping):
                targets.append(batch_targets[task])
            else:
                targets.append(batch_targets)
    return np.concatenate(outputs, axis=0), np.concatenate(targets, axis=0)


def evaluate_model(
    model: MTLModel,
    tasks: Sequence[TaskSpec],
    data,
    mode: str = SINGLE_INPUT,
    batch_size: int = 256,
) -> dict[str, dict[str, float]]:
    """Evaluate every task's metrics: ``{task: {metric: value}}``.

    ``data`` is an :class:`ArrayDataset` (single-input) or
    ``{task: ArrayDataset}`` (multi-input).
    """
    results: dict[str, dict[str, float]] = {}
    for task in tasks:
        dataset = data[task.name] if mode == MULTI_INPUT else data
        outputs, targets = collect_outputs(model, dataset, task.name, batch_size)
        results[task.name] = {
            metric: fn(outputs, targets) for metric, fn in task.metrics.items()
        }
    return results
