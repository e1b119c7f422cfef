"""Spec-driven architecture construction: the one place a model is assembled.

A served model must be rebuildable from nothing but a checkpoint file:
:func:`repro.nn.serialization.save_checkpoint` stores parameter values, and
the metadata block stores a *model spec* — a small JSON-serializable dict
naming a builder here plus its keyword arguments.  The
:class:`repro.serve.ModelRegistry` reads the spec, calls the builder to get
a structurally identical module (same parameter names and shapes), then
loads the saved state over it.

Two builders cover the repo's single-input model families:

- :func:`build_mlp_model` — every architecture in :data:`ARCHITECTURES`
  (plus PLE) over MLP stages and linear heads, the synthetic-benchmark
  model family;
- :func:`build_tabular_model` — the AliExpress family: categorical
  ``TabularEncoder`` trunk under HPS/MMoE/CGC/PLE with linear
  CTR/CTCVR-style heads.  The AliExpress benchmark's ``build_model`` is a
  call to it, so a trained AliExpress model of any of these architectures
  can be served.

Both builders validate their spec (non-empty unique ``tasks``, non-empty
``hidden``) before drawing from the generator: the spec comes from
checkpoint metadata, which is outside input.  Initialization consumes a
seeded generator, so rebuilding a spec is deterministic even before the
checkpoint state is applied.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..nn.layers import MLP, Linear, ReLU, Sequential
from ..nn.module import Module
from ..nn.tensor import Tensor
from .base import MTLModel
from .cgc import CGC
from .cross_stitch import CrossStitch
from .encoders import MLPEncoder, TabularEncoder
from .heads import LinearHead
from .hps import HardParameterSharing
from .mmoe import MMoE, _pool_input
from .mtan import MTAN, VectorAttention
from .ple import PLE

__all__ = ["MLP_ARCHITECTURES", "TABULAR_ARCHITECTURES", "build_mlp_model", "build_tabular_model"]

#: Architectures :func:`build_mlp_model` can assemble.
MLP_ARCHITECTURES = ("hps", "cross_stitch", "mtan", "mmoe", "cgc", "ple")

#: Architectures :func:`build_tabular_model` can assemble.
TABULAR_ARCHITECTURES = ("hps", "mmoe", "cgc", "ple")


def _linear_heads(width: int, tasks: Sequence[str], rng: np.random.Generator):
    return {task: LinearHead(width, 1, rng) for task in tasks}


def _checked_spec(
    architecture: str, supported: tuple[str, ...], hidden: Sequence[int], tasks: Sequence[str]
) -> tuple[list[int], list[str]]:
    """``(hidden, tasks)`` as lists, or ``ValueError`` for an invalid spec."""
    if architecture not in supported:
        raise ValueError(f"unknown architecture {architecture!r}; supported: {supported}")
    hidden = [int(width) for width in hidden]
    if not hidden:
        raise ValueError("hidden must be non-empty")
    tasks = list(tasks)
    if not tasks:
        raise ValueError("tasks must be non-empty")
    if len(set(tasks)) != len(tasks):
        raise ValueError(f"task names must be unique; got {tasks}")
    return hidden, tasks


def _expert_model(
    architecture: str,
    expert: Callable[[], Module],
    width: int,
    heads: dict[str, Module],
    gate_width: int,
    rng: np.random.Generator,
    gate_input_fn: Callable[[object], Tensor] | None = None,
) -> MTLModel:
    """HPS, MMoE, CGC or PLE over ``expert()`` trunks of output ``width``.

    The assembly both builders share.  ``gate_input_fn`` maps the raw
    input to the gate input (``None``: MMoE's default pooling); PLE's
    second-level gates read the first-level feature as is.
    """
    if architecture == "hps":
        return HardParameterSharing(expert(), heads)
    if architecture == "mmoe":
        return MMoE(
            expert,
            num_experts=3,
            heads=heads,
            gate_in_features=gate_width,
            rng=rng,
            gate_input_fn=gate_input_fn,
        )
    if architecture == "cgc":
        return CGC(
            expert,
            num_shared_experts=2,
            num_task_experts=1,
            heads=heads,
            gate_in_features=gate_width,
            rng=rng,
            gate_input_fn=gate_input_fn,
        )
    raw_gate = gate_input_fn or _pool_input

    def _vector_gate(x) -> Tensor:
        return x if isinstance(x, Tensor) else raw_gate(x)

    return PLE(
        [expert, lambda: MLP(width, [width], width, rng)],
        num_shared_experts=2,
        num_task_experts=1,
        heads=heads,
        gate_in_features=[gate_width, width],
        rng=rng,
        gate_input_fn=_vector_gate,
    )


def build_mlp_model(
    architecture: str,
    in_features: int,
    hidden: Sequence[int],
    tasks: Sequence[str],
    seed: int = 0,
) -> MTLModel:
    """Any single-input architecture over MLP stages + linear heads.

    The layer shapes match the synthetic benchmark's models; parameter
    *values* come from ``default_rng(seed)`` and are normally overwritten
    by a checkpoint load immediately after construction.
    """
    hidden, tasks = _checked_spec(architecture, MLP_ARCHITECTURES, hidden, tasks)
    rng = np.random.default_rng(seed)
    out = hidden[-1]
    heads = _linear_heads(out, tasks, rng)
    if architecture == "cross_stitch":
        factories = []
        previous = in_features
        for width in hidden:
            factories.append(
                lambda p=previous, w=width: Sequential(Linear(p, w, rng), ReLU())
            )
            previous = width
        return CrossStitch(factories, heads)
    if architecture == "mtan":
        stages = []
        previous = in_features
        for width in hidden:
            stages.append(Sequential(Linear(previous, width, rng), ReLU()))
            previous = width
        attention_factories = []
        for i, width in enumerate(hidden):
            prev = width if i == 0 else hidden[i - 1]
            attention_factories.append(
                lambda w=width, p=prev: VectorAttention(w, rng, previous_dim=p)
            )
        return MTAN(stages, attention_factories, heads)
    return _expert_model(
        architecture, lambda: MLPEncoder(in_features, hidden, rng), out, heads, in_features, rng
    )


def build_tabular_model(
    architecture: str,
    field_sizes: Sequence[int],
    embedding_dim: int,
    hidden: Sequence[int],
    tasks: Sequence[str],
    seed: int | np.random.Generator = 0,
) -> MTLModel:
    """The AliExpress model family: categorical trunk + linear heads.

    Input rows are integer field matrices ``(batch, len(field_sizes))``;
    MMoE/CGC/PLE gates read the fields scaled into [0, 1), and PLE's
    second-level gates read the level-1 feature as is.  ``seed`` is an int
    or a ``Generator``; a generator is drawn from directly (the AliExpress
    benchmark passes the caller's ``model_rng``).
    """
    hidden, tasks = _checked_spec(architecture, TABULAR_ARCHITECTURES, hidden, tasks)
    field_sizes = [int(size) for size in field_sizes]
    rng = np.random.default_rng(seed)

    def _encoder() -> TabularEncoder:
        return TabularEncoder(field_sizes, embedding_dim, hidden, rng)

    def _gate_input(x) -> Tensor:
        scaled = np.asarray(x, dtype=np.float64) / np.asarray(field_sizes)
        return Tensor(scaled)

    heads = _linear_heads(hidden[-1], tasks, rng)
    return _expert_model(
        architecture, _encoder, hidden[-1], heads, len(field_sizes), rng, _gate_input
    )
