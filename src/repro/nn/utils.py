"""Parameter-vector utilities.

Gradient balancers operate on flat per-task gradient vectors over the shared
parameters; these helpers convert between parameter lists and flat vectors.

Every converter has an *arena fast path*: when the given parameters form one
contiguous segment of a :class:`~repro.nn.arena.ParameterArena` (detected via
:func:`~repro.nn.arena.packed_segment`), the per-parameter gather/scatter
loop collapses to a single slice.  ``grad_vector`` without ``out=`` is then
zero-copy (it returns a live view of the arena grad buffer); the setters
become one bulk ``memcpy`` into the packed buffers, preserving the
parameters' view bindings.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .arena import packed_segment
from .module import Parameter

__all__ = [
    "grad_vector",
    "grad_vector_from_slots",
    "set_grad_from_vector",
    "parameter_vector",
    "set_parameters_from_vector",
    "clip_grad_norm",
]


def grad_vector(parameters: Sequence[Parameter], out: np.ndarray | None = None) -> np.ndarray:
    """Flatten the gradients of ``parameters`` into one vector.

    Parameters whose gradient is ``None`` contribute zeros, matching the
    LibMTL behaviour of treating unused shared parameters as zero-gradient.
    ``out`` may supply a preallocated destination (e.g. one row of the
    trainer's ``(K, d)`` workspace) — gradients are written straight into it
    with no intermediate concatenation.

    Arena fast path: for a contiguous packed segment the result *is* the
    arena's flat grad slice — returned as a zero-copy live view when ``out``
    is omitted (mutations write through to ``param.grad``; copy it if you
    need a snapshot), or bulk-copied into ``out`` in one vector op.
    """
    segment = packed_segment(parameters)
    if segment is not None:
        arena, sl = segment
        view = arena.grad[sl]
        if out is None:
            return view
        if out.shape != view.shape:
            raise ValueError(f"out has shape {out.shape}; expected {view.shape}")
        out[:] = view
        return out
    total = sum(param.size for param in parameters)
    if out is None:
        out = np.empty(total)
    elif out.shape != (total,):
        raise ValueError(f"out has shape {out.shape}; expected ({total},)")
    offset = 0
    for param in parameters:
        size = param.size
        grad = param.grad
        if grad is None:
            out[offset : offset + size] = 0.0
        else:
            out[offset : offset + size] = grad.reshape(-1)
        offset += size
    return out


def grad_vector_from_slots(
    parameters: Sequence[Parameter],
    slots: Sequence[Sequence[np.ndarray | None]],
    root: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Flatten one root's per-parameter gradient slots into a vector.

    ``slots`` is the structure :func:`repro.nn.tensor.backward_multi`
    returns for ``per_root=parameters``: ``slots[i][root]`` is the gradient
    of root ``root`` w.r.t. ``parameters[i]`` (``None`` meaning the root's
    graph never reached that parameter — written as zeros, mirroring
    :func:`grad_vector`).  Writes directly into ``out`` when given.  A slot
    that lies in ``out`` is its own segment, already written by
    ``backward_multi(..., out=matrix)`` (with ``out=matrix[root]`` here),
    and is not copied again.
    """
    total = sum(param.size for param in parameters)
    if out is None:
        out = np.empty(total)
    elif out.shape != (total,):
        raise ValueError(f"out has shape {out.shape}; expected ({total},)")
    offset = 0
    for param, param_slots in zip(parameters, slots):
        size = param.size
        grad = param_slots[root]
        segment = out[offset : offset + size]
        if grad is None:
            segment[:] = 0.0
        elif grad.base is not out.base or not np.may_share_memory(grad, segment):
            segment[:] = grad.reshape(-1)
        offset += size
    return out


def set_grad_from_vector(parameters: Sequence[Parameter], vector: np.ndarray) -> None:
    """Write a flat gradient vector back into ``param.grad`` buffers.

    The length check runs *before* any write, so a mismatched vector never
    partially mutates the gradients.  On the arena fast path the whole
    scatter is one bulk copy into the packed grad buffer; packed parameters
    reached through the per-parameter path are written in place so their
    arena view binding survives.
    """
    total = sum(param.size for param in parameters)
    if vector.size != total:
        raise ValueError(f"vector length {vector.size} does not match parameters ({total})")
    segment = packed_segment(parameters)
    if segment is not None:
        arena, sl = segment
        arena.grad[sl] = vector
        return
    offset = 0
    for param in parameters:
        size = param.size
        chunk = vector[offset : offset + size].reshape(param.data.shape)
        if param._arena is not None:
            np.copyto(param.grad, chunk)
        else:
            param.grad = chunk.copy()
        offset += size


def parameter_vector(parameters: Sequence[Parameter]) -> np.ndarray:
    """Flatten parameter values into one vector (copied).

    Arena fast path: one slice copy of the packed data buffer instead of a
    per-parameter concatenation.
    """
    segment = packed_segment(parameters)
    if segment is not None:
        arena, sl = segment
        return arena.data[sl].copy()
    return np.concatenate([p.data.reshape(-1) for p in parameters]) if parameters else np.zeros(0)


def set_parameters_from_vector(parameters: Sequence[Parameter], vector: np.ndarray) -> None:
    """Write flat values back into parameters.

    The length check runs *before* any write (mirroring
    :func:`set_grad_from_vector`), so a mismatched vector never partially
    mutates model weights.  Packed parameters are written through their
    arena views (one bulk copy on the contiguous fast path), keeping the
    arena binding intact.
    """
    total = sum(param.size for param in parameters)
    if vector.size != total:
        raise ValueError(f"vector length {vector.size} does not match parameters ({total})")
    segment = packed_segment(parameters)
    if segment is not None:
        arena, sl = segment
        arena.data[sl] = vector
        return
    offset = 0
    for param in parameters:
        size = param.size
        chunk = vector[offset : offset + size].reshape(param.data.shape)
        if param._arena is not None:
            np.copyto(param.data, chunk)
        else:
            param.data = chunk.copy()
        offset += size


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Clip total gradient norm in place; return the pre-clip norm."""
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g**2).sum()) for g in grads)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for grad in grads:
            grad *= scale
    return total
