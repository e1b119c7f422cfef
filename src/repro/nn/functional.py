"""Functional neural-network operations built on :mod:`repro.nn.tensor`.

Losses follow the reduction conventions of the paper's experimental stack:
every loss returns a scalar tensor (mean over the batch) unless stated
otherwise, because the multi-task trainer back-propagates one scalar per task.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import (
    RowGrad,
    Tensor,
    _matmul_grads,
    _scatter_rows,
    as_tensor,
    register_multi_adjoint,
    unbroadcast_lead,
    where,
)

__all__ = [
    "linear",
    "embedding",
    "field_lookup",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "gelu",
    "softmax",
    "log_softmax",
    "mse_loss",
    "l1_loss",
    "huber_loss",
    "bce_with_logits",
    "cross_entropy",
    "nll_loss",
    "cosine_similarity",
]


# ----------------------------------------------------------------------
# Fused ops.  Each is one graph node whose forward and adjoint run the
# numpy calls of the composite it replaces, in the same order, so values
# and gradients are bitwise equal to that composite (the composites are
# the oracles in tests/reference/nn.py).
# ----------------------------------------------------------------------
def linear(x, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight.T + bias`` as one node (``x`` may be an ndarray)."""
    x = as_tensor(x)
    data = x.data @ weight.data.T
    parents = (x, weight)
    if bias is not None:
        data = data + bias.data
        parents = (x, weight, bias)
    return x._make_child(data, parents, "linear")


def _adj_linear(node, g):
    # The composite's add -> matmul -> transpose adjoints, in that order.
    x, weight = node._prev[:2]
    grad_x, grad_wt = _matmul_grads(x.data, weight.data.T, g, x.requires_grad, weight.requires_grad)
    grad_w = None if grad_wt is None else grad_wt.transpose(0, 2, 1)
    if len(node._prev) == 2:
        return grad_x, grad_w
    return grad_x, grad_w, unbroadcast_lead(g, node._prev[2].data.shape)


def embedding(weight: Tensor, ids) -> Tensor:
    """``weight[ids]`` as one node whose gradient is row-sparse.

    The backward scatters into the distinct rows ``ids`` touched, with one
    ``np.bincount`` over those rows alone, and returns them as a
    :class:`~repro.nn.tensor.RowGrad`.  Each bin sums its contributions in
    index order, as the dense ``getitem`` scatter does, so every touched
    row is bitwise equal to the dense table and every other row is zero.
    """
    ids = np.asarray(ids, dtype=np.int64)
    out = weight._make_child(weight.data[ids], (weight,), "embedding")
    if out.requires_grad:
        out._ctx = ids
    return out


def _adj_embedding(node, g):
    ids = node._ctx
    num_rows = node._prev[0].data.shape[0]
    rows, inverse = np.unique(ids % num_rows, return_inverse=True)
    values = _scatter_rows(g, inverse.reshape(ids.shape), len(rows))
    return (RowGrad(values, rows, num_rows),)


def field_lookup(tables, ids) -> Tensor:
    """``concat([tables[f][ids[:, f]] for f], axis=1)`` as one node.

    ``ids`` is a ``(batch, F)`` integer matrix and ``tables`` the ``F``
    embedding weights, all of one width.  The backward scatters every
    field into one stacked table with a single ``np.bincount`` and hands
    each table its slice.
    """
    ids = np.asarray(ids, dtype=np.int64)
    data = np.concatenate([table.data[ids[:, f]] for f, table in enumerate(tables)], axis=1)
    out = tables[0]._make_child(data, tables, "field_lookup")
    if out.requires_grad:
        out._ctx = ids
    return out


def _adj_field_lookup(node, g):
    ids = node._ctx
    sizes = np.array([table.data.shape[0] for table in node._prev])
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    rows = ids % sizes + offsets[:-1]
    g = g.reshape((g.shape[0],) + ids.shape + node._prev[0].data.shape[1:])
    stacked = _scatter_rows(g, rows, int(offsets[-1]))
    return tuple(stacked[:, start:stop] for start, stop in zip(offsets[:-1], offsets[1:]))


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0)."""
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Elementwise leaky ReLU."""
    return x.leaky_relu(negative_slope)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic sigmoid."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    return x.tanh()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    inner = 0.7978845608028654 * (x + 0.044715 * x * x * x)
    return 0.5 * x * (1.0 + inner.tanh())


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean squared error over all elements."""
    target = as_tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def l1_loss(prediction: Tensor, target) -> Tensor:
    """Mean absolute error over all elements."""
    target = as_tensor(target)
    return (prediction - target).abs().mean()


def huber_loss(prediction: Tensor, target, delta: float = 1.0) -> Tensor:
    """Huber loss: quadratic within ``delta``, linear outside."""
    target = as_tensor(target)
    diff = prediction - target
    abs_diff = diff.abs()
    quadratic = 0.5 * diff * diff
    linear = delta * abs_diff - 0.5 * delta * delta
    return where(abs_diff.data <= delta, quadratic, linear).mean()


def bce_with_logits(logits: Tensor, target) -> Tensor:
    """Numerically stable binary cross entropy on raw logits, as one node.

    The mean of ``max(x, 0) - x*y + log(1 + exp(-|x|))``; ``target`` is a
    constant.
    """
    x = logits.data
    y = as_tensor(target).data
    positive = np.clip(x, 0.0, np.inf)
    exp = np.exp(np.clip(-np.abs(x), -700.0, 700.0))
    shifted = exp + 1.0
    elements = positive - x * y + np.log(shifted)
    out = logits._make_child(elements.sum() * (1.0 / elements.size), (logits,), "bce_with_logits")
    if out.requires_grad:
        out._ctx = (y, exp, shifted, elements.shape)
    return out


def _adj_bce_with_logits(node, g):
    # The composite's eleven adjoints; the three paths into the logits
    # sum as (clip + mul) + abs, the order its graph walk merged them in.
    y, exp, shifted, shape = node._ctx
    x = node._prev[0].data
    g = g * (1.0 / math.prod(shape))
    g = np.broadcast_to(g.reshape((g.shape[0],) + (1,) * len(shape)), (g.shape[0],) + shape).copy()
    to_x = unbroadcast_lead(g, x.shape)
    through_clip = to_x * ((x >= 0.0) & (x <= np.inf))
    through_mul = unbroadcast_lead(-g * y, x.shape)
    through_abs = -(to_x / shifted * exp) * np.sign(x)
    return (through_clip + through_mul + through_abs,)


register_multi_adjoint("linear", _adj_linear)
register_multi_adjoint("embedding", _adj_embedding)
register_multi_adjoint("field_lookup", _adj_field_lookup)
register_multi_adjoint("bce_with_logits", _adj_bce_with_logits)


def cross_entropy(logits: Tensor, target_indices, axis: int = -1) -> Tensor:
    """Cross entropy between raw ``logits`` and integer class labels.

    ``target_indices`` is an integer array; for dense prediction tasks the
    logits may carry extra leading axes, e.g. ``(batch, H, W, classes)``
    paired with labels of shape ``(batch, H, W)``.
    """
    target_indices = np.asarray(target_indices)
    log_probs = log_softmax(logits, axis=axis)
    if axis not in (-1, log_probs.ndim - 1):
        raise ValueError("cross_entropy expects the class axis to be last")
    flat = log_probs.reshape(-1, log_probs.shape[-1])
    labels = target_indices.reshape(-1).astype(np.int64)
    picked = flat[np.arange(flat.shape[0]), labels]
    return -picked.mean()


def nll_loss(log_probs: Tensor, target_indices) -> Tensor:
    """Negative log likelihood over pre-computed log probabilities."""
    target_indices = np.asarray(target_indices).reshape(-1).astype(np.int64)
    flat = log_probs.reshape(-1, log_probs.shape[-1])
    picked = flat[np.arange(flat.shape[0]), target_indices]
    return -picked.mean()


def cosine_similarity(a: Tensor, b: Tensor, eps: float = 1e-12) -> Tensor:
    """Cosine similarity along the last axis."""
    dot = (a * b).sum(axis=-1)
    norm_a = ((a * a).sum(axis=-1) + eps).sqrt()
    norm_b = ((b * b).sum(axis=-1) + eps).sqrt()
    return dot / (norm_a * norm_b)
