"""Reverse-mode automatic differentiation on numpy arrays.

This module provides :class:`Tensor`, a thin wrapper around ``numpy.ndarray``
that records a dynamic computation graph and supports backpropagation through
it.  It plays the role PyTorch's autograd plays in the original MoCoGrad
implementation: the multi-task trainer calls :meth:`Tensor.backward` once per
task loss to obtain per-task gradients over the shared parameters.

Design notes
------------
- Each operation records its name, parents and the context its backward
  needs (``_op``, ``_prev``, ``_ctx``) on its output.  Every op has exactly
  one backward: a batched adjoint in ``_MULTI_ADJOINTS`` (or registered via
  :func:`register_multi_adjoint`) that maps a ``(R, *out.shape)`` upstream
  gradient — one row per backward root — to ``(R, *parent.shape)`` parent
  gradients.  :func:`backward_multi` is the only graph walk;
  :meth:`Tensor.backward` is its one-root case (R = 1).
- An adjoint may return a :class:`RowGrad` for a table parent it touched
  in only a few rows (the ``embedding`` op does).  A ``per_root`` leaf
  takes it as a zeroed slot plus the touched rows (its segment of
  ``backward_multi``'s ``out`` matrix, when given); every other parent
  gets it densified on arrival, so row sparsity never changes a result.
- During a backward pass intermediate gradients live in a transient
  dictionary; only *leaf* tensors (parameters, inputs) and tensors marked
  via :meth:`Tensor.retain_grad` accumulate into ``.grad``.  This makes
  repeated backward passes over a shared graph safe — exactly what per-task
  gradient collection in multi-task learning requires.
- Nodes reference their parents but never themselves, so a graph is freed
  by reference counting as soon as its last tensor is dropped.
- Gradients accumulate additively into ``Tensor.grad`` until ``zero_grad``,
  matching the PyTorch convention.
- Broadcasting is fully supported; backward passes reduce gradients back to
  the operand shape via :func:`unbroadcast_lead`.
- ``no_grad`` disables graph construction for evaluation loops and optimizer
  arithmetic.
- An active :class:`~repro.nn.profile.OpProfile` (per thread) is told about
  every op at ``_make_child`` and at the one adjoint dispatch in
  :func:`backward_multi`; with none active each pays one ``is None`` check.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "RowGrad",
    "backward_multi",
    "register_multi_adjoint",
    "no_grad",
    "inference_mode",
    "is_grad_enabled",
    "is_inference_mode",
    "unbroadcast",
    "unbroadcast_lead",
    "as_tensor",
    "concat",
    "stack",
    "where",
]


class _GradState(threading.local):
    """Per-thread autograd switches.

    Class attributes double as the defaults a fresh thread observes, so a
    newly spawned thread starts with gradients enabled and inference off
    regardless of what other threads are doing.  Thread-locality matters
    in serving: :mod:`repro.serve` runs one batcher worker per model, and
    each enters :func:`inference_mode` independently — with process-wide
    globals, overlapping enter/exit from two threads can restore a stale
    snapshot and wedge the whole process in inference mode.
    """

    grad_enabled = True
    inference = False
    #: the :class:`~repro.nn.profile.OpProfile` recording this thread's
    #: ops, or None (the default: one ``is None`` branch per op)
    ops = None


_STATE = _GradState()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (this thread only)."""
    previous = _STATE.grad_enabled
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = previous


@contextlib.contextmanager
def inference_mode():
    """``no_grad`` plus an allocation-lean tensor construction fast path.

    Inside this context every op result skips the full ``Tensor.__init__``
    (no ``np.asarray`` revalidation, no graph bookkeeping at all): outputs
    are bare data carriers with ``requires_grad=False`` and no ``_ctx`` /
    ``_prev`` state.  This is the serving forward path —
    see :mod:`repro.serve` — where per-request Python overhead, not numpy
    time, dominates small-batch latency.

    Like :func:`no_grad` the switch is thread-local: entering it on one
    thread (e.g. a serving worker) never affects forwards running on
    other threads of the same process.
    """
    previous = (_STATE.grad_enabled, _STATE.inference)
    _STATE.grad_enabled = False
    _STATE.inference = True
    try:
        yield
    finally:
        _STATE.grad_enabled, _STATE.inference = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients (this thread)."""
    return _STATE.grad_enabled


def is_inference_mode() -> bool:
    """Return whether the :func:`inference_mode` fast path is active (this thread)."""
    return _STATE.inference


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def unbroadcast_lead(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Like :func:`unbroadcast`, but preserving a leading root axis.

    ``grad`` has shape ``(R, *broadcast_shape)``; the result has shape
    ``(R, *shape)``.  Used by the batched adjoints of
    :func:`backward_multi`, where axis 0 indexes the backward roots and
    must never be reduced over.
    """
    if grad.shape[1:] == shape:
        return grad
    extra = grad.ndim - 1 - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(1, 1 + extra)))
    axes = tuple(i + 1 for i, dim in enumerate(shape) if dim == 1 and grad.shape[i + 1] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape((grad.shape[0],) + shape)


def as_tensor(value, requires_grad: bool = False) -> "Tensor":
    """Coerce ``value`` (scalar, ndarray or Tensor) to a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_op", "_retains", "_ctx")

    __array_priority__ = 200  # ensure ndarray op Tensor dispatches here

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._prev: tuple[Tensor, ...] = ()
        self._op = ""
        self._retains = False
        # Op-specific context the op's adjoint needs but cannot recompute
        # from node/parent data (e.g. a reduction axis).
        self._ctx = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        return not self._prev

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        """The value of a single-element tensor as a Python float."""
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def retain_grad(self) -> "Tensor":
        """Request gradient accumulation on this (possibly non-leaf) tensor.

        The multi-task trainer uses this on the shared representation to
        collect *feature-level* task gradients (paper §VI-C).
        """
        self._retains = True
        return self

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction / backward
    # ------------------------------------------------------------------
    def _make_child(self, data: np.ndarray, parents: Sequence["Tensor"], op: str) -> "Tensor":
        if _STATE.inference:
            # Serving fast path: op outputs are normally fresh float64 numpy
            # arrays, so skip __init__'s asarray revalidation and build the
            # bare carrier directly (no graph state to populate either).
            # Non-float64 intermediates (e.g. from integer tabular inputs)
            # still get the __init__ cast so serving dtype matches training.
            out = Tensor.__new__(Tensor)
            if type(data) is np.ndarray and data.dtype == np.float64:
                out.data = data
            else:
                out.data = np.asarray(data, dtype=np.float64)
            out.grad = None
            out.requires_grad = False
            out._prev = ()
            out._op = ""
            out._retains = False
            out._ctx = None
            return out
        out = Tensor(data)
        if _STATE.grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._prev = tuple(parents)
            out._op = op
        ops = _STATE.ops
        if ops is not None:
            ops.record_forward(op, out.data.nbytes)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor into leaf ``.grad`` buffers.

        The one-root case of :func:`backward_multi`.  Safe to call multiple
        times on losses sharing subgraphs: gradients of intermediate nodes
        are kept in a transient map, never on the nodes.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        backward_multi([self], [grad])

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        return self._make_child(self.data + other.data, (self, other), "add")

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        return self._make_child(self.data * other.data, (self, other), "mul")

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self._make_child(-self.data, (self,), "neg")

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        return self._make_child(self.data - other.data, (self, other), "sub")

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) - self

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        return self._make_child(self.data / other.data, (self, other), "div")

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._make_child(self.data**exponent, (self,), "pow")
        if out.requires_grad:
            out._ctx = exponent
        return out

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        return self._make_child(self.data @ other.data, (self, other), "matmul")

    def __rmatmul__(self, other) -> "Tensor":
        return as_tensor(other).__matmul__(self)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential (inputs clipped to ±700 for stability)."""
        return self._make_child(np.exp(np.clip(self.data, -700.0, 700.0)), (self,), "exp")

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        return self._make_child(np.log(self.data), (self,), "log")

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return self**0.5

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        return self._make_child(np.tanh(self.data), (self,), "tanh")

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid (numerically clipped)."""
        value = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        return self._make_child(value, (self,), "sigmoid")

    def relu(self) -> "Tensor":
        """Elementwise max(x, 0)."""
        return self._make_child(np.maximum(self.data, 0.0), (self,), "relu")

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        """Elementwise leaky ReLU with the given negative slope."""
        value = np.where(self.data > 0, self.data, negative_slope * self.data)
        out = self._make_child(value, (self,), "leaky_relu")
        if out.requires_grad:
            out._ctx = np.where(self.data > 0, 1.0, negative_slope)
        return out

    def abs(self) -> "Tensor":
        """Elementwise absolute value."""
        return self._make_child(np.abs(self.data), (self,), "abs")

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to [low, high] (gradient zero outside)."""
        out = self._make_child(np.clip(self.data, low, high), (self,), "clip")
        if out.requires_grad:
            out._ctx = (self.data >= low) & (self.data <= high)
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over the given axes (all by default)."""
        out = self._make_child(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")
        if out.requires_grad:
            out._ctx = (axis, keepdims)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean over the given axes (all by default)."""
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over the given axes; ties split the gradient evenly."""
        value = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make_child(value, (self,), "max")
        if out.requires_grad:
            mask = self.data == self.data.max(axis=axis, keepdims=True)
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            out._ctx = (axis, keepdims, mask, counts)
        return out

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Minimum over the given axes."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """View the data under a new shape (same number of elements)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return self._make_child(self.data.reshape(shape), (self,), "reshape")

    def flatten(self, start_axis: int = 0) -> "Tensor":
        """Flatten all axes from ``start_axis`` onward into one."""
        shape = self.data.shape[:start_axis] + (-1,)
        return self.reshape(shape)

    def transpose(self, *axes) -> "Tensor":
        """Permute axes (reversed order when none are given)."""
        if len(axes) == 0:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = self._make_child(self.data.transpose(axes), (self,), "transpose")
        if out.requires_grad:
            out._ctx = tuple(int(a) for a in np.argsort(axes))
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out = self._make_child(self.data[index], (self,), "getitem")
        if out.requires_grad:
            out._ctx = index
        return out

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable; return ndarray masks)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)


# ----------------------------------------------------------------------
# Adjoints: the one backward of every op
# ----------------------------------------------------------------------
# Each adjoint maps (node, g) -> per-parent gradients, where g carries a
# leading *root axis*: shape (R, *node.shape) with one row per backward
# root reaching the node (R = 1 for Tensor.backward).  Returned arrays
# keep the leading axis, shaped (R, *parent.shape) (or None for a constant
# parent).  This is what lets backward_multi run ONE numpy call per node
# instead of one per root.
def _adj_add(node, g):
    a, b = node._prev
    return unbroadcast_lead(g, a.data.shape), unbroadcast_lead(g, b.data.shape)


def _adj_sub(node, g):
    a, b = node._prev
    return unbroadcast_lead(g, a.data.shape), unbroadcast_lead(-g, b.data.shape)


def _adj_neg(node, g):
    return (-g,)


def _adj_mul(node, g):
    a, b = node._prev
    return (
        unbroadcast_lead(g * b.data, a.data.shape),
        unbroadcast_lead(g * a.data, b.data.shape),
    )


def _adj_div(node, g):
    a, b = node._prev
    return (
        unbroadcast_lead(g / b.data, a.data.shape),
        unbroadcast_lead(-g * a.data / (b.data**2), b.data.shape),
    )


def _adj_pow(node, g):
    exponent = node._ctx
    base = node._prev[0].data
    return (g * exponent * base ** (exponent - 1),)


def _adj_exp(node, g):
    return (g * node.data,)


def _adj_log(node, g):
    return (g / node._prev[0].data,)


def _adj_tanh(node, g):
    return (g * (1.0 - node.data**2),)


def _adj_sigmoid(node, g):
    return (g * node.data * (1.0 - node.data),)


def _adj_relu(node, g):
    return (g * (node._prev[0].data > 0),)


def _adj_leaky_relu(node, g):
    return (g * node._ctx,)


def _adj_abs(node, g):
    return (g * np.sign(node._prev[0].data),)


def _adj_clip(node, g):
    return (g * node._ctx,)


def _adj_matmul(node, g):
    a, b = node._prev
    return _matmul_grads(a.data, b.data, g, a.requires_grad, b.requires_grad)


def _matmul_grads(ad, bd, g, need_a, need_b):
    """Gradients of ``ad @ bd`` for a ``(R, *out.shape)`` upstream ``g``.

    Shared by the ``matmul`` and ``linear`` adjoints, so a fused
    :func:`~repro.nn.functional.linear` runs the same numpy calls as the
    ``matmul`` node it replaces.
    """
    grad_a = grad_b = None
    if ad.ndim == 2 and bd.ndim == 2:
        # Fast path for Linear layers: collapse the root axis into one big
        # GEMM instead of numpy's per-root batched-matmul loop.
        num_roots = g.shape[0]
        flat = np.ascontiguousarray(g).reshape(-1, g.shape[-1])  # (R*B, M)
        if need_a:
            grad_a = (flat @ bd.T).reshape(num_roots, *ad.shape)
        if need_b:
            # ad.T (N, B) @ g as (B, R*M) -> (N, R, M) -> (R, N, M)
            swapped = g.transpose(1, 0, 2).reshape(ad.shape[0], num_roots * g.shape[2])
            grad_b = (ad.T @ swapped).reshape(bd.shape[0], num_roots, bd.shape[1])
            grad_b = grad_b.transpose(1, 0, 2)
        return grad_a, grad_b
    if need_a:
        if bd.ndim == 1:
            grad_a = g[..., None] * bd
        elif ad.ndim == 1:
            grad_a = g @ np.swapaxes(bd, -1, -2)
            if grad_a.ndim > 2:
                grad_a = grad_a.sum(axis=tuple(range(1, grad_a.ndim - 1)))
        else:
            grad_a = g @ np.swapaxes(bd, -1, -2)
            if grad_a.shape[1:] != ad.shape:
                grad_a = unbroadcast_lead(grad_a, ad.shape)
    if need_b:
        if ad.ndim == 1 and bd.ndim == 1:
            grad_b = g[..., None] * ad
        elif ad.ndim == 1:
            if bd.ndim != 2:
                raise NotImplementedError("1D @ nD (n>2) backward unsupported")
            grad_b = ad[None, :, None] * g[:, None, :]
        elif bd.ndim == 1:
            grad_b = (np.swapaxes(ad, -1, -2) @ g[..., None])[..., 0]
            if grad_b.ndim > 2:
                grad_b = grad_b.sum(axis=tuple(range(1, grad_b.ndim - 1)))
        else:
            grad_b = np.swapaxes(ad, -1, -2) @ g
            if grad_b.shape[1:] != bd.shape:
                grad_b = unbroadcast_lead(grad_b, bd.shape)
    return grad_a, grad_b


def _lead_keepdims(g, axis, src_ndim):
    """Reshape ``(R, *reduced)`` to ``(R, *keepdims-shape)`` for ``axis``."""
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(a % src_ndim for a in axes)
    shape = [g.shape[0]]
    pos = 1
    for i in range(src_ndim):
        if i in axes:
            shape.append(1)
        else:
            shape.append(g.shape[pos])
            pos += 1
    return g.reshape(shape), axes


def _adj_sum(node, g):
    axis, keepdims = node._ctx
    src_shape = node._prev[0].data.shape
    if not keepdims:
        if axis is None:
            g = g.reshape((g.shape[0],) + (1,) * len(src_shape))
        else:
            g, _ = _lead_keepdims(g, axis, len(src_shape))
    return (np.broadcast_to(g, (g.shape[0],) + src_shape).copy(),)


def _adj_max(node, g):
    axis, keepdims, mask, counts = node._ctx
    src_shape = node._prev[0].data.shape
    if not keepdims:
        if axis is None:
            g = g.reshape((g.shape[0],) + (1,) * len(src_shape))
        else:
            g, _ = _lead_keepdims(g, axis, len(src_shape))
    return (np.broadcast_to(g, (g.shape[0],) + src_shape) * mask / counts,)


def _adj_reshape(node, g):
    return (g.reshape((g.shape[0],) + node._prev[0].data.shape),)


def _adj_transpose(node, g):
    inverse = node._ctx
    return (g.transpose((0,) + tuple(a + 1 for a in inverse)),)


def _scatter_rows(g, rows, num_rows):
    """Sum ``g``'s rows into a ``(R, num_rows, *rest)`` table at ``rows``.

    ``g`` is ``(R, *rows.shape, *rest)`` and ``rows`` holds ids in
    ``[0, num_rows)``.  This is ``np.add.at(zeros, (slice(None), rows), g)``
    as one flattened ``np.bincount``: both start every bin at zero and add
    its contributions in index order, so the result is bitwise equal.
    """
    num_roots = g.shape[0]
    rest = g.shape[1 + rows.ndim :]
    width = int(np.prod(rest, dtype=np.int64))
    bins = np.arange(num_roots)[:, None] * num_rows + rows.reshape(1, -1)
    bins = (bins[:, :, None] * width + np.arange(width)).reshape(-1)
    table = np.bincount(bins, weights=g.reshape(-1), minlength=num_roots * num_rows * width)
    return table.reshape((num_roots, num_rows) + rest)


class RowGrad:
    """Root-stacked gradients of a table that are zero outside a few rows.

    ``values`` is ``(R, U, *rest)`` and ``rows`` holds the ``U`` distinct
    rows of a ``(num_rows, *rest)`` table that ``values`` belong to; the
    gradient it stands for is :meth:`dense`, ``values`` at ``rows`` and
    ``+0.0`` everywhere else.  Adjoints return one for a parent they touch
    in few rows (see :func:`backward_multi`).
    """

    __slots__ = ("values", "rows", "num_rows")

    def __init__(self, values: np.ndarray, rows: np.ndarray, num_rows: int) -> None:
        self.values = values
        self.rows = rows
        self.num_rows = num_rows

    @property
    def nbytes(self) -> int:
        """Bytes it holds: the values and their rows."""
        return self.values.nbytes + self.rows.nbytes

    def dense(self) -> np.ndarray:
        """The ``(R, num_rows, *rest)`` gradient, zeros outside ``rows``."""
        values = self.values
        table = np.zeros((values.shape[0], self.num_rows) + values.shape[2:])
        table[:, self.rows] = values
        return table

    def write(self, position: int, dest: np.ndarray) -> np.ndarray:
        """Write root ``position``'s ``(num_rows, *rest)`` gradient into ``dest``."""
        dest.fill(0.0)
        dest[self.rows] = self.values[position]
        return dest


def _adj_getitem(node, g):
    index = node._ctx
    src_shape = node._prev[0].data.shape
    if type(index) is np.ndarray and index.dtype.kind == "i":
        # An embedding lookup: one bincount instead of np.add.at.
        return (_scatter_rows(g, index % src_shape[0], src_shape[0]),)
    grad = np.zeros((g.shape[0],) + src_shape, dtype=np.float64)
    full_index = (slice(None),) + (index if isinstance(index, tuple) else (index,))
    np.add.at(grad, full_index, g)
    return (grad,)


def _adj_concat(node, g):
    axis, offsets = node._ctx
    ndim = g.ndim
    grads = []
    for start, stop in zip(offsets[:-1], offsets[1:]):
        slicer: list = [slice(None)] * ndim
        slicer[axis + 1] = slice(int(start), int(stop))
        grads.append(g[tuple(slicer)])
    return tuple(grads)


def _adj_stack(node, g):
    axis, n = node._ctx
    return tuple(np.squeeze(piece, axis=axis + 1) for piece in np.split(g, n, axis=axis + 1))


def _adj_where(node, g):
    condition = node._ctx
    a, b = node._prev
    return (
        unbroadcast_lead(g * condition, a.data.shape),
        unbroadcast_lead(g * (~condition), b.data.shape),
    )


#: op name -> batched adjoint, the only backward each op has.  Ops defined
#: in other modules add theirs through :func:`register_multi_adjoint`.
_MULTI_ADJOINTS: dict[str, Callable] = {
    "add": _adj_add,
    "sub": _adj_sub,
    "neg": _adj_neg,
    "mul": _adj_mul,
    "div": _adj_div,
    "pow": _adj_pow,
    "exp": _adj_exp,
    "log": _adj_log,
    "tanh": _adj_tanh,
    "sigmoid": _adj_sigmoid,
    "relu": _adj_relu,
    "leaky_relu": _adj_leaky_relu,
    "abs": _adj_abs,
    "clip": _adj_clip,
    "matmul": _adj_matmul,
    "sum": _adj_sum,
    "max": _adj_max,
    "reshape": _adj_reshape,
    "transpose": _adj_transpose,
    "getitem": _adj_getitem,
    "concat": _adj_concat,
    "stack": _adj_stack,
    "where": _adj_where,
}


def register_multi_adjoint(op: str, adjoint: Callable) -> None:
    """Register the backward of a custom op (see ``_MULTI_ADJOINTS``).

    This is the only way an op defined outside this module gets a
    backward: :meth:`Tensor.backward` and :func:`backward_multi` both
    dispatch every non-leaf node to ``_MULTI_ADJOINTS[node._op]`` and raise
    for an op with no entry.  ``adjoint(node, g)`` receives the output
    tensor and a gradient with a leading root axis ``(R, *node.shape)``
    (R = 1 included) and must return one array per parent, each keeping
    the leading axis, or ``None`` for a parent that needs no gradient.
    Context the adjoint cannot recompute from ``node`` and ``node._prev``
    goes in ``node._ctx`` at forward time (e.g. ``pad2d`` in
    :mod:`repro.nn.conv`).
    """
    _MULTI_ADJOINTS[op] = adjoint


# ----------------------------------------------------------------------
# Multi-root backward
# ----------------------------------------------------------------------
def backward_multi(
    roots: Sequence[Tensor],
    grads: Sequence[np.ndarray | None] | None = None,
    per_root: Sequence[Tensor] = (),
    out: np.ndarray | None = None,
) -> list[list[np.ndarray | None]]:
    """Backpropagate from several roots in ONE walk over their union graph.

    Equivalent to calling ``root.backward()`` once per root (K topological
    sorts, K traversals, and K numpy calls per shared node; ``backward`` is
    this function with one root) but performs a single topological sort and
    a single traversal where every node carries
    a ``(R, ...)``-leading-axis gradient buffer — one row per root that
    reaches the node — and each op's batched adjoint runs ONCE over all
    rows.  Per-root sparsity is automatic: nodes private to one task's loss
    (a task head's subgraph) only ever carry and propagate that root's row,
    while shared-trunk nodes carry one row per task.

    Parameters
    ----------
    roots:
        The K root tensors (e.g. per-task losses); each must require grad.
    grads:
        Optional seed gradients, one per root (``None`` entries mean ones,
        like :meth:`Tensor.backward`).
    per_root:
        Tensors whose gradients must be kept *separated by root* instead of
        summed.  Their ``.grad`` buffers are left untouched; the separated
        gradients are returned instead.
    out:
        Optional C-contiguous ``(K, D)`` matrix, ``D`` the total size of
        ``per_root``, laid out as
        :func:`~repro.nn.utils.grad_vector_from_slots` packs it.  A
        row-sparse gradient (:class:`RowGrad`, from an embedding lookup)
        of a ``per_root`` leaf is then written straight into the leaf's
        segment of ``out[k]`` — zeroed, then its touched rows — and the
        slot is that segment viewed in the leaf's shape, so no dense
        per-root table is built.  The rest of ``out`` is left as it was;
        ``grad_vector_from_slots(per_root, slots, k, out=out[k])``
        completes row ``k``.

    Returns
    -------
    A list parallel to ``per_root``: entry ``i`` is a K-slot list where slot
    ``k`` holds d(roots[k])/d(per_root[i]) as an ndarray — or ``None`` when
    root ``k``'s graph never reaches that tensor (a zero gradient).

    Every other leaf (and ``retain_grad`` tensor) accumulates the *sum over
    roots* into ``.grad``, exactly as K sequential backward calls would.
    """
    ops = _STATE.ops
    if ops is not None:
        walk_start = ops.start_walk()
    roots = list(roots)
    if not roots:
        raise ValueError("backward_multi needs at least one root")
    for root in roots:
        if not root.requires_grad:
            raise RuntimeError("called backward_multi() on a tensor that does not require grad")
    if grads is None:
        seed_list: list[np.ndarray | None] = [None] * len(roots)
    else:
        seed_list = list(grads)
        if len(seed_list) != len(roots):
            raise ValueError(f"got {len(seed_list)} seed grads for {len(roots)} roots")
    seeds: list[np.ndarray] = []
    for root, seed in zip(roots, seed_list):
        if seed is None:
            seeds.append(np.ones_like(root.data))
        else:
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != root.data.shape:
                raise ValueError(
                    f"grad shape {seed.shape} does not match tensor shape {root.data.shape}"
                )
            seeds.append(seed.copy())

    # One topological sort over the union graph of all roots: every root
    # is pushed up front and the visited set merges the K subgraphs into
    # one ordering.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False) for root in reversed(roots)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._prev:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    separated: dict[int, list] = {id(t): [None] * len(roots) for t in per_root}
    # A per-root leaf takes each root's row into its slot as it arrives: it
    # has no adjoint to batch, so its rows are never stacked.
    # leaf id -> (slots, start of its segment in a row of ``out``).
    leaves = {}
    start = 0
    for t in per_root:
        if not t._prev:
            leaves[id(t)] = (separated[id(t)], start)
        start += t.size
    if out is not None and (out.shape != (len(roots), start) or not out.flags.c_contiguous):
        raise ValueError(
            f"out must be a C-contiguous ({len(roots)}, {start}) matrix; got {out.shape}"
        )

    # Per-node gradient buffer: either ``(ids, stack)`` — ids a sorted
    # tuple of root indices, stack of shape (len(ids), *node.shape) — or a
    # plain {root: grad} dict while contributions with differing root sets
    # are still merging.  Buffers are never mutated in place, so adjoint
    # outputs that alias each other (e.g. ``x + x``) stay correct.
    buffers: dict[int, object] = {}

    def _merge(parent: Tensor, ids: tuple[int, ...], stack_arr) -> None:
        key = id(parent)
        leaf = leaves.get(key)
        if leaf is not None:
            slots, offset = leaf
            sparse = type(stack_arr) is RowGrad
            for position, k in enumerate(ids):
                if sparse:
                    if slots[k] is None and out is not None:
                        dest = out[k, offset : offset + parent.size].reshape(parent.data.shape)
                    else:
                        dest = np.empty_like(parent.data)
                    row = stack_arr.write(position, dest)
                else:
                    row = stack_arr[position]
                # A second contribution from the same root (a table also
                # used densely) adds in arrival order.
                slots[k] = row if slots[k] is None else slots[k] + row
            return
        if type(stack_arr) is RowGrad:
            stack_arr = stack_arr.dense()
        existing = buffers.get(key)
        if existing is None:
            buffers[key] = (ids, stack_arr)
        elif type(existing) is tuple and existing[0] == ids:
            buffers[key] = (ids, existing[1] + stack_arr)
        else:
            if type(existing) is tuple:
                merged = dict(zip(existing[0], existing[1]))
            else:
                merged = existing
            for position, k in enumerate(ids):
                row = stack_arr[position]
                merged[k] = merged[k] + row if k in merged else row
            buffers[key] = merged

    for k, (root, seed) in enumerate(zip(roots, seeds)):
        _merge(root, (k,), seed[None])

    for node in reversed(topo):
        buffer = buffers.pop(id(node), None)
        if buffer is None:
            continue
        if type(buffer) is tuple:
            ids, grad_stack = buffer
        else:
            ids = tuple(sorted(buffer))
            grad_stack = (
                buffer[ids[0]][None] if len(ids) == 1 else np.stack([buffer[i] for i in ids])
            )
        out_slots = separated.get(id(node))
        if out_slots is not None:
            for position, k in enumerate(ids):
                row = grad_stack[position]
                out_slots[k] = row if out_slots[k] is None else out_slots[k] + row
        elif not node._prev or node._retains:
            node._accumulate(grad_stack[0] if len(ids) == 1 else grad_stack.sum(axis=0))
        if not node._prev:
            continue
        adjoint = _MULTI_ADJOINTS.get(node._op)
        if adjoint is None:
            raise NotImplementedError(
                f"op {node._op!r} has no backward; give it one with register_multi_adjoint"
            )
        if ops is None:
            parent_stacks = adjoint(node, grad_stack)
        else:
            parent_stacks = ops.run_adjoint(node, adjoint, grad_stack)
        for parent, parent_stack in zip(node._prev, parent_stacks):
            if parent_stack is not None and parent.requires_grad:
                _merge(parent, ids, parent_stack)
    if ops is not None:
        ops.record_walk(walk_start)
    return [separated[id(t)] for t in per_root]


# ----------------------------------------------------------------------
# Free functions operating on collections of tensors
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = tensors[0]._make_child(data, tensors, "concat")
    if out.requires_grad:
        offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
        out._ctx = (axis % data.ndim, offsets)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    out = tensors[0]._make_child(data, tensors, "stack")
    if out.requires_grad:
        out._ctx = (axis % data.ndim, len(tensors))
    return out


def where(condition: np.ndarray, a, b) -> Tensor:
    """Differentiable selection ``condition ? a : b`` (condition is fixed)."""
    a, b = as_tensor(a), as_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)
    out = a._make_child(data, (a, b), "where")
    if out.requires_grad:
        out._ctx = condition
    return out
