"""Contiguous parameter arena: one flat buffer behind many parameters.

Gradient-manipulation MTL spends its life converting between the per-parameter
world (autograd accumulates into ``param.grad``; optimizers update
``param.data``) and the flat-vector world (balancers consume and produce
``(K, d)`` gradient matrices over the shared parameters).  Before this module
every conversion paid P per-parameter copies, and every optimizer step paid P
tiny BLAS-1 calls.

:class:`ParameterArena` removes the conversion entirely: it packs a list of
parameters into ONE contiguous ``(d,)`` data buffer and ONE contiguous
``(d,)`` grad buffer, then rebinds each ``Parameter``'s ``.data`` and
``.grad`` to reshaped *views* into those buffers.  Afterwards:

- autograd keeps accumulating into ``param.grad`` as before — the writes land
  in the arena's grad buffer, so the flat gradient vector is always already
  materialized;
- ``grad_vector`` / ``set_grad_from_vector`` / ``parameter_vector`` /
  ``set_parameters_from_vector`` (see :mod:`repro.nn.utils`) detect a
  contiguous arena segment and collapse to a single slice view or one bulk
  copy;
- ``zero_grad`` over the whole parameter set is one ``fill(0.0)``;
- every optimizer in :mod:`repro.nn.optim` steps an arena: it updates
  ``arena.data`` from ``arena.grad`` with a handful of fused in-place vector
  ops, and rejects a plain parameter list.

Packing contract and view invariants
------------------------------------
- Parameters are packed in the order given (duplicates collapse to their
  first occurrence); each occupies ``[offset, offset + size)`` of both
  buffers, so a sequence of parameters that is consecutive in packing order
  maps to one contiguous slice.
- After packing, ``param.data`` and ``param.grad`` are always views into the
  arena (``param.grad`` is never ``None``; a cleared gradient is a
  zero-filled view).  Code must mutate them in place (``param.data[...] =``)
  rather than rebinding the attributes; the in-tree mutation sites
  (``Module.load_state_dict``, the :mod:`repro.nn.utils` setters and
  ``Parameter.zero_grad``) already do.
- A parameter cannot be packed when it is already bound to another arena
  (rebinding would silently detach the first arena's views) or when its data
  is not a float64 array (the arena buffer is float64 and a cast would break
  the view identity); both raise ``ValueError``.  Call :meth:`unpack` first
  to release a parameter from its arena; afterwards the arena holds no
  buffers (``data`` and ``grad`` are ``None``), so an optimizer still
  stepping it raises instead of writing to detached memory.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .module import Parameter

__all__ = ["ParameterArena", "packed_segment"]


class ParameterArena:
    """Pack parameters into contiguous flat data/grad buffers (as views).

    Parameters
    ----------
    parameters:
        The parameters to pack, in packing order.  Duplicates (by identity)
        are collapsed to their first occurrence.  Values and any existing
        gradients are preserved through packing.
    """

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        seen: set[int] = set()
        params: list[Parameter] = []
        for param in parameters:
            if not isinstance(param, Parameter):
                raise TypeError(f"arena can only pack Parameters, got {type(param).__name__}")
            if id(param) in seen:
                continue
            seen.add(id(param))
            params.append(param)
        if not params:
            raise ValueError("cannot build an arena over an empty parameter list")
        for param in params:
            if param._arena is not None:
                raise ValueError("parameter is already packed into another arena")
            if param.data.dtype != np.float64:
                raise ValueError(f"cannot pack non-float64 parameter (dtype {param.data.dtype})")

        self.parameters: list[Parameter] = params
        #: flat start offset of each parameter, parallel to ``parameters``
        self.offsets: list[int] = []
        total = 0
        for param in params:
            self.offsets.append(total)
            total += param.size
        #: total packed length ``d``
        self.size: int = total
        #: the contiguous ``(d,)`` value buffer (parameter ``.data`` are
        #: views); ``None`` after :meth:`unpack`
        self.data: np.ndarray | None = np.empty(total)
        #: the contiguous ``(d,)`` gradient buffer (parameter ``.grad`` are
        #: views); ``None`` after :meth:`unpack`
        self.grad: np.ndarray | None = np.zeros(total)
        for param, offset in zip(params, self.offsets):
            shape = param.data.shape
            data_view = self.data[offset : offset + param.size].reshape(shape)
            grad_view = self.grad[offset : offset + param.size].reshape(shape)
            data_view[...] = param.data
            if param.grad is not None:
                grad_view[...] = param.grad
            param.data = data_view
            param.grad = grad_view
            param._arena = self
            param._arena_offset = offset

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.parameters)

    def __repr__(self) -> str:
        return f"ParameterArena(parameters={len(self.parameters)}, size={self.size})"

    def zero_grad(self) -> None:
        """Clear every packed gradient with a single buffer fill."""
        self.grad.fill(0.0)

    def unpack(self) -> None:
        """Release every parameter back to standalone (copied) arrays.

        After this the parameters may be packed into a new arena, and the
        arena drops its buffers: ``data`` and ``grad`` become ``None``, so
        nothing can keep stepping memory the parameters no longer use.
        """
        for param in self.parameters:
            param.data = param.data.copy()
            param.grad = None if param.grad is None else param.grad.copy()
            param._arena = None
            param._arena_offset = 0
        self.data = None
        self.grad = None


def packed_segment(
    parameters: Sequence[Parameter],
) -> tuple[ParameterArena, slice] | None:
    """Detect a contiguous arena segment behind a parameter sequence.

    Returns ``(arena, slice)`` when every parameter is packed in the *same*
    arena and they are consecutive in packing order starting at the first
    parameter's offset; ``None`` otherwise.  This is the dispatch check the
    :mod:`repro.nn.utils` vector helpers use to replace per-parameter
    gather/scatter loops with one slice — it is pure Python bookkeeping
    (no array ops), O(len(parameters)).
    """
    if not parameters:
        return None
    first = parameters[0]
    if not isinstance(first, Parameter):
        return None
    arena = first._arena
    if arena is None:
        return None
    start = first._arena_offset
    expected = start
    for param in parameters:
        if not isinstance(param, Parameter) or param._arena is not arena:
            return None
        if param._arena_offset != expected:
            return None
        expected += param.size
    return arena, slice(start, expected)
