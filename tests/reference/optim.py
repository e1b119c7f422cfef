"""Inputs that make an optimizer run its per-parameter loop kernel.

:mod:`repro.nn.optim` selects the fused flat kernel whenever its
parameters form one contiguous arena segment, and the loop kernel for
plain parameter lists.  Both execute the same elementwise operation
sequence, so their trajectories must be bitwise equal.
"""

from __future__ import annotations

from repro.nn import Parameter
from repro.nn.arena import packed_segment


def unpacked_copy(parameters) -> list[Parameter]:
    """Standalone parameters holding copies of the given values."""
    return [Parameter(param.data.copy()) for param in parameters]


def loop_order(parameters) -> list[Parameter]:
    """Packed parameters in reverse packing order.

    The reversed list is no contiguous arena segment, so an optimizer over
    it runs the loop kernel while still updating the packed arrays in
    place — the loop reference for a trainer, which always owns an arena.
    """
    ordered = list(reversed(parameters))
    if packed_segment(ordered) is not None:
        raise ValueError("need at least two packed parameters")
    return ordered
