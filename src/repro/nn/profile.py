"""Per-op cost of the autodiff engine: calls, seconds and output bytes.

While an :class:`OpProfile` is active on a thread, the engine reports to
it from its two dispatch points: ``Tensor._make_child`` (every forward op)
and the one ``_MULTI_ADJOINTS[node._op]`` call in
:func:`~repro.nn.tensor.backward_multi` (every backward op).  With no
profile active each costs one ``is None`` branch per op.

- **Forward seconds are lap times:** the time since the previous engine
  event on the thread (entering the profile, the previous op, or the end
  of a backward walk).  They include the Python glue that led up to the
  op (module calls, argument coercion), which is the cost that matters in
  a dispatch-bound engine.  :class:`~repro.training.MTLTrainer` restarts
  the lap at the start of every step, so no lap spans the data loader,
  the balancer or the optimizer.
- **Backward seconds** time the adjoint call alone.  The rest of each
  walk (topological sort, buffer merges, leaf accumulation) is
  ``walks`` minus the adjoint total.
- **Bytes** are the ``nbytes`` of the op's output (forward) or of the
  parent gradients its adjoint returns (backward), views included; a
  :class:`~repro.nn.tensor.RowGrad` counts its values and rows.
- **Faults** are the minor page faults the thread took during each
  walk (``getrusage(RUSAGE_THREAD)``, read only while a profile is
  active): a fresh multi-MB gradient array faults in page by page.

``python -m repro train --profile …`` records one around its run and
writes it as an ``ops`` telemetry event, which
``python -m repro report run.jsonl --ops`` renders.
"""

from __future__ import annotations

import resource
import time

from . import tensor as _tensor

__all__ = ["OpProfile", "active_op_profile"]

_clock = time.perf_counter
_RUSAGE = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)


def _minor_faults() -> int:
    return resource.getrusage(_RUSAGE).ru_minflt


class OpProfile:
    """Calls, seconds and output bytes per op name, forward and backward.

    Use as a context manager; profiles nest (the inner one records while
    it is active) and are per thread::

        ops = OpProfile()
        with ops:
            loss = model(x).sum()
            loss.backward()
        ops.to_dict()["backward"]["linear"]   # [calls, seconds, bytes]
    """

    def __init__(self) -> None:
        #: op -> [calls, seconds, bytes]
        self.forward: dict[str, list] = {}
        self.backward: dict[str, list] = {}
        #: [backward walks, seconds, minor page faults] over whole
        #: ``backward_multi`` calls
        self.walks = [0, 0.0, 0]
        self._lap = 0.0
        self._outer: list = []

    def __enter__(self) -> "OpProfile":
        self._outer.append(_tensor._STATE.ops)
        _tensor._STATE.ops = self
        self._lap = _clock()
        return self

    def __exit__(self, *exc) -> None:
        _tensor._STATE.ops = self._outer.pop()

    def restart_lap(self) -> None:
        """Start the next forward lap now (e.g. at the start of a step)."""
        self._lap = _clock()

    def record_forward(self, op: str, nbytes: int) -> None:
        """Count one forward op; its seconds are the lap since the last event."""
        now = _clock()
        stats = self.forward.get(op)
        if stats is None:
            stats = self.forward[op] = [0, 0.0, 0]
        stats[0] += 1
        stats[1] += now - self._lap
        stats[2] += nbytes
        self._lap = now

    def run_adjoint(self, node, adjoint, grad_stack):
        """Call ``adjoint(node, grad_stack)`` and count it under ``node._op``."""
        start = _clock()
        parent_stacks = adjoint(node, grad_stack)
        seconds = _clock() - start
        stats = self.backward.get(node._op)
        if stats is None:
            stats = self.backward[node._op] = [0, 0.0, 0]
        stats[0] += 1
        stats[1] += seconds
        for parent_stack in parent_stacks:
            if parent_stack is not None:
                stats[2] += parent_stack.nbytes
        return parent_stacks

    def start_walk(self) -> tuple[float, int]:
        """The clock and fault count a ``backward_multi`` walk starts at."""
        return _clock(), _minor_faults()

    def record_walk(self, start: tuple[float, int]) -> None:
        """Count one walk begun at ``start``; restarts the lap."""
        self._lap = _clock()
        self.walks[0] += 1
        self.walks[1] += self._lap - start[0]
        self.walks[2] += _minor_faults() - start[1]

    def to_dict(self) -> dict:
        """A JSON-ready copy: ``{"forward", "backward", "walks"}``."""
        return {
            "forward": {op: list(stats) for op, stats in self.forward.items()},
            "backward": {op: list(stats) for op, stats in self.backward.items()},
            "walks": list(self.walks),
        }


def active_op_profile() -> OpProfile | None:
    """The :class:`OpProfile` recording on this thread, or None."""
    return _tensor._STATE.ops
