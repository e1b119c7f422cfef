"""Host speed reference: a fixed kernel that touches no repo code.

The gated timings are stated at a reference host speed.  Each process
times :func:`host_ref_ms` next to its work (before and after a set-up,
between training epochs, between serving chunks); durations are
multiplied and rates divided by :func:`speed` of those readings.  The
shared 2-core host this benchmark was built on moves between faster and
slower phases, up to 2x apart, lasting seconds to minutes; the kernel
follows most of that drift, and no change to the repo can move it (see
``NOTES.md``, "Bounds and noise").
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time (ms) that defines reference speed: about its median on
#: the 2-core host the benchmark was built on.
REF_NOMINAL_MS = 10.0

_X = np.linspace(0.0, 1.0, 1024)
_Y = _X[::-1].copy()


def host_ref_ms(repeats: int = 3) -> float:
    """Median time of the kernel over ``repeats`` runs, in ms.

    It mixes what the workloads spend their time on: a pure-Python loop,
    small numpy element-wise calls, and building and sorting small objects.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        x = _X
        for _ in range(400):
            x = np.tanh(x * 0.5 + _Y)
        for _ in range(20):
            table = {i: (i, str(i)) for i in range(500)}
            sorted(table.values(), key=lambda v: -v[0])
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


#: Workloads whose timings follow the kernel too little to be scaled by
#: it: ``ml9`` (large BLAS calls, nine shard threads) moved about 1.2x
#: between host phases in which the kernel moved 1.5x, so scaling made
#: its spread over runs wider, not narrower.
UNSCALED = frozenset({"ml9"})


def speed(refs_ms, workload: str) -> float:
    """Host speed relative to the reference (> 1 on a fast phase).

    From the median of the readings taken during one piece of work;
    multiply a duration by it, or divide a rate by it, to state the
    measurement at reference speed.  1 for the ``UNSCALED`` workloads.
    """
    if workload in UNSCALED:
        return 1.0
    return REF_NOMINAL_MS / statistics.median(refs_ms)
