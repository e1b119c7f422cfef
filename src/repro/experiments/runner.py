"""Method tables: the STL row plus one seed-averaged row per method, with ΔM.

:func:`run_methods` runs :func:`repro.training.run_stl` and
:func:`repro.training.run.run` for a whole method list under one
:class:`~repro.training.RunSpec` and attaches the ΔM aggregate (Eq. 27).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from ..data.base import Benchmark
from ..metrics.delta import delta_m_from_results
from ..training.history import History
from ..training.run import METHODS, RunSpec, run, run_stl

__all__ = ["MethodResult", "run_methods"]


@dataclass
class MethodResult:
    """Test metrics of one method plus its ΔM against the STL baseline.

    ``history`` is the training :class:`~repro.training.history.History`
    of the run (the last seed's when seed-averaging); ``telemetry`` is the
    per-run digest from :meth:`repro.obs.Telemetry.summary` — span timing
    statistics plus the metric snapshot (conflict counters, MoCoGrad
    calibration counts).
    """

    method: str
    metrics: dict[str, dict[str, float]]
    delta_m: float | None = None
    history: History | None = None
    telemetry: dict | None = None


def run_methods(
    benchmark: Benchmark,
    spec: RunSpec,
    methods: Sequence[str] = METHODS,
    stl_metrics: Mapping[str, Mapping[str, float]] | None = None,
) -> dict[str, MethodResult]:
    """Run STL plus every method of ``methods`` under ``spec``; attach ΔM per method.

    Returns ``{"stl": MethodResult, method: MethodResult, ...}``; the STL
    row carries ΔM = 0 by definition.
    """
    if stl_metrics is None:
        stl_metrics = run_stl(benchmark, spec)
    directions = {
        task.name: dict(task.higher_is_better) for task in benchmark.tasks
    }
    results = {"stl": MethodResult("stl", dict(stl_metrics), 0.0)}
    for method in methods:
        metrics, trainer = run(benchmark, replace(spec, method=method))
        delta = delta_m_from_results(metrics, stl_metrics, directions)
        results[method] = MethodResult(
            method,
            metrics,
            delta,
            history=trainer.history,
            telemetry=trainer.telemetry.summary(),
        )
    return results
