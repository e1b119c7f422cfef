"""Fig. 7 — MoCoGrad under five MTL architectures on CityScapes.

For each architecture (HPS, Cross-stitch, MTAN, MMoE, CGC) trains MoCoGrad
on the CityScapes benchmark and reports ΔM relative to the single-task
baseline, reproducing the paper's finding that MoCoGrad helps under every
architecture and composes with the richer ones.
"""

from __future__ import annotations

from dataclasses import replace

from ..arch import ARCHITECTURES
from ..data.cityscapes import make_cityscapes
from ..metrics.delta import delta_m_from_results
from ..training.run import RunSpec, run, run_stl

__all__ = ["architecture_sweep"]


def architecture_sweep(
    architectures=ARCHITECTURES,
    method: str = "mocograd",
    num_scenes: int = 120,
    epochs: int = 4,
    batch_size: int = 16,
    lr: float = 3e-3,
    seed: int = 0,
) -> dict:
    """ΔM of ``method`` under each architecture: ``{arch: delta_m}``."""
    benchmark = make_cityscapes(num_scenes=num_scenes, seed=seed)
    spec = RunSpec(method=method, epochs=epochs, batch_size=batch_size, lr=lr, seed=seed)
    stl = run_stl(benchmark, spec)
    directions = {t.name: dict(t.higher_is_better) for t in benchmark.tasks}
    deltas: dict[str, float] = {}
    metrics_by_arch: dict[str, dict] = {}
    for architecture in architectures:
        metrics, _ = run(benchmark, replace(spec, architecture=architecture))
        metrics_by_arch[architecture] = metrics
        deltas[architecture] = delta_m_from_results(metrics, stl, directions)
    return {"delta_m": deltas, "metrics": metrics_by_arch, "stl": stl}
