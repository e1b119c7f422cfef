"""Every paper artifact in presentation order: id → (runner module, label).

Each runner has ``PRESETS``, ``run(preset="quick", …, seed=0)`` and
``format_result``; ``python -m repro <id>`` and the benches both call it."""

from __future__ import annotations

from . import ablation_conflict_stress, ablation_grad_source, ablation_mocograd_modes
from . import fig1_task_interference, fig2_tci_gcd, fig5_officehome, fig6_convergence
from . import fig7_architectures, fig8_backward_time, fig9_lambda
from . import table1_aliexpress, table2_regression, table3_nyuv2, table4_cityscapes

__all__ = ["REGISTRY", "ARTIFACT_ORDER"]

REGISTRY = {
    "fig1": (fig1_task_interference, "Fig. 1 — task interference vs task count"),
    "fig2": (fig2_tci_gcd, "Fig. 2 — TCI vs GCD correlation"),
    "table1": (table1_aliexpress, "Table I — AliExpress AUC"),
    "table2": (table2_regression, "Table II — QM9 / MovieLens regression"),
    "table3": (table3_nyuv2, "Table III — NYUv2"),
    "table4": (table4_cityscapes, "Table IV — CityScapes"),
    "fig5": (fig5_officehome, "Fig. 5 — Office-Home accuracy"),
    "fig6": (fig6_convergence, "Fig. 6 — convergence curves"),
    "fig7": (fig7_architectures, "Fig. 7 — architecture sweep"),
    "fig8": (fig8_backward_time, "Fig. 8 — backward time"),
    "fig9": (fig9_lambda, "Fig. 9 — λ sensitivity"),
    "ablation_conflict_stress": (ablation_conflict_stress, "Ablation — conflict stress"),
    "ablation_mocograd_modes": (ablation_mocograd_modes, "Ablation — MoCoGrad design choices"),
    "ablation_grad_source": (ablation_grad_source, "Ablation — feature-level gradients"),
}

#: ``(id, label)`` pairs in the paper's presentation order.
ARTIFACT_ORDER = tuple((identifier, label) for identifier, (_, label) in REGISTRY.items())
