"""``repro.experiments`` — per-table/figure reproduction runners.

Each module exposes ``run(preset, …, seed)`` returning structured results
and ``format_result`` printing the paper's layout.  :data:`REGISTRY` maps
every artifact id (``fig1`` … ``ablation_grad_source``) to its module, in
paper order; see DESIGN.md for the experiment index.
"""

from .runner import (
    METHODS,
    MethodResult,
    RunConfig,
    average_metric_dicts,
    run_method,
    run_methods,
    run_stl_baseline,
)
from .plots import ascii_bar_chart, ascii_line_chart, ascii_scatter
from .registry import ARTIFACT_ORDER, REGISTRY
from .reporting import format_percent, format_table
from .summary import missing_results, summarize_results

__all__ = [
    "METHODS",
    "RunConfig",
    "MethodResult",
    "run_method",
    "run_methods",
    "run_stl_baseline",
    "average_metric_dicts",
    "format_table",
    "format_percent",
    "REGISTRY",
    "ARTIFACT_ORDER",
    "summarize_results",
    "missing_results",
    "ascii_scatter",
    "ascii_line_chart",
    "ascii_bar_chart",
]
