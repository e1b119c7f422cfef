"""Combine the benchmark harness outputs into one report.

``pytest benchmarks/ --benchmark-only`` writes each regenerated table to
``benchmarks/results/<id>.txt``, the same text ``python -m repro <id>``
prints; :func:`summarize_results` stitches them into a single document in
the paper's artifact order — handy for diffing two runs or pasting into
an issue.
"""

from __future__ import annotations

from pathlib import Path

from .registry import ARTIFACT_ORDER

__all__ = ["ARTIFACT_ORDER", "summarize_results", "missing_results"]


def missing_results(results_dir) -> list[str]:
    """Artifact ids whose result file has not been generated yet."""
    results_dir = Path(results_dir)
    return [
        identifier
        for identifier, _ in ARTIFACT_ORDER
        if not (results_dir / f"{identifier}.txt").exists()
    ]


def summarize_results(results_dir, include_missing: bool = True) -> str:
    """One document with every generated table, in paper order."""
    results_dir = Path(results_dir)
    sections = ["# Reproduction results", ""]
    for identifier, description in ARTIFACT_ORDER:
        path = results_dir / f"{identifier}.txt"
        sections.append(f"## {description}")
        if path.exists():
            sections.append("")
            sections.append(path.read_text().rstrip())
        elif include_missing:
            sections.append("")
            sections.append(f"*(not generated — run `python -m repro {identifier}`)*")
        sections.append("")
    return "\n".join(sections)
