"""Shared configuration for the benchmark harness.

Each artifact benchmark regenerates one table or figure of the paper (see
DESIGN.md's experiment index) with its ``repro.experiments.REGISTRY``
runner, prints the rows, writes them to ``benchmarks/results/<id>.txt``
and asserts the paper's shape on the result.

Preset selection: set ``REPRO_BENCH_PRESET=full`` for the larger
configurations (minutes per table); the default ``quick`` preset keeps the
whole harness in the ten-minute range while preserving the qualitative
shape of every result.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import REGISTRY

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def preset() -> str:
    return os.environ.get("REPRO_BENCH_PRESET", "quick")


@pytest.fixture
def regenerate(benchmark, preset):
    """Fixture returning ``regenerate(id)``: runs that artifact once at the
    session preset (timed by pytest-benchmark), prints its text, writes it
    to ``results/<id>.txt`` and returns the result."""

    def _regenerate(identifier: str):
        module, _ = REGISTRY[identifier]
        result = benchmark.pedantic(lambda: module.run(preset=preset), rounds=1, iterations=1)
        text = module.format_result(result)
        print("\n" + text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{identifier}.txt").write_text(text + "\n")
        return result

    return _regenerate
