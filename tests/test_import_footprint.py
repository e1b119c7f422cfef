"""Every process imports only what it runs.

``import repro`` must load neither scipy (only CAGrad's and Nash-MTL's
solvers use it) nor networkx (only the QM9 generator does); each loads
where it is used.  Nothing in the package starts a process, so
``multiprocessing`` stays out as well.  The test session itself has imported both, so every
check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).parents[1])

#: What a training, serving or perfbench process imports.
PACKAGE_IMPORTS = """
import sys
import repro, repro.balancers, repro.training, repro.serve, repro.data.streams
assert "scipy" not in sys.modules, "import repro loaded scipy"
assert "networkx" not in sys.modules, "import repro loaded networkx"
assert "multiprocessing" not in sys.modules, "import repro loaded multiprocessing"
# numpy loads these lazily; repro.data.streams imports them up front so
# their cost stays out of the first stream's set-up.
assert "numpy.random" in sys.modules and "numpy.ma" in sys.modules
"""


def run_fresh(code: str) -> None:
    result = subprocess.run(
        [sys.executable, "-c", PACKAGE_IMPORTS + code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.returncode == 0, result.stderr


def test_package_imports_neither_scipy_nor_networkx():
    run_fresh("")


@pytest.mark.parametrize("name", ["CAGrad", "NashMTL"])
def test_constructing_a_solver_balancer_loads_scipy_optimize(name):
    """Construction pays for scipy; the timed ``balance()`` imports nothing."""
    run_fresh(
        f"""
import numpy as np
from repro.balancers import {name}
balancer = {name}(seed=0)
assert "scipy.optimize" in sys.modules
assert "networkx" not in sys.modules
loaded = set(sys.modules)
balancer.balance(np.array([[1.0, 0.2], [-0.8, 0.5]]), np.ones(2))
assert set(sys.modules) == loaded, sorted(set(sys.modules) - loaded)
"""
    )


def test_building_qm9_data_loads_networkx():
    run_fresh(
        """
from repro.data import make_qm9
make_qm9(properties=("mu",), molecules_per_task=4, val_molecules=2, test_molecules=2)
assert "networkx" in sys.modules
assert "scipy" not in sys.modules
"""
    )
