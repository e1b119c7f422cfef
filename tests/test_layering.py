"""Package layering: ``training`` < ``analysis`` < ``experiments``.

Every module of ``repro.training`` and ``repro.analysis`` is parsed with
``ast`` (nothing is imported), and each import, relative ones resolved, is
checked against the packages that layer may not reach: the run protocol
sits below the analysis drivers, which sit below the experiment tables.
"""

import ast
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent

#: layer → packages its modules must not import
FORBIDDEN = {
    "training": ("repro.analysis", "repro.experiments"),
    "analysis": ("repro.experiments",),
}


def _module_name(path: Path) -> str:
    parts = ("repro",) + path.relative_to(PACKAGE_ROOT).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(source: str, module: str, is_package: bool = False) -> set[str]:
    """Absolute names of every module ``source`` (the code of ``module``)
    imports; ``from x import y`` counts both ``x`` and ``x.y``, since ``y``
    may be a submodule."""
    package = module.split(".") if is_package else module.split(".")[:-1]
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            name = ".".join(base + ([node.module] if node.module else []))
            found.add(name)
            found.update(f"{name}.{alias.name}" for alias in node.names)
    return found


def _violations(layer: str) -> list[str]:
    forbidden = FORBIDDEN[layer]
    violations = []
    for path in sorted((PACKAGE_ROOT / layer).rglob("*.py")):
        module = _module_name(path)
        targets = imported_modules(path.read_text(), module, path.name == "__init__.py")
        violations += [
            f"{module} imports {target}"
            for target in sorted(targets)
            if any(target == name or target.startswith(name + ".") for name in forbidden)
        ]
    return violations


@pytest.mark.parametrize("layer", sorted(FORBIDDEN))
def test_layer_imports_nothing_above_it(layer):
    assert _violations(layer) == []


def test_relative_imports_resolve():
    source = (
        "import numpy as np\n"
        "from ..training.run import run\n"
        "from . import timing\n"
        "from .. import experiments\n"
    )
    assert imported_modules(source, "repro.analysis.sensitivity") == {
        "numpy",
        "repro.training.run",
        "repro.training.run.run",
        "repro.analysis",
        "repro.analysis.timing",
        "repro",
        "repro.experiments",
    }
    package = imported_modules("from .timing import f", "repro.analysis", is_package=True)
    assert package == {"repro.analysis.timing", "repro.analysis.timing.f"}


def test_modules_are_found():
    assert _module_name(PACKAGE_ROOT / "analysis" / "__init__.py") == "repro.analysis"
    assert len(list((PACKAGE_ROOT / "training").rglob("*.py"))) > 3
