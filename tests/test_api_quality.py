"""API-quality gates: docstrings and registry consistency across the package.

Deliverable-level checks: every public item (everything exported through an
``__all__``) carries a docstring, and the module tree imports cleanly.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.core",
    "repro.balancers",
    "repro.arch",
    "repro.data",
    "repro.metrics",
    "repro.training",
    "repro.analysis",
    "repro.experiments",
    "repro.obs",
    "repro.serve",
]


def iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                yield importlib.import_module(f"{package_name}.{info.name}")


ALL_MODULES = list(iter_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_items_documented(module):
    exported = getattr(module, "__all__", [])
    for name in exported:
        item = getattr(module, name)
        if inspect.ismodule(item) or isinstance(item, (str, tuple, dict, list)):
            continue
        assert inspect.getdoc(item), f"{module.__name__}.{name} lacks a docstring"
        if inspect.isclass(item):
            for method_name, method in vars(item).items():
                if method_name.startswith("_") or not callable(method):
                    continue
                # inspect.getdoc on the *class attribute lookup* inherits
                # docstrings through the MRO — an override that keeps the
                # documented base contract counts as documented.
                assert inspect.getdoc(getattr(item, method_name)), (
                    f"{module.__name__}.{name}.{method_name} lacks a docstring"
                )


def test_every_balancer_name_matches_registry_key():
    import repro.balancers  # noqa: F401
    from repro.core import available_balancers, create_balancer

    for name in available_balancers():
        assert create_balancer(name).name == name


def test_version_exposed():
    assert repro.__version__
