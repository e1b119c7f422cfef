"""Parameter names are the checkpoint format: pin them per architecture.

``parameter_names.json`` holds, for each architecture the factories build,
the sorted ``named_parameters()`` names and the ``modules()`` count of a
tiny instance.  A change to either breaks every saved checkpoint.
"""

import json
from pathlib import Path

import pytest

from repro.arch.factory import MLP_ARCHITECTURES, build_mlp_model, build_tabular_model

PINNED = json.loads((Path(__file__).parent / "parameter_names.json").read_text())


def _build(key):
    family, architecture = key.split("/")
    if family == "mlp":
        return build_mlp_model(architecture, 3, [4, 2], ["a", "b"], seed=0)
    return build_tabular_model(
        architecture, (40, 60, 12, 8, 4), 2, [4, 2], ["CTR", "CTCVR"], seed=0
    )


def test_every_mlp_architecture_pinned():
    assert {f"mlp/{arch}" for arch in MLP_ARCHITECTURES} <= set(PINNED)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_parameter_names_pinned(key):
    model = _build(key)
    assert sorted(name for name, _ in model.named_parameters()) == PINNED[key]["names"]
    assert len(list(model.modules())) == PINNED[key]["modules"]
