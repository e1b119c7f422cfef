"""One model builder per benchmark: pin every model it builds.

``model_builders.json`` holds, for each benchmark builder, the sorted
parameter names and the SHA-256 of the state dict of

- ``stl/<task>``: the single-task model of every task,
  ``build_model("hps", default_rng(0), tasks=(task,))``;
- ``all/<architecture>``: the all-task model under every architecture the
  benchmark supports, ``build_model(architecture, default_rng(0))``.

The ``stl/*`` digests were taken from the separate single-task builder
that ``tasks=`` replaced, so they pin that the STL baseline of every table
(and the ΔM / TCI reference risks) is bitwise the model it was.
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.arch.factory import TABULAR_ARCHITECTURES
from repro.data import (
    make_aliexpress,
    make_aliexpress_stream,
    make_cityscapes,
    make_movielens,
    make_movielens_stream,
    make_nyuv2,
    make_officehome,
    make_qm9,
    make_synthetic_mtl,
    make_synthetic_stream,
)

PINNED = json.loads((Path(__file__).parent / "model_builders.json").read_text())

#: ``name -> (tiny benchmark factory, architectures it supports)``.  Model
#: shapes depend only on the builders' model knobs, so the data stay tiny.
BUILDERS = {
    "aliexpress": (lambda: make_aliexpress(num_records=100), TABULAR_ARCHITECTURES),
    "synthetic": (lambda: make_synthetic_mtl(num_samples=60), ("hps",)),
    "movielens": (lambda: make_movielens(records_per_genre=20), ("hps", "mmoe")),
    "qm9": (
        lambda: make_qm9(molecules_per_task=4, val_molecules=4, test_molecules=4),
        ("hps",),
    ),
    "nyuv2": (lambda: make_nyuv2(num_scenes=10), ("hps",)),
    "cityscapes": (
        lambda: make_cityscapes(num_scenes=10),
        ("hps", "mmoe", "cgc", "cross_stitch", "mtan"),
    ),
    "officehome": (lambda: make_officehome(samples_per_domain=10), ("hps",)),
    "aliexpress_stream": (
        lambda: make_aliexpress_stream(num_records=128, chunk_size=64),
        TABULAR_ARCHITECTURES,
    ),
    "movielens_stream": (
        lambda: make_movielens_stream(records_per_genre=20, chunk_size=16),
        ("hps", "mmoe"),
    ),
    "synthetic_stream": (
        lambda: make_synthetic_stream(num_samples=64, chunk_size=32),
        ("hps",),
    ),
}


@functools.cache
def _bench(name):
    return BUILDERS[name][0]()


def model_keys(name):
    """Every pinned key of one builder: ``stl/<task>`` and ``all/<arch>``."""
    return [f"stl/{task}" for task in _bench(name).task_names] + [
        f"all/{architecture}" for architecture in BUILDERS[name][1]
    ]


def digest(model):
    """Sorted parameter names and the SHA-256 of the state dict."""
    state = model.state_dict()
    sha = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(state[name])
        sha.update(name.encode())
        sha.update(f"{value.dtype}{value.shape}".encode())
        sha.update(value.tobytes())
    return {"names": sorted(state), "sha256": sha.hexdigest()}


def build(name, key):
    """The model one pinned key names, built from ``default_rng(0)``."""
    kind, which = key.split("/", 1)
    rng = np.random.default_rng(0)
    if kind == "stl":
        return _bench(name).build_model("hps", rng, tasks=(which,))
    return _bench(name).build_model(which, rng)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_every_model_pinned(name):
    assert sorted(PINNED[name]) == sorted(model_keys(name))


@pytest.mark.parametrize(
    "name,key", [(name, key) for name in sorted(PINNED) for key in sorted(PINNED[name])]
)
def test_model_matches_pinned_digest(name, key):
    assert digest(build(name, key)) == PINNED[name][key]


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize(
    "tasks",
    [("bogus",), "duplicate", ()],
    ids=["unknown", "duplicate", "empty"],
)
def test_invalid_tasks_raise_before_any_draw(name, tasks):
    bench = _bench(name)
    if tasks == "duplicate":
        tasks = (bench.task_names[0], bench.task_names[0])
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="tasks"):
        bench.build_model("hps", rng, tasks=tasks)
    assert rng.bit_generator.state == before
