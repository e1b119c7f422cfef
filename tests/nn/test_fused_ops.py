"""Fused ops against the composite graphs they replace, bitwise.

``linear``, ``field_lookup`` and ``bce_with_logits`` are one node each and
the integer-array ``getitem`` adjoint is one ``np.bincount``.  Each must
give forward values and ``backward_multi`` gradients bitwise equal to the
composites in ``tests/reference/nn.py`` at several root counts, and a
short training run must end on bitwise equal weights.
"""

import numpy as np
import pytest

from repro.balancers import MoCoGrad
from repro.data import make_aliexpress, make_movielens
from repro.nn import Tensor, backward_multi
from repro.nn import functional as F
from repro.nn.tensor import _MULTI_ADJOINTS
from repro.training import MTLTrainer

from ..reference.nn import (
    add_at_getitem_adjoint,
    composite_bce_with_logits,
    composite_field_lookup,
    composite_linear,
    use_composites,
)

ROOTS = [1, 2, 3]


def _leaves(rng, shapes):
    return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]


def _check_bitwise(build, fused, composite, shapes, num_roots, seed=0):
    """``fused`` and ``composite`` over copies of the same leaves, R roots.

    Compares the forward value, every leaf's per-root gradient (``per_root``)
    and, on a second walk, the root-summed ``.grad`` of every leaf.
    """
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=shape) for shape in shapes]
    results = []
    for op in (fused, composite):
        leaves = [Tensor(v.copy(), requires_grad=True) for v in values]
        out = build(op, leaves)
        weights = np.random.default_rng(seed + 1).normal(size=(num_roots,) + out.shape)
        roots = [(out * w).sum() for w in weights]
        slots = backward_multi(roots, per_root=leaves)
        out = build(op, leaves)
        backward_multi([(out * w).sum() for w in weights])
        results.append((out.data, slots, [leaf.grad for leaf in leaves]))
    (fused_value, fused_slots, fused_grads), (ref_value, ref_slots, ref_grads) = results
    np.testing.assert_array_equal(fused_value, ref_value)
    for got, want in zip(fused_slots, ref_slots):
        for got_row, want_row in zip(got, want):
            np.testing.assert_array_equal(got_row, want_row)
    for got, want in zip(fused_grads, ref_grads):
        np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# getitem: bincount scatter against np.add.at
# ----------------------------------------------------------------------
SCATTER_INDICES = {
    "repeated_ids": (np.array([3, 0, 3, 3, 1, 0]), (5, 4)),
    "negative_ids": (np.array([-1, 2, -5, 4, -1]), (5, 4)),
    "2d_ids": (np.array([[0, 2, 2], [1, -1, 0]]), (4, 3)),
    "1d_table": (np.array([2, 2, 0, -3]), (6,)),
    "3d_table": (np.array([[1, 1], [0, 1]]), (3, 2, 2)),
    "array_slice_tuple": ((np.array([0, 2, 0]), slice(1, None)), (3, 4)),
    "bool_mask": (np.array([True, False, True, True]), (4, 3)),
    "empty_ids": (np.array([], dtype=np.int64), (4, 3)),
}


@pytest.mark.parametrize("num_roots", [1, 3])
@pytest.mark.parametrize("case", sorted(SCATTER_INDICES))
def test_getitem_scatter_matches_add_at(case, num_roots):
    index, shape = SCATTER_INDICES[case]
    rng = np.random.default_rng(5)
    table = Tensor(rng.normal(size=shape), requires_grad=True)
    out = table[index]
    g = rng.normal(size=(num_roots,) + out.shape)
    (got,) = _MULTI_ADJOINTS["getitem"](out, g)
    (want,) = add_at_getitem_adjoint(out, g)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_bincount_serves_integer_arrays_only(monkeypatch):
    import repro.nn.tensor as tensor_module

    calls = []
    original = tensor_module._scatter_rows
    monkeypatch.setattr(
        tensor_module, "_scatter_rows", lambda *a: calls.append(1) or original(*a)
    )
    for case, (index, shape) in SCATTER_INDICES.items():
        table = Tensor(np.ones(shape), requires_grad=True)
        table[index].sum().backward()
    # Every case but the tuple and the boolean mask is an integer array.
    assert len(calls) == len(SCATTER_INDICES) - 2


def test_scatter_sums_many_repeats_in_index_order():
    # 1e16 + 1 - 1e16 depends on order: the scatter must add in index order.
    table = Tensor(np.zeros((2, 1)), requires_grad=True)
    out = table[np.array([1, 1, 1, 0])]
    g = np.array([[[1e16], [1.0], [-1e16], [3.0]]])
    (got,) = _MULTI_ADJOINTS["getitem"](out, g)
    (want,) = add_at_getitem_adjoint(out, g)
    np.testing.assert_array_equal(got, want)
    assert got[0, 1, 0] == (1e16 + 1.0) - 1e16


# ----------------------------------------------------------------------
# linear
# ----------------------------------------------------------------------
LINEAR_CASES = {
    "2d": ([(6, 4), (3, 4), (3,)], lambda op, t: op(t[0], t[1], t[2])),
    "3d_input": ([(2, 5, 4), (3, 4), (3,)], lambda op, t: op(t[0], t[1], t[2])),
    "1d_input": ([(4,), (3, 4), (3,)], lambda op, t: op(t[0], t[1], t[2])),
    "no_bias": ([(6, 4), (3, 4)], lambda op, t: op(t[0], t[1])),
    "ndarray_input": (
        [(3, 4), (3,)],
        lambda op, t: op(np.linspace(-1.0, 1.0, 24).reshape(6, 4), t[0], t[1]),
    ),
    "shared_input": (
        [(6, 4), (3, 4), (3,), (2, 4)],
        lambda op, t: op(t[0], t[1], t[2]).sum(axis=1) + op(t[0], t[3]).sum(axis=1),
    ),
}


@pytest.mark.parametrize("num_roots", ROOTS)
@pytest.mark.parametrize("case", sorted(LINEAR_CASES))
def test_linear_matches_composite(case, num_roots):
    shapes, build = LINEAR_CASES[case]
    _check_bitwise(build, F.linear, composite_linear, shapes, num_roots)


def test_linear_is_one_node():
    rng = np.random.default_rng(0)
    x, w, b = _leaves(rng, [(2, 3), (4, 3), (4,)])
    out = F.linear(x, w, b)
    assert out._op == "linear" and out._prev == (x, w, b)
    assert F.linear(x, w)._prev == (x, w)


def test_linear_frozen_weight_gets_no_gradient():
    rng = np.random.default_rng(0)
    x, b = _leaves(rng, [(2, 3), (4,)])
    w = Tensor(rng.normal(size=(4, 3)))
    F.linear(x, w, b).sum().backward()
    assert w.grad is None and x.grad is not None and b.grad is not None


# ----------------------------------------------------------------------
# bce_with_logits
# ----------------------------------------------------------------------
def _bce_build(target, scale=1.0):
    return lambda op, t: op(t[0] * scale, target)


_LABELS = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0])

BCE_CASES = {
    "labels": ([(7,)], _bce_build(_LABELS)),
    "soft_targets": ([(7,)], _bce_build(np.linspace(0.0, 1.0, 7))),
    "large_logits": ([(7,)], _bce_build(_LABELS, scale=800.0)),
    "column_logits": ([(7, 1)], _bce_build(_LABELS[:, None])),
    "broadcast_target": ([(7, 1)], _bce_build(_LABELS)),
    "integer_labels": ([(7,)], _bce_build(_LABELS.astype(np.int64))),
}


@pytest.mark.parametrize("num_roots", ROOTS)
@pytest.mark.parametrize("case", sorted(BCE_CASES))
def test_bce_matches_composite(case, num_roots):
    shapes, build = BCE_CASES[case]
    _check_bitwise(build, F.bce_with_logits, composite_bce_with_logits, shapes, num_roots)


def test_bce_at_exact_zero_logits_matches_composite():
    # x = 0 is where clip's mask and abs's sign switch.
    grads = []
    for op in (F.bce_with_logits, composite_bce_with_logits):
        x = Tensor(np.zeros(7), requires_grad=True)
        op(x, _LABELS).backward()
        grads.append(x.grad)
    np.testing.assert_array_equal(grads[0], grads[1])


def test_bce_is_one_node_with_constant_target():
    x = Tensor(np.zeros(3), requires_grad=True)
    loss = F.bce_with_logits(x, np.ones(3))
    assert loss._op == "bce_with_logits" and loss._prev == (x,)


# ----------------------------------------------------------------------
# field_lookup
# ----------------------------------------------------------------------
_IDS = np.array([[0, 4, 1], [2, 4, 0], [0, 1, 1], [-1, 0, 2], [2, -2, 1]])
_FIELD_SHAPES = [(3, 4), (5, 4), (3, 4)]


@pytest.mark.parametrize("num_roots", ROOTS)
def test_field_lookup_matches_composite(num_roots):
    _check_bitwise(
        lambda op, t: op(t, _IDS), F.field_lookup, composite_field_lookup, _FIELD_SHAPES, num_roots
    )


def test_field_lookup_is_one_node():
    tables = _leaves(np.random.default_rng(0), _FIELD_SHAPES)
    out = F.field_lookup(tables, _IDS)
    assert out._op == "field_lookup" and out._prev == tuple(tables)
    assert out.shape == (5, 12)


# ----------------------------------------------------------------------
# Whole models: trained weights against the composites
# ----------------------------------------------------------------------
def _train(bench, architecture, tasks, steps=6, batch=64):
    model = bench.build_model(architecture, np.random.default_rng(0))
    trainer = MTLTrainer(model, tasks, MoCoGrad(seed=0), mode=bench.mode, seed=0)
    trainer.fit(bench.train, epochs=1, batch_size=batch, max_steps_per_epoch=steps)
    return model.state_dict()


@pytest.mark.parametrize(
    "make, architecture",
    [
        (lambda: make_aliexpress("ES", num_records=600, seed=0), "hps"),
        (lambda: make_movielens(genres=("Crime", "Documentary", "Fantasy"), seed=0), "hps"),
    ],
    ids=["aliexpress_hps", "movielens_3genre"],
)
def test_trained_weights_match_composites(make, architecture, monkeypatch):
    bench = make()
    fused = _train(bench, architecture, bench.tasks)
    tasks = use_composites(monkeypatch, bench.tasks)
    composite = _train(bench, architecture, tasks)
    assert fused.keys() == composite.keys()
    for name in fused:
        np.testing.assert_array_equal(fused[name], composite[name], err_msg=name)


def test_aliexpress_step_builds_eleven_nodes():
    bench = make_aliexpress("ES", num_records=300, seed=0)
    model = bench.build_model("hps", np.random.default_rng(0))
    inputs, targets = bench.train.batch(np.arange(32))
    outputs = model.forward_all(inputs)
    losses = [task.loss_fn(outputs[task.name], targets[task.name]) for task in bench.tasks]
    seen, nodes, stack = set(), [], list(losses)
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._prev:
            continue
        seen.add(id(node))
        nodes.append(node._op)
        stack.extend(node._prev)
    assert len(nodes) == 11, sorted(nodes)
