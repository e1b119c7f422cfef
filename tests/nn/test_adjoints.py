"""Finite-difference checks of every registered adjoint.

Each op's backward exists once, in ``_MULTI_ADJOINTS``.  These cases check
each entry against central differences both through ``Tensor.backward``
(one root, R = 1) and through ``backward_multi`` with several roots
(R > 1), and fail when an op is registered without a case here.
"""

import numpy as np
import pytest

# Importing repro.nn also registers the adjoints of repro.nn.conv.
from repro.nn import Tensor, backward_multi, concat, pad2d, register_multi_adjoint, stack, where
from repro.nn import OpProfile
from repro.nn.functional import bce_with_logits, embedding, field_lookup, linear
from repro.nn.tensor import _MULTI_ADJOINTS

from ..conftest import numerical_gradient

NUM_ROOTS = 3

# Distinct values away from 0 and from the clip bounds, so every op is
# differentiable at the check point and ``max`` has no ties.
_GRID = np.linspace(-1.45, 1.45, 12)[np.random.default_rng(3).permutation(12)]
_LABELS = (np.arange(12).reshape(3, 4) % 3 == 0).astype(float)
_FIELD_IDS = np.array([[0, 1], [1, 1], [-1, 0], [0, 0]])
_EMBEDDING_IDS = np.array([[2, 0, 2], [-1, 1, 0]])

# op -> list of (function of x, shape of x).  Every function's graph must
# contain a node of its op.
CASES = {
    "add": [(lambda x: x + x.mean(axis=0), (3, 4)), (lambda x: 2.0 + x, (3, 4))],
    "sub": [(lambda x: x.sum(axis=1, keepdims=True) - x, (3, 4)), (lambda x: 1.0 - x, (3, 4))],
    "neg": [(lambda x: -x, (3, 4))],
    "mul": [(lambda x: x * x[:1], (3, 4)), (lambda x: x * 3.0, (3, 4))],
    "div": [(lambda x: x / (x * x + 0.5), (3, 4)), (lambda x: 2.0 / (x.sum(axis=0) + 9.0), (3, 4))],
    "pow": [(lambda x: x**3, (3, 4)), (lambda x: (x * x + 0.5) ** 1.5, (3, 4))],
    "exp": [(lambda x: x.exp(), (3, 4))],
    "log": [(lambda x: (x * x + 1.0).log(), (3, 4))],
    "tanh": [(lambda x: x.tanh(), (3, 4))],
    "sigmoid": [(lambda x: x.sigmoid(), (3, 4))],
    "relu": [(lambda x: x.relu(), (3, 4))],
    "leaky_relu": [(lambda x: x.leaky_relu(0.2), (3, 4))],
    "abs": [(lambda x: x.abs(), (3, 4))],
    "clip": [(lambda x: x.clip(-0.5, 0.5), (3, 4))],
    "matmul": [
        (lambda x: x @ x.T, (3, 4)),
        (lambda x: x[0] @ x.T, (3, 4)),
        (lambda x: x @ x[1], (3, 4)),
        (lambda x: x[0] @ x[1], (3, 4)),
        (lambda x: x @ x.reshape(2, 2, 3), (2, 3, 2)),
    ],
    "sum": [
        (lambda x: x.sum(), (3, 4)),
        (lambda x: x.sum(axis=1), (3, 4)),
        (lambda x: x.sum(axis=(0, 2), keepdims=True), (2, 3, 2)),
    ],
    "max": [
        (lambda x: x.max(), (3, 4)),
        (lambda x: x.max(axis=0), (3, 4)),
        (lambda x: x.max(axis=-1, keepdims=True), (3, 4)),
    ],
    "reshape": [(lambda x: x.reshape(4, 3), (3, 4))],
    "transpose": [(lambda x: x.T, (3, 4)), (lambda x: x.transpose(1, 2, 0), (2, 3, 2))],
    "getitem": [(lambda x: x[1:, ::2], (3, 4)), (lambda x: x[np.array([0, 2, 0]), 1:], (3, 4))],
    "concat": [(lambda x: concat([x, x * 2.0, x[:, :1]], axis=1), (3, 4))],
    "stack": [(lambda x: stack([x, x.exp()], axis=1), (3, 4))],
    "where": [(lambda x: where(_GRID.reshape(3, 4) > 0, x, x * x), (3, 4))],
    "pad2d": [(lambda x: pad2d(x, 1), (1, 2, 3, 2))],
    "linear": [
        (lambda x: linear(x, x[:2], x[0, :2]), (3, 4)),
        (lambda x: linear(x, x[0], x[1, 0, :2]), (2, 2, 3)),
        (lambda x: linear(_GRID[:8].reshape(2, 4), x, x[0, :3]), (3, 4)),
        (lambda x: linear(x, x[1:]), (3, 4)),
    ],
    "bce_with_logits": [
        (lambda x: bce_with_logits(x, _LABELS), (3, 4)),
        (lambda x: bce_with_logits(x * 4.0, np.linspace(0.0, 1.0, 4)), (3, 4)),
    ],
    "field_lookup": [(lambda x: field_lookup([x[:2], x[1:] * 2.0], _FIELD_IDS), (3, 4))],
    "embedding": [
        (lambda x: embedding(x, _EMBEDDING_IDS), (3, 4)),
        # the table also used densely, and a non-leaf table
        (lambda x: embedding(x, _EMBEDDING_IDS[0]) * x, (3, 4)),
        (lambda x: embedding(x * 2.0, _EMBEDDING_IDS[1]), (3, 4)),
    ],
}

PARAMS = [
    pytest.param(op, fn, shape, id=f"{op}-{i}")
    for op, cases in CASES.items()
    for i, (fn, shape) in enumerate(cases)
]


def ops_in_graph(root: Tensor) -> set[str]:
    seen, stack_, ops = set(), [root], set()
    while stack_:
        node = stack_.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        ops.add(node._op)
        stack_.extend(node._prev)
    return ops


def root_weights(out_shape):
    """One fixed weighting per root; root k is ``(out * weights[k]).sum()``."""
    gen = np.random.default_rng(11)
    return [gen.normal(size=out_shape) for _ in range(NUM_ROOTS)]


def test_every_registered_op_has_a_case():
    assert "pad2d" in _MULTI_ADJOINTS
    assert set(_MULTI_ADJOINTS) - set(CASES) == set(), "registered op without a case"
    assert set(CASES) - set(_MULTI_ADJOINTS) == set(), "case for an unregistered op"


@pytest.mark.parametrize("op, fn, shape", PARAMS)
def test_single_root_backward_matches_finite_differences(op, fn, shape):
    x0 = _GRID.reshape(shape)
    x = Tensor(x0.copy(), requires_grad=True)
    out = fn(x)
    assert op in ops_in_graph(out)
    weight = root_weights(out.shape)[0]
    (out * weight).sum().backward()
    numeric = numerical_gradient(lambda t: (fn(t) * weight).sum(), x0)
    np.testing.assert_allclose(x.grad, numeric, atol=1e-6, rtol=1e-6)


@pytest.mark.parametrize("op, fn, shape", PARAMS)
def test_multi_root_backward_matches_finite_differences(op, fn, shape):
    x0 = _GRID.reshape(shape)
    x = Tensor(x0.copy(), requires_grad=True)
    out = fn(x)
    weights = root_weights(out.shape)
    (slots,) = backward_multi([(out * w).sum() for w in weights], per_root=[x])
    for weight, slot in zip(weights, slots):
        numeric = numerical_gradient(lambda t, w=weight: (fn(t) * w).sum(), x0)
        np.testing.assert_allclose(slot, numeric, atol=1e-6, rtol=1e-6)


def test_embedding_backward_allocates_only_touched_rows():
    # A 6,000-row table read by 128 ids: the adjoint returns the touched
    # rows and their indices, not a dense (1, 6000, 16) table.
    table = Tensor(np.random.default_rng(0).normal(size=(6000, 16)), requires_grad=True)
    ids = np.random.default_rng(1).integers(0, 6000, size=128)
    with OpProfile() as ops:
        backward_multi([embedding(table, ids).sum()], per_root=[table])
    calls, _seconds, nbytes = ops.backward["embedding"]
    assert calls == 1
    assert 0 < nbytes < table.data.nbytes / 20


class TestUnregisteredOp:
    def make_node(self):
        x = Tensor(np.ones(3), requires_grad=True)
        return x, x._make_child(x.data * 2.0, (x,), "double")

    def test_backward_names_op_and_registration(self):
        _, y = self.make_node()
        with pytest.raises(NotImplementedError, match="'double'.*register_multi_adjoint"):
            y.sum().backward()

    def test_backward_multi_names_op_and_registration(self):
        _, y = self.make_node()
        with pytest.raises(NotImplementedError, match="'double'.*register_multi_adjoint"):
            backward_multi([y.sum(), (y * y).sum()])

    def test_registered_adjoint_is_used(self):
        register_multi_adjoint("double", lambda node, g: (g * 2.0,))
        try:
            x, y = self.make_node()
            y.sum().backward()
        finally:
            del _MULTI_ADJOINTS["double"]
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
