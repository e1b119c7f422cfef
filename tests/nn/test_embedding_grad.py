"""The row-sparse ``embedding`` gradient against the dense lookup, bitwise.

``embedding(weight, ids)`` scatters its backward into the distinct rows
``ids`` touched and hands its table a :class:`RowGrad`, which a
``per_root`` table takes as a zeroed slot plus those rows.  Every public
result must equal :func:`composite_embedding` (a ``getitem`` with a dense
table gradient) bitwise: forward values, ``backward_multi`` slots,
root-summed ``.grad``, the rows packed into ``out``, and trained weights.
"""

import numpy as np
import pytest

from repro.balancers import MoCoGrad
from repro.data import make_movielens
from repro.data.base import ArrayDataset
from repro.nn import Tensor, backward_multi
from repro.nn.functional import embedding
from repro.nn.tensor import _MULTI_ADJOINTS, RowGrad
from repro.nn.utils import grad_vector_from_slots
from repro.training import MTLTrainer

from ..reference.nn import composite_embedding, use_composites

_HISTORY = np.array([[4, 0, 2, 2], [1, 4, 4, 3], [0, 0, 1, 2]])

IDS = {
    "repeated": np.array([3, 0, 3, 3, 1, 0]),
    "negative": np.array([-1, 2, -5, 4, -1]),
    "2d": np.array([[0, 2, 2], [1, -1, 0]]),
    "column_slice": _HISTORY[:, 1:],
    "empty": np.array([], dtype=np.int64),
}

# name -> function of (lookup, table); each reads the table through ``lookup``
GRAPHS = {
    "once": lambda lookup, t, ids: lookup(t, ids),
    "twice": lambda lookup, t, ids: lookup(t, ids) * 2.0 + lookup(t, ids[::-1]),
    # the table also used densely: tied into a matmul
    "tied_matmul": lambda lookup, t, ids: lookup(t, ids) @ t.T,
    "non_leaf_table": lambda lookup, t, ids: lookup(t * 3.0, ids),
}


def _walk(lookup, graph, ids, num_roots, seed=0):
    """Forward, per-root slots and root-summed ``.grad`` of one graph."""
    table = Tensor(np.random.default_rng(seed).normal(size=(5, 4)), requires_grad=True)
    out = graph(lookup, table, ids)
    weights = np.random.default_rng(seed + 1).normal(size=(num_roots,) + out.shape)
    (slots,) = backward_multi([(out * w).sum() for w in weights], per_root=[table])
    backward_multi([(graph(lookup, table, ids) * w).sum() for w in weights])
    return out.data, slots, table.grad


@pytest.mark.parametrize("num_roots", [1, 3])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("case", sorted(IDS))
def test_matches_dense_lookup(case, graph, num_roots):
    got = _walk(embedding, GRAPHS[graph], IDS[case], num_roots)
    want = _walk(composite_embedding, GRAPHS[graph], IDS[case], num_roots)
    np.testing.assert_array_equal(got[0], want[0])
    assert len(got[1]) == len(want[1]) == num_roots
    for got_slot, want_slot in zip(got[1], want[1]):
        # the public slots are ndarrays, never RowGrad
        assert type(got_slot) is np.ndarray
        assert np.array_equal(np.signbit(got_slot), np.signbit(want_slot))
        np.testing.assert_array_equal(got_slot, want_slot)
    assert type(got[2]) is np.ndarray
    np.testing.assert_array_equal(got[2], want[2])


def test_adjoint_returns_only_the_touched_rows():
    table = Tensor(np.ones((5, 4)), requires_grad=True)
    out = embedding(table, IDS["2d"])
    g = np.random.default_rng(0).normal(size=(3,) + out.shape)
    (grad,) = _MULTI_ADJOINTS["embedding"](out, g)
    assert type(grad) is RowGrad and grad.num_rows == 5
    np.testing.assert_array_equal(grad.rows, [0, 1, 2, 4])
    assert grad.values.shape == (3, 4, 4)


@pytest.mark.parametrize("num_roots", [1, 3])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("case", sorted(IDS))
def test_rows_packed_into_out_match_dense_lookup(case, graph, num_roots):
    """``backward_multi(..., out=)`` writes each root's table rows into its
    row of the matrix; completed by ``grad_vector_from_slots`` it equals the
    dense lookup's packed slots, whatever ``out`` held before."""
    ids = IDS[case]
    packed = []
    for lookup, out in ((embedding, np.full((num_roots, 20), np.nan)), (composite_embedding, None)):
        table = Tensor(np.random.default_rng(2).normal(size=(5, 4)), requires_grad=True)
        value = GRAPHS[graph](lookup, table, ids)
        weights = np.random.default_rng(3).normal(size=(num_roots,) + value.shape)
        roots = [(value * w).sum() for w in weights]
        (slots,) = backward_multi(roots, per_root=[table], out=out)
        rows = np.full((num_roots, 20), np.nan) if out is None else out
        for k in range(num_roots):
            if out is not None and graph == "once":
                # the slot is the root's segment of ``out``, shaped as the table
                assert slots[k].shape == (5, 4) and np.shares_memory(slots[k], out[k])
            grad_vector_from_slots([table], [slots], k, out=rows[k])
        packed.append(rows)
    assert np.array_equal(np.signbit(packed[0]), np.signbit(packed[1]))
    np.testing.assert_array_equal(packed[0], packed[1])


def test_out_must_match_the_roots_and_per_root_sizes():
    table = Tensor(np.ones((5, 4)), requires_grad=True)
    loss = embedding(table, np.array([1])).sum()
    for bad in (np.zeros((2, 20)), np.zeros((1, 19)), np.zeros((1, 40))[:, ::2]):
        with pytest.raises(ValueError, match="C-contiguous"):
            backward_multi([loss], per_root=[table], out=bad)


def test_scatter_sums_repeats_in_index_order():
    # 1e16 + 1 - 1e16 depends on order: the compact bins must keep it.
    table = Tensor(np.zeros((3, 1)), requires_grad=True)
    out = embedding(table, np.array([2, 2, 2, 0]))
    g = np.array([[1e16], [1.0], [-1e16], [3.0]])
    (slots,) = backward_multi([(out * g).sum()], per_root=[table])
    assert slots[0][2, 0] == (1e16 + 1.0) - 1e16
    np.testing.assert_array_equal(slots[0][:, 0], [3.0, 0.0, (1e16 + 1.0) - 1e16])


def test_tensor_backward_accumulates_dense_grad():
    grads = []
    for lookup in (embedding, composite_embedding):
        table = Tensor(np.random.default_rng(0).normal(size=(5, 4)), requires_grad=True)
        for ids in (IDS["repeated"], IDS["negative"]):
            (lookup(table, ids) ** 2).sum().backward()
        grads.append(table.grad)
    assert type(grads[0]) is np.ndarray
    np.testing.assert_array_equal(grads[0], grads[1])


def test_roots_that_skip_the_table_leave_none():
    table = Tensor(np.ones((5, 4)), requires_grad=True)
    other = Tensor(np.ones(3), requires_grad=True)
    reached = embedding(table, np.array([1, 1])).sum()
    out = np.full((2, 20), np.nan)
    (slots,) = backward_multi([reached, other.sum()], per_root=[table], out=out)
    assert slots[1] is None and np.isnan(out[1]).all()
    np.testing.assert_array_equal(slots[0], np.eye(5)[1][:, None] * np.full(4, 2.0))
    grad_vector_from_slots([table], [slots], 1, out=out[1])
    np.testing.assert_array_equal(out[1], 0.0)


# ----------------------------------------------------------------------
# A 9-task BST-HPS trainer against the dense lookup
# ----------------------------------------------------------------------
def _single_input(bench):
    """Every genre's training rows as one single-input, 9-target stream."""
    inputs = np.concatenate([bench.train[t.name].inputs for t in bench.tasks])
    rng = np.random.default_rng(4)
    targets = {t.name: rng.normal(size=len(inputs)) for t in bench.tasks}
    return ArrayDataset(inputs, targets)


def _train(bench, tasks, grad_space):
    single = grad_space == "features"
    model = bench.build_model("hps", np.random.default_rng(0))
    trainer = MTLTrainer(
        model,
        tasks,
        MoCoGrad(seed=0),
        mode="single_input" if single else bench.mode,
        grad_space=grad_space,
        seed=0,
    )
    data = _single_input(bench) if single else bench.train
    trainer.fit(data, epochs=1, batch_size=32, max_steps_per_epoch=5)
    return model.state_dict()


@pytest.mark.parametrize("grad_space", ["parameters", "features"])
def test_nine_task_trained_weights_match_dense_lookup(grad_space, monkeypatch):
    bench = make_movielens(records_per_genre=200, seed=0)
    assert len(bench.tasks) == 9
    sparse = _train(bench, bench.tasks, grad_space)
    dense = _train(bench, use_composites(monkeypatch, bench.tasks), grad_space)
    assert sparse.keys() == dense.keys()
    for name in sparse:
        np.testing.assert_array_equal(sparse[name], dense[name], err_msg=name)
