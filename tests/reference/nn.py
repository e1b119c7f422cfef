"""The composite graphs the fused ops in ``repro.nn.functional`` replace.

Each function builds the multi-node graph the library built before the
op was fused: ``Linear`` as ``.T``, ``@`` and ``+ b`` (3 nodes), the
AliExpress field lookup as one ``getitem`` per field plus ``concat``
(F + 1 nodes), and ``bce_with_logits`` as 11 elementwise and reduction
nodes.  ``composite_embedding`` is the ``getitem`` lookup whose backward
builds the dense ``(R, V, *rest)`` table the row-sparse ``embedding``
op replaces.  ``add_at_getitem_adjoint`` is the ``np.add.at`` scatter the
``getitem`` adjoint used for every index.  The fused ops must match
these bitwise, forward and backward.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import as_tensor, concat


def composite_linear(x, weight, bias=None):
    """``x @ weight.T (+ bias)``: transpose, matmul and add nodes."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def composite_embedding(weight, ids):
    """``weight[ids]`` as a ``getitem`` node with a dense table gradient."""
    return weight[np.asarray(ids, dtype=np.int64)]


def composite_field_lookup(tables, ids):
    """One ``getitem`` per field, then ``concat`` along axis 1."""
    ids = np.asarray(ids, dtype=np.int64)
    return concat([table[ids[:, f]] for f, table in enumerate(tables)], axis=1)


def composite_bce_with_logits(logits, target):
    """``mean(max(x, 0) - x*y + log(1 + exp(-|x|)))`` as 11 nodes."""
    target = as_tensor(target)
    positive = logits.clip(0.0, np.inf)
    softplus = (1.0 + (-logits.abs()).exp()).log()
    return (positive - logits * target + softplus).mean()


def add_at_getitem_adjoint(node, g):
    """The ``getitem`` adjoint as ``np.add.at`` into zeros, for every index."""
    index = node._ctx
    grad = np.zeros((g.shape[0],) + node._prev[0].data.shape, dtype=np.float64)
    np.add.at(grad, (slice(None),) + (index if isinstance(index, tuple) else (index,)), g)
    return (grad,)


def use_composites(monkeypatch, tasks=()):
    """Route ``Linear``, ``Embedding``, ``TabularEncoder`` and ``getitem`` through the composites.

    Returns ``tasks`` with every ``bce_with_logits`` loss swapped for
    :func:`composite_bce_with_logits`.  ``monkeypatch`` undoes the rest.
    """
    from dataclasses import replace

    from repro.arch.encoders import TabularEncoder
    from repro.nn import functional
    from repro.nn.layers import Embedding, Linear
    from repro.nn.tensor import _MULTI_ADJOINTS

    def tabular_forward(self, x):
        x = np.asarray(x, dtype=np.int64)
        return self.mlp(composite_field_lookup([emb.weight for emb in self.embeddings], x))

    def linear_forward(self, x):
        return composite_linear(x, self.weight, self.bias)

    def embedding_forward(self, indices):
        return composite_embedding(self.weight, indices)

    monkeypatch.setattr(Linear, "forward", linear_forward)
    monkeypatch.setattr(Embedding, "forward", embedding_forward)
    monkeypatch.setattr(TabularEncoder, "forward", tabular_forward)
    monkeypatch.setitem(_MULTI_ADJOINTS, "getitem", add_at_getitem_adjoint)
    return [
        replace(task, loss_fn=composite_bce_with_logits)
        if task.loss_fn is functional.bce_with_logits
        else task
        for task in tasks
    ]
