"""Shared encoders used by the six benchmark reproductions.

Each dataset family gets the encoder the paper describes, at laptop scale:

- :class:`MLPEncoder` — embedding-free tabular encoder (AliExpress uses an
  embedding layer + 2-layer MLP; see :class:`TabularEncoder`).
- :class:`TabularEncoder` — categorical embeddings + MLP (AliExpress).
- :class:`ConvEncoder` — staged convolutional backbone (NYUv2/CityScapes
  stand-in for ResNet-50, Office-Home stand-in for ResNet-18) exposing
  ``.stages`` so Cross-stitch/MTAN can interleave per-stage.
- :class:`GCNEncoder` — graph convolutional encoder (QM9).
- :class:`BSTEncoder` — behaviour-sequence transformer (MovieLens).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..nn.attention import TransformerBlock
from ..nn.conv import Conv2d, MaxPool2d
from ..nn.functional import field_lookup
from ..nn.graph import GraphConv, GraphReadout
from ..nn.layers import Embedding, Linear, ReLU, Sequential
from ..nn.module import Module, ModuleList, Parameter
from ..nn.tensor import Tensor, concat

__all__ = ["MLPEncoder", "TabularEncoder", "ConvEncoder", "GCNEncoder", "BSTEncoder"]


class MLPEncoder(Module):
    """Plain MLP trunk with per-layer stages.

    ``widths`` lists the layer output sizes; the final element is the
    representation dimension ``out_features``.
    """

    def __init__(self, in_features: int, widths: Sequence[int], rng: np.random.Generator) -> None:
        super().__init__()
        if not widths:
            raise ValueError("widths must be non-empty")
        self.in_features = in_features
        self.out_features = widths[-1]
        stages = []
        previous = in_features
        for width in widths:
            stages.append(Sequential(Linear(previous, width, rng), ReLU()))
            previous = width
        self.stages = ModuleList(stages)

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float64))
        for stage in self.stages:
            x = stage(x)
        return x


class TabularEncoder(Module):
    """Categorical-embedding + MLP encoder for click-log data.

    Input is an integer matrix ``(batch, num_fields)``; each field gets its
    own embedding table (as in the AliExpress stack: embedding layer followed
    by a two-layer MLP as task-shared layers).
    """

    def __init__(
        self,
        field_sizes: Sequence[int],
        embedding_dim: int,
        hidden: Sequence[int],
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.field_sizes = list(field_sizes)
        self.embedding_dim = embedding_dim
        self.embeddings = ModuleList(
            [Embedding(size, embedding_dim, rng) for size in field_sizes]
        )
        flat_dim = embedding_dim * len(field_sizes)
        self.mlp = MLPEncoder(flat_dim, list(hidden), rng)
        self.out_features = self.mlp.out_features

    def forward(self, x) -> Tensor:
        x = np.asarray(x, dtype=np.int64)
        if x.ndim != 2 or x.shape[1] != len(self.field_sizes):
            raise ValueError(
                f"expected (batch, {len(self.field_sizes)}) integer fields; got {x.shape}"
            )
        return self.mlp(field_lookup([emb.weight for emb in self.embeddings], x))


class ConvEncoder(Module):
    """Staged conv backbone: each stage is conv → ReLU → (optional) pool.

    ``channels`` lists per-stage output channels; ``pools`` marks the stages
    followed by 2× max pooling.  Output is a feature map
    ``(batch, channels[-1], H/2^p, W/2^p)``.
    """

    def __init__(
        self,
        in_channels: int,
        channels: Sequence[int],
        rng: np.random.Generator,
        pools: Sequence[bool] | None = None,
    ) -> None:
        super().__init__()
        if pools is None:
            pools = [True] * len(channels)
        if len(pools) != len(channels):
            raise ValueError("pools must align with channels")
        self.in_channels = in_channels
        self.out_channels = channels[-1]
        self.downsample_factor = 2 ** sum(pools)
        stages = []
        previous = in_channels
        for width, pool in zip(channels, pools):
            layers: list[Module] = [Conv2d(previous, width, 3, rng, padding=1), ReLU()]
            if pool:
                layers.append(MaxPool2d(2))
            stages.append(Sequential(*layers))
            previous = width
        self.stages = ModuleList(stages)

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        for stage in self.stages:
            x = stage(x)
        return x


class GCNEncoder(Module):
    """Graph convolutional encoder over dense padded molecule batches.

    Input is a tuple ``(node_features, adjacency, node_mask)`` where the
    adjacency is already symmetric-normalized (see
    :func:`repro.nn.graph.normalize_adjacency`).  Output is one embedding per
    graph.
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        if not hidden:
            raise ValueError("hidden must be non-empty")
        self.out_features = hidden[-1]
        convs = []
        previous = in_features
        for width in hidden:
            convs.append(GraphConv(previous, width, rng))
            previous = width
        self.convs = ModuleList(convs)
        self.readout = GraphReadout()

    def forward(self, graph_batch) -> Tensor:
        nodes, adjacency, mask = graph_batch
        if not isinstance(nodes, Tensor):
            nodes = Tensor(nodes)
        for conv in self.convs:
            nodes = conv(nodes, adjacency).relu()
        return self.readout(nodes, mask)


class BSTEncoder(Module):
    """Behaviour-Sequence-Transformer-style encoder (Chen et al., 2019).

    Input is an integer matrix ``(batch, 2 + seq_len)`` laid out as
    ``[user_id, target_item_id, history_item_1, …]``.  History + target item
    embeddings (with learned positions) pass through a transformer block;
    the mean-pooled sequence is concatenated with the user embedding and
    projected to ``out_features``.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        seq_len: int,
        dim: int,
        out_features: int,
        rng: np.random.Generator,
        num_heads: int = 2,
    ) -> None:
        super().__init__()
        self.seq_len = seq_len
        self.out_features = out_features
        self.user_embedding = Embedding(num_users, dim, rng)
        self.item_embedding = Embedding(num_items, dim, rng)
        self.position = Parameter(np.zeros((seq_len + 1, dim)))
        self.block = TransformerBlock(dim, num_heads, rng)
        self.project = Linear(2 * dim, out_features, rng)

    def forward(self, x) -> Tensor:
        x = np.asarray(x, dtype=np.int64)
        if x.ndim != 2 or x.shape[1] != 2 + self.seq_len:
            raise ValueError(f"expected (batch, {2 + self.seq_len}) ids; got {x.shape}")
        users = self.user_embedding(x[:, 0])
        sequence = self.item_embedding(x[:, 1:])  # target + history
        sequence = sequence + self.position
        attended = self.block(sequence)
        pooled = attended.mean(axis=1)
        return self.project(concat([pooled, users], axis=1)).relu()
