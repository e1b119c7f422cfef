"""Core neural network layers: Linear, Embedding, normalization, dropout.

Every layer takes an explicit ``numpy.random.Generator`` for initialization
(and, for Dropout, for mask sampling) so training runs are reproducible.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import init as init_module
from .functional import embedding, gelu, linear
from .module import Module, ModuleList, Parameter
from .tensor import Tensor

__all__ = [
    "Linear",
    "Embedding",
    "Dropout",
    "LayerNorm",
    "BatchNorm1d",
    "Sequential",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "GELU",
    "Identity",
    "MLP",
]


class Linear(Module):
    """Affine transform ``y = x W^T + b`` over the last input axis."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init_module.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer indices to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init_module.normal((num_embeddings, embedding_dim), rng, std=0.05))

    def forward(self, indices) -> Tensor:
        return embedding(self.weight, indices)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        mask = (self._rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(mask)


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, normalized_dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(normalized_dim))
        self.beta = Parameter(np.zeros(normalized_dim))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalized = centered / (variance + self.eps).sqrt()
        return normalized * self.gamma + self.beta


class BatchNorm1d(Module):
    """Batch normalization over axis 0 with running statistics."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            batch_mean = x.data.mean(axis=0)
            batch_var = x.data.var(axis=0)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * batch_mean
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * batch_var
            mean = x.mean(axis=0, keepdims=True)
            centered = x - mean
            variance = (centered * centered).mean(axis=0, keepdims=True)
            normalized = centered / (variance + self.eps).sqrt()
        else:
            normalized = (x - self.running_mean) / np.sqrt(self.running_var + self.eps)
        return normalized * self.gamma + self.beta


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return gelu(x)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = ModuleList(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class MLP(Module):
    """Multi-layer perceptron with configurable hidden widths.

    ``hidden`` lists the hidden layer sizes; an empty list yields a single
    linear map.  The activation defaults to ReLU, matching the task-shared
    MLPs used for the AliExpress experiments in the paper.
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        rng: np.random.Generator,
        activation: Callable[[], Module] = ReLU,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        layers: list[Module] = []
        previous = in_features
        for width in hidden:
            layers.append(Linear(previous, width, rng))
            layers.append(activation())
            if dropout > 0.0:
                layers.append(Dropout(dropout, rng))
            previous = width
        layers.append(Linear(previous, out_features, rng))
        self.network = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.network(x)
