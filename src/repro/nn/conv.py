"""Convolutional layers for the dense-prediction experiments.

The paper runs NYUv2/CityScapes with ResNet-50 + ASPP; this substrate
provides the same structural roles — a shared convolutional encoder and
per-task dense decoders — at laptop scale.  Convolution is implemented as
im2col + matmul over the existing autograd primitives, so the backward pass
is derived automatically and covered by the gradient-check tests.

Input layout is ``(batch, channels, height, width)`` throughout.
"""

from __future__ import annotations

import numpy as np

from . import init as init_module
from .module import Module, Parameter
from .tensor import Tensor, register_multi_adjoint

__all__ = ["pad2d", "Conv2d", "MaxPool2d", "AvgPool2d", "UpsampleNearest", "GlobalAvgPool2d"]


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the two trailing spatial axes symmetrically."""
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x, dtype=np.float64))
    if padding == 0:
        return x
    pad_width = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    data = np.pad(x.data, pad_width)
    out = x._make_child(data, (x,), "pad2d")
    if out.requires_grad:
        out._ctx = padding
    return out


def _multi_adj_pad2d(node, g):
    p = node._ctx
    return (g[:, :, :, p:-p, p:-p],)


register_multi_adjoint("pad2d", _multi_adj_pad2d)


def _im2col_indices(
    channels: int, height: int, width: int, kernel: int, stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    c_idx = np.repeat(np.arange(channels), kernel * kernel).reshape(-1, 1)
    i0 = np.tile(np.repeat(np.arange(kernel), kernel), channels).reshape(-1, 1)
    j0 = np.tile(np.arange(kernel), kernel * channels).reshape(-1, 1)
    i1 = stride * np.repeat(np.arange(out_h), out_w).reshape(1, -1)
    j1 = stride * np.tile(np.arange(out_w), out_h).reshape(1, -1)
    return c_idx, i0 + i1, j0 + j1, out_h, out_w


class Conv2d(Module):
    """2D convolution with square kernels via im2col."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init_module.kaiming_uniform(shape, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float64))
        if x.ndim != 4:
            raise ValueError(f"Conv2d expects (N, C, H, W); got shape {x.shape}")
        x = pad2d(x, self.padding)
        batch, channels, height, width = x.shape
        if channels != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {channels}")
        c_idx, i_idx, j_idx, out_h, out_w = _im2col_indices(
            channels, height, width, self.kernel_size, self.stride
        )
        # (N, C*k*k, out_h*out_w)
        cols = x[:, c_idx, i_idx, j_idx]
        weight_flat = self.weight.reshape(self.out_channels, -1)
        out = weight_flat @ cols  # (N, out_channels, out_h*out_w)
        out = out.reshape(batch, self.out_channels, out_h, out_w)
        if self.bias is not None:
            out = out + self.bias.reshape(1, self.out_channels, 1, 1)
        return out


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride)."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        batch, channels, height, width = x.shape
        k = self.kernel_size
        if height % k or width % k:
            raise ValueError(f"spatial dims {height}x{width} not divisible by pool size {k}")
        reshaped = x.reshape(batch, channels, height // k, k, width // k, k)
        return reshaped.max(axis=(3, 5))


class AvgPool2d(Module):
    """Non-overlapping average pooling (kernel == stride)."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        batch, channels, height, width = x.shape
        k = self.kernel_size
        if height % k or width % k:
            raise ValueError(f"spatial dims {height}x{width} not divisible by pool size {k}")
        reshaped = x.reshape(batch, channels, height // k, k, width // k, k)
        return reshaped.mean(axis=(3, 5))


class GlobalAvgPool2d(Module):
    """Average over both spatial axes, returning ``(N, C)``."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))


class UpsampleNearest(Module):
    """Nearest-neighbour upsampling by an integer factor."""

    def __init__(self, scale: int) -> None:
        super().__init__()
        self.scale = scale

    def forward(self, x: Tensor) -> Tensor:
        batch, channels, height, width = x.shape
        rows = np.repeat(np.arange(height), self.scale)
        cols = np.repeat(np.arange(width), self.scale)
        return x[:, :, rows][:, :, :, cols]
