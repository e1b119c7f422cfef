"""Procedural CityScapes-style street scenes (Table IV, Fig. 7).

Two dense tasks — 7-class semantic segmentation and depth — on synthetic
street layouts: sky band at the top, road at the bottom, building blocks on
the sides, plus cars/poles/vegetation/pedestrian rectangles.  As with the
NYUv2 generator, both labels derive from one scene graph, so the tasks are
related but compete for the shared encoder.

This benchmark also powers the paper's Fig. 7 architecture study, so
``build_model`` supports all five architectures (HPS, Cross-stitch, MTAN,
MMoE, CGC).
"""

from __future__ import annotations

import numpy as np

from ..arch.cgc import CGC
from ..arch.cross_stitch import CrossStitch
from ..arch.encoders import ConvEncoder
from ..arch.heads import DenseHead
from ..arch.hps import HardParameterSharing
from ..arch.mmoe import MMoE
from ..arch.mtan import MTAN, ConvAttention
from ..metrics.regression import abs_error, rel_error
from ..metrics.segmentation import mean_iou, pixel_accuracy
from ..nn.conv import Conv2d, MaxPool2d
from ..nn.functional import cross_entropy, mse_loss
from ..nn.layers import ReLU, Sequential
from ..nn.tensor import Tensor
from .base import SINGLE_INPUT, ArrayDataset, Benchmark, TaskSpec, train_val_test_split

__all__ = ["NUM_CLASSES", "CLASSES", "make_cityscapes", "render_street"]

CLASSES = ("road", "sky", "building", "car", "vegetation", "pole", "person")
NUM_CLASSES = len(CLASSES)
_SIZE = 16


def render_street(rng: np.random.Generator, size: int = _SIZE) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Render one street scene; returns (image, segmentation, depth)."""
    seg = np.full((size, size), 2, dtype=np.int64)  # building background
    depth = np.full((size, size), 20.0)

    sky_rows = int(rng.integers(size // 4, size // 2))
    seg[:sky_rows, :] = 1
    depth[:sky_rows, :] = 50.0

    road_rows = int(rng.integers(size // 4, size // 2))
    rows = np.arange(size - road_rows, size)
    seg[rows, :] = 0
    depth[rows, :] = np.linspace(20.0, 2.0, road_rows)[:, None]

    for _ in range(int(rng.integers(2, 6))):
        cls = int(rng.integers(3, NUM_CLASSES))
        h = int(rng.integers(2, size // 3))
        w = int(rng.integers(2, size // 3))
        top = int(rng.integers(sky_rows, size - h))
        left = int(rng.integers(0, size - w))
        obj_depth = float(rng.uniform(3.0, 15.0))
        region = (slice(top, top + h), slice(left, left + w))
        closer = depth[region] > obj_depth
        seg[region] = np.where(closer, cls, seg[region])
        depth[region] = np.where(closer, obj_depth, depth[region])

    colors = _class_colors()
    image = colors[seg].transpose(2, 0, 1).astype(np.float64)
    shading = 1.0 / (0.8 + 0.04 * depth)
    image = image * shading[None]
    image += 0.05 * rng.normal(size=image.shape)
    return image, seg, depth


_PALETTE = None


def _class_colors() -> np.ndarray:
    global _PALETTE
    if _PALETTE is None:
        color_rng = np.random.default_rng(4321)
        _PALETTE = color_rng.uniform(0.2, 1.0, size=(NUM_CLASSES, 3))
    return _PALETTE


def _segmentation_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    return cross_entropy(logits.transpose(0, 2, 3, 1), targets)


def make_cityscapes(
    num_scenes: int = 300,
    channels: tuple[int, ...] = (12, 24),
    seed: int = 0,
) -> Benchmark:
    """Build the 2-task street-scene benchmark (all five architectures)."""
    rng = np.random.default_rng(seed)
    images, segs, depths = [], [], []
    for _ in range(num_scenes):
        image, seg, depth = render_street(rng)
        images.append(image)
        segs.append(seg)
        depths.append(depth)
    images = np.stack(images)
    # Depth targets are normalized to keep the two losses on similar scales
    # (the paper trains on disparity for the same reason).
    depth_scale = 10.0
    targets = {"segmentation": np.stack(segs), "depth": np.stack(depths) / depth_scale}
    full = ArrayDataset(images, targets)
    tr, va, te = train_val_test_split(num_scenes, rng, 0.15, 0.15)

    tasks = [
        TaskSpec(
            "segmentation",
            _segmentation_loss,
            {
                "miou": lambda o, t: mean_iou(o.argmax(axis=1), t, NUM_CLASSES),
                "pixacc": lambda o, t: pixel_accuracy(o.argmax(axis=1), t),
            },
            {"miou": True, "pixacc": True},
        ),
        TaskSpec(
            "depth",
            lambda out, t: mse_loss(out.reshape(out.shape[0], _SIZE, _SIZE), t),
            {
                "abs_err": lambda o, t: abs_error(o, t),
                "rel_err": lambda o, t: rel_error(o, t),
            },
            {"abs_err": False, "rel_err": False},
        ),
    ]

    head_channels = {"segmentation": NUM_CLASSES, "depth": 1}

    def _dense_heads(model_rng, out_channels: int, scale: int, tasks):
        return {
            name: DenseHead(out_channels, 16, head_channels[name], scale, model_rng)
            for name in tasks
        }

    def build_model(architecture: str, model_rng: np.random.Generator | None, tasks):
        model_rng = model_rng or np.random.default_rng(seed)
        if architecture == "hps":
            encoder = ConvEncoder(3, list(channels), model_rng)
            scale = encoder.downsample_factor
            heads = _dense_heads(model_rng, encoder.out_channels, scale, tasks)
            return HardParameterSharing(encoder, heads)
        if architecture == "mmoe":
            return MMoE(
                lambda: ConvEncoder(3, list(channels), model_rng),
                num_experts=3,
                heads=_dense_heads(model_rng, channels[-1], 2 ** len(channels), tasks),
                gate_in_features=3,
                rng=model_rng,
            )
        if architecture == "cgc":
            return CGC(
                lambda: ConvEncoder(3, list(channels), model_rng),
                num_shared_experts=2,
                num_task_experts=1,
                heads=_dense_heads(model_rng, channels[-1], 2 ** len(channels), tasks),
                gate_in_features=3,
                rng=model_rng,
            )
        if architecture == "cross_stitch":
            factories = []
            previous = 3
            for width in channels:
                factories.append(
                    lambda p=previous, w=width: Sequential(
                        Conv2d(p, w, 3, model_rng, padding=1), ReLU(), MaxPool2d(2)
                    )
                )
                previous = width
            return CrossStitch(
                factories, _dense_heads(model_rng, channels[-1], 2 ** len(channels), tasks)
            )
        if architecture == "mtan":
            stages = []
            previous = 3
            for width in channels:
                stages.append(
                    Sequential(Conv2d(previous, width, 3, model_rng, padding=1), ReLU(), MaxPool2d(2))
                )
                previous = width
            attention_factories = []
            for i, width in enumerate(channels):
                prev = width if i == 0 else channels[i - 1]
                attention_factories.append(
                    lambda w=width, p=prev: ConvAttention(w, p, model_rng)
                )
            return MTAN(
                stages,
                attention_factories,
                _dense_heads(model_rng, channels[-1], 2 ** len(channels), tasks),
            )
        raise ValueError(f"unknown architecture {architecture!r}")

    return Benchmark(
        name="cityscapes",
        mode=SINGLE_INPUT,
        tasks=tasks,
        train=full.subset(tr),
        val=full.subset(va),
        test=full.subset(te),
        build_model=build_model,
        metadata={"size": _SIZE, "num_classes": NUM_CLASSES, "depth_scale": depth_scale},
    )
