"""Procedural NYUv2-style indoor scenes (Table III, Fig. 6).

The real NYUv2 provides RGB indoor images with three dense labels —
13-class semantic segmentation, depth, and surface normals — all derived
from the *same* underlying geometry, which is what makes the three tasks
related yet conflicting.

The procedural generator reproduces that: each scene is a tiny room
(back wall + floor + a few boxes of random object classes) rendered at low
resolution, and all three ground-truth maps come from the single scene
graph:

- **segmentation** (13 classes: wall, floor, 11 object classes),
- **depth** (wall at the far plane, floor sloping toward the camera, boxes
  at sampled depths),
- **normals** (wall faces +z, floor faces +y, each box face gets a
  random consistent tilt).

The RGB image is a class-coloured, depth-shaded rendering with sensor
noise, so appearance carries information about all three labels.
"""

from __future__ import annotations

import numpy as np

from ..arch.encoders import ConvEncoder
from ..arch.heads import DenseHead
from ..arch.hps import HardParameterSharing
from ..metrics.normals import normal_metrics
from ..metrics.regression import abs_error, rel_error
from ..metrics.segmentation import mean_iou, pixel_accuracy
from ..nn.functional import cross_entropy, mse_loss
from ..nn.tensor import Tensor
from .base import SINGLE_INPUT, ArrayDataset, Benchmark, TaskSpec, train_val_test_split

__all__ = ["NUM_CLASSES", "make_nyuv2", "render_scene"]

NUM_CLASSES = 13
_SIZE = 16  # image height/width

_CLASS_COLORS = None  # filled lazily per-generator for determinism


def render_scene(rng: np.random.Generator, size: int = _SIZE) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Render one room; returns (image, segmentation, depth, normals)."""
    seg = np.zeros((size, size), dtype=np.int64)  # class 0 = wall
    depth = np.full((size, size), 5.0)
    normals = np.zeros((3, size, size))
    normals[2] = 1.0  # wall: +z toward camera

    # Floor: bottom rows, class 1, depth decreasing toward the camera.
    horizon = int(rng.integers(size // 2, 3 * size // 4))
    rows = np.arange(horizon, size)
    seg[rows, :] = 1
    floor_depth = np.linspace(5.0, 1.0, len(rows))
    depth[rows, :] = floor_depth[:, None]
    normals[:, rows, :] = 0.0
    normals[1, rows, :] = 1.0  # floor: +y

    # Boxes: random rectangles of object classes 2..12.
    for _ in range(int(rng.integers(2, 5))):
        cls = int(rng.integers(2, NUM_CLASSES))
        h = int(rng.integers(3, size // 2))
        w = int(rng.integers(3, size // 2))
        top = int(rng.integers(0, size - h))
        left = int(rng.integers(0, size - w))
        box_depth = float(rng.uniform(1.2, 4.0))
        tilt = rng.normal(scale=0.3, size=2)
        normal = np.array([tilt[0], tilt[1], 1.0])
        normal /= np.linalg.norm(normal)
        region = (slice(top, top + h), slice(left, left + w))
        closer = depth[region] > box_depth
        seg[region] = np.where(closer, cls, seg[region])
        depth[region] = np.where(closer, box_depth, depth[region])
        for c in range(3):
            normals[c][region] = np.where(closer, normal[c], normals[c][region])

    colors = _class_colors()
    image = colors[seg].transpose(2, 0, 1).astype(np.float64)  # (3, H, W)
    shading = 1.0 / (0.5 + 0.25 * depth)
    image = image * shading[None]
    image += 0.05 * rng.normal(size=image.shape)
    return image, seg, depth, normals


def _class_colors() -> np.ndarray:
    global _CLASS_COLORS
    if _CLASS_COLORS is None:
        color_rng = np.random.default_rng(1234)  # fixed palette
        _CLASS_COLORS = color_rng.uniform(0.2, 1.0, size=(NUM_CLASSES, 3))
    return _CLASS_COLORS


def _segmentation_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    # logits: (N, C, H, W) → class axis last for cross entropy
    moved = logits.transpose(0, 2, 3, 1)
    return cross_entropy(moved, targets)


def _seg_predictions(outputs: np.ndarray) -> np.ndarray:
    return outputs.argmax(axis=1)


def make_nyuv2(
    num_scenes: int = 300,
    channels: tuple[int, ...] = (12, 24),
    seed: int = 0,
) -> Benchmark:
    """Build the 3-task indoor scene-understanding benchmark."""
    rng = np.random.default_rng(seed)
    images, segs, depths, normals = [], [], [], []
    for _ in range(num_scenes):
        image, seg, depth, normal = render_scene(rng)
        images.append(image)
        segs.append(seg)
        depths.append(depth)
        normals.append(normal)
    images = np.stack(images)
    targets = {
        "segmentation": np.stack(segs),
        "depth": np.stack(depths),
        "normal": np.stack(normals),
    }
    full = ArrayDataset(images, targets)
    tr, va, te = train_val_test_split(num_scenes, rng, 0.15, 0.15)

    tasks = [
        TaskSpec(
            "segmentation",
            _segmentation_loss,
            {
                "miou": lambda o, t: mean_iou(_seg_predictions(o), t, NUM_CLASSES),
                "pixacc": lambda o, t: pixel_accuracy(_seg_predictions(o), t),
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
        TaskSpec(
            "normal",
            mse_loss,
            {
                "mean": lambda o, t: normal_metrics(o, t)["mean"],
                "median": lambda o, t: normal_metrics(o, t)["median"],
                "within_11.25": lambda o, t: normal_metrics(o, t)["within_11.25"],
                "within_22.5": lambda o, t: normal_metrics(o, t)["within_22.5"],
                "within_30": lambda o, t: normal_metrics(o, t)["within_30"],
            },
            {
                "mean": False,
                "median": False,
                "within_11.25": True,
                "within_22.5": True,
                "within_30": True,
            },
        ),
    ]

    head_channels = {"segmentation": NUM_CLASSES, "depth": 1, "normal": 3}

    def _heads(model_rng, encoder, tasks):
        scale = encoder.downsample_factor
        return {
            name: DenseHead(encoder.out_channels, 16, head_channels[name], scale, model_rng)
            for name in tasks
        }

    def build_model(architecture: str, model_rng: np.random.Generator | None, tasks):
        if architecture != "hps":
            raise ValueError("nyuv2 reproduction uses the paper's HPS stack only")
        model_rng = model_rng or np.random.default_rng(seed)
        encoder = ConvEncoder(3, list(channels), model_rng)
        return HardParameterSharing(encoder, _heads(model_rng, encoder, tasks))

    return Benchmark(
        name="nyuv2",
        mode=SINGLE_INPUT,
        tasks=tasks,
        train=full.subset(tr),
        val=full.subset(va),
        test=full.subset(te),
        build_model=build_model,
        metadata={"size": _SIZE, "num_classes": NUM_CLASSES},
    )
