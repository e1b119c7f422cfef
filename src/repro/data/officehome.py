"""Synthetic Office-Home-style multi-domain classification (Fig. 5, Fig. 9).

The real Office-Home has the *same 65 object classes* photographed in four
visual styles (Art, Clipart, Product, Real-World); the paper treats each
domain as its own 65-way classification task with its own images
(**multi-input** MTL, shared ResNet-18 encoder).

The generator reproduces the shared-classes/shifted-styles structure:

- each class owns a prototype pattern (smooth random texture + a class-
  specific blob layout) shared by all domains;
- each domain applies its own style transform — colour mixing matrix,
  brightness/contrast shift, noise level and spatial jitter — so the same
  class looks different per domain while staying mutually predictive.
"""

from __future__ import annotations

import numpy as np

from ..arch.encoders import ConvEncoder
from ..arch.heads import LinearHead
from ..arch.hps import HardParameterSharing
from ..metrics.classification import accuracy
from ..nn.conv import GlobalAvgPool2d
from ..nn.functional import cross_entropy
from ..nn.module import Module
from ..nn.tensor import Tensor
from .base import MULTI_INPUT, ArrayDataset, Benchmark, TaskSpec, train_val_test_split

__all__ = ["DOMAINS", "make_officehome"]

DOMAINS = ("Art", "Clipart", "Product", "RealWorld")
_SIZE = 16

_DOMAIN_STYLE = {
    # (colour-mix strength, brightness, contrast, noise, jitter pixels)
    "Art": (0.6, 0.1, 1.2, 0.10, 1),
    "Clipart": (0.9, 0.3, 1.5, 0.02, 0),
    "Product": (0.2, 0.4, 1.0, 0.03, 0),
    "RealWorld": (0.3, 0.0, 0.9, 0.15, 2),
}


def _class_prototypes(num_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Smooth per-class texture patterns, shape (C, 3, H, W)."""
    prototypes = np.empty((num_classes, 3, _SIZE, _SIZE))
    yy, xx = np.meshgrid(np.arange(_SIZE), np.arange(_SIZE), indexing="ij")
    for c in range(num_classes):
        freq = rng.uniform(0.3, 1.2, size=2)
        phase = rng.uniform(0, 2 * np.pi, size=2)
        base = np.sin(freq[0] * yy + phase[0]) * np.cos(freq[1] * xx + phase[1])
        color = rng.uniform(0.3, 1.0, size=3)
        pattern = 0.5 + 0.5 * base
        # A class-specific blob so classes differ beyond texture.
        cy, cx = rng.integers(3, _SIZE - 3, size=2)
        blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 8.0)
        prototypes[c] = color[:, None, None] * (pattern + blob)[None]
    return prototypes


def _apply_style(
    image: np.ndarray, domain: str, rng: np.random.Generator, strength: float = 1.0
) -> np.ndarray:
    mix, brightness, contrast, noise, jitter = _DOMAIN_STYLE[domain]
    mix *= strength
    brightness *= strength
    contrast = 1.0 + (contrast - 1.0) * strength
    noise *= strength
    jitter = int(round(jitter * strength))
    mixer = (1.0 - mix) * np.eye(3) + mix * rng.dirichlet(np.ones(3), size=3)
    styled = np.einsum("ij,jhw->ihw", mixer, image)
    styled = contrast * (styled - styled.mean()) + styled.mean() + brightness
    if jitter:
        shift = rng.integers(-jitter, jitter + 1, size=2)
        styled = np.roll(styled, tuple(shift), axis=(1, 2))
    styled += noise * rng.normal(size=styled.shape)
    return styled


class _PooledConvEncoder(Module):
    """Conv encoder + global average pooling → vector representation."""

    def __init__(self, channels: tuple[int, ...], rng: np.random.Generator) -> None:
        super().__init__()
        self.conv = ConvEncoder(3, list(channels), rng)
        self.pool = GlobalAvgPool2d()
        self.out_features = self.conv.out_channels

    def forward(self, x) -> Tensor:
        return self.pool(self.conv(x))


def make_officehome(
    num_classes: int = 10,
    samples_per_domain: int = 400,
    channels: tuple[int, ...] = (12, 24),
    domain_conflict: float = 0.6,
    style_strength: float = 1.0,
    seed: int = 0,
) -> Benchmark:
    """Build the 4-domain classification benchmark.

    ``num_classes`` defaults to 10 for laptop-scale runs (the real dataset
    has 65; pass 65 for the full-width variant).

    ``domain_conflict`` scales per-(domain, class) appearance shifts: each
    domain renders the same class with its own distortion pattern, so the
    shared encoder cannot satisfy all domains simultaneously — the source
    of the gradient conflicts the paper's Fig. 5 experiment stresses.
    Set 0.0 for perfectly transferable domains.

    ``style_strength`` scales how far apart the four domain styles are
    (1.0 = the full transforms; smaller values make domains more mutually
    predictive, the regime where joint training pays off).
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if domain_conflict < 0:
        raise ValueError("domain_conflict must be ≥ 0")
    if style_strength < 0:
        raise ValueError("style_strength must be ≥ 0")
    rng = np.random.default_rng(seed)
    prototypes = _class_prototypes(num_classes, rng)
    # Per-(domain, class) distortions: same class, conflicting appearance.
    distortions = {
        domain: rng.normal(scale=domain_conflict, size=(num_classes, 3, _SIZE, _SIZE))
        for domain in DOMAINS
    }

    train, val, test = {}, {}, {}
    for domain in DOMAINS:
        labels = rng.integers(0, num_classes, size=samples_per_domain)
        images = np.empty((samples_per_domain, 3, _SIZE, _SIZE))
        for i, label in enumerate(labels):
            rendered = prototypes[label] + distortions[domain][label]
            images[i] = _apply_style(rendered, domain, rng, strength=style_strength)
        dataset = ArrayDataset(images, labels.astype(np.int64))
        # Paper split: 60% train / 20% val / 20% test.
        tr, va, te = train_val_test_split(samples_per_domain, rng, 0.2, 0.2)
        train[domain] = dataset.subset(tr)
        val[domain] = dataset.subset(va)
        test[domain] = dataset.subset(te)

    tasks = [
        TaskSpec(
            domain,
            cross_entropy,
            {"accuracy": lambda o, t: accuracy(o.argmax(axis=1), t)},
            {"accuracy": True},
        )
        for domain in DOMAINS
    ]

    def build_model(architecture: str, model_rng: np.random.Generator | None, tasks):
        if architecture != "hps":
            raise ValueError("officehome reproduction uses the paper's HPS stack only")
        model_rng = model_rng or np.random.default_rng(seed)
        encoder = _PooledConvEncoder(channels, model_rng)
        heads = {
            domain: LinearHead(encoder.out_features, num_classes, model_rng)
            for domain in tasks
        }
        return HardParameterSharing(encoder, heads)

    return Benchmark(
        name="officehome",
        mode=MULTI_INPUT,
        tasks=tasks,
        train=train,
        val=val,
        test=test,
        build_model=build_model,
        metadata={"num_classes": num_classes, "size": _SIZE},
    )
