"""Synthetic AliExpress-style click logs (Table I, Fig. 8).

The real dataset holds search-traffic logs from five countries with two
binary prediction tasks per country: CTR (click-through) and CTCVR
(click *and* convert).  This generator reproduces the statistical structure
the experiment depends on:

- categorical records (user / item / category / position / device fields)
  whose values carry ground-truth latent vectors;
- a **conversion funnel**: conversions only happen on clicked records, so
  the CTCVR label is ``click · convert`` and is strictly rarer than CTR —
  the same label nesting and class imbalance as the real logs;
- **partially related tasks**: the CTR and CVR ground-truth directions share
  a controlled latent angle, so their gradients genuinely conflict during
  joint training;
- four country scenarios (ES / FR / NL / US) drawn with different latent
  rotations, base rates and sample sizes.

Each scenario is a 2-task single-input benchmark (both tasks read the same
records), matching the LibMTL AliExpress setup the paper builds on.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..arch.factory import build_tabular_model
from ..metrics.classification import roc_auc
from ..nn.functional import bce_with_logits
from .base import SINGLE_INPUT, ArrayDataset, Benchmark, TaskSpec, train_val_test_split
from .latent import task_directions

__all__ = ["COUNTRIES", "make_aliexpress", "make_aliexpress_suite"]

COUNTRIES = ("ES", "FR", "NL", "US")

#: (base CTR, conversion rate among clicks, country seed offset)
_COUNTRY_PROFILES = {
    "ES": (0.30, 0.35, 11),
    "FR": (0.28, 0.30, 23),
    "NL": (0.26, 0.32, 37),
    "US": (0.24, 0.28, 53),
}

_FIELD_SIZES = (40, 60, 12, 8, 4)  # user, item, category, position, device
_LATENT_DIM = 12


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _generate_logs(
    num_records: int,
    relatedness: float,
    base_ctr: float,
    cvr_rate: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample records and the nested click / click-and-convert labels."""
    field_latents = [rng.normal(scale=1.0, size=(size, _LATENT_DIM)) for size in _FIELD_SIZES]
    records = np.stack(
        [rng.integers(0, size, size=num_records) for size in _FIELD_SIZES], axis=1
    )
    latents = sum(
        table[records[:, i]] for i, table in enumerate(field_latents)
    ) / np.sqrt(len(_FIELD_SIZES))
    directions = task_directions(2, _LATENT_DIM, relatedness, rng)
    ctr_score = latents @ directions[0] + 0.3 * rng.normal(size=num_records)
    cvr_score = latents @ directions[1] + 0.3 * rng.normal(size=num_records)
    # Center scores so the base rates land where the profile says.
    ctr_bias = np.quantile(ctr_score, 1.0 - base_ctr)
    cvr_bias = np.quantile(cvr_score, 1.0 - cvr_rate)
    clicks = (rng.random(num_records) < _sigmoid(2.5 * (ctr_score - ctr_bias))).astype(
        np.float64
    )
    conversions = (rng.random(num_records) < _sigmoid(2.5 * (cvr_score - cvr_bias))).astype(
        np.float64
    )
    ctcvr = clicks * conversions  # conversion only counts on a click
    return records, clicks, ctcvr


def _task_specs() -> list[TaskSpec]:
    """The CTR / CTCVR task pair (shared by eager and streaming builders)."""

    def auc_metric(outputs: np.ndarray, labels: np.ndarray) -> float:
        return roc_auc(_sigmoid(outputs), labels)

    return [
        TaskSpec("CTR", bce_with_logits, {"auc": auc_metric}, {"auc": True}),
        TaskSpec("CTCVR", bce_with_logits, {"auc": auc_metric}, {"auc": True}),
    ]


def _build_model(
    embedding_dim: int,
    hidden: tuple[int, ...],
    seed: int,
    architecture: str,
    model_rng: np.random.Generator | None,
    tasks: tuple[str, ...],
):
    """The benchmark's model builder, bound to its knobs with ``partial``.

    One call to :func:`~repro.arch.factory.build_tabular_model` (the
    servable tabular spec); shared by the eager and streaming builders.
    """
    return build_tabular_model(
        architecture,
        _FIELD_SIZES,
        embedding_dim,
        hidden,
        tasks,
        seed=model_rng or np.random.default_rng(seed),
    )


def make_aliexpress(
    country: str = "ES",
    num_records: int = 4000,
    relatedness: float = 0.35,
    embedding_dim: int = 8,
    hidden: tuple[int, ...] = (32, 16),
    seed: int = 0,
) -> Benchmark:
    """Build the 2-task (CTR, CTCVR) benchmark for one country scenario."""
    if country not in _COUNTRY_PROFILES:
        raise ValueError(f"country must be one of {COUNTRIES}")
    base_ctr, cvr_rate, offset = _COUNTRY_PROFILES[country]
    rng = np.random.default_rng(seed + offset)
    records, clicks, ctcvr = _generate_logs(num_records, relatedness, base_ctr, cvr_rate, rng)

    train_idx, val_idx, test_idx = train_val_test_split(num_records, rng)
    targets = {"CTR": clicks, "CTCVR": ctcvr}
    full = ArrayDataset(records, targets)

    return Benchmark(
        name=f"aliexpress-{country}",
        mode=SINGLE_INPUT,
        tasks=_task_specs(),
        train=full.subset(train_idx),
        val=full.subset(val_idx),
        test=full.subset(test_idx),
        build_model=partial(_build_model, embedding_dim, hidden, seed),
        metadata={
            "country": country,
            "base_ctr": base_ctr,
            "cvr_rate": cvr_rate,
            "relatedness": relatedness,
        },
    )


def make_aliexpress_suite(
    num_records: int = 4000, seed: int = 0, **kwargs
) -> dict[str, Benchmark]:
    """All four country scenarios of Table I."""
    return {
        country: make_aliexpress(country, num_records=num_records, seed=seed, **kwargs)
        for country in COUNTRIES
    }
