"""Fig. 1 & Fig. 2 — the paper's empirical task-conflict investigation.

- **Fig. 1** trains task A (a MovieLens genre) alone, with one partner
  (A+B) and with two partners (A+B+C) under HPS and MMoE, showing how task
  A's RMSE degrades as more tasks join.
- **Fig. 2** correlates Task Conflict Intensity (Definition 2) with the
  Gradient Conflict Degree (Definition 3) measured during joint training:
  sweeping the inter-task relatedness knob of the synthetic generator
  produces (GCD, TCI) pairs whose positive correlation reproduces the
  paper's finding that gradient conflict drives performance degradation.
"""

from __future__ import annotations

import numpy as np

from ..arch.base import MTLModel
from ..arch.encoders import MLPEncoder
from ..arch.heads import LinearHead
from ..balancers.equal import EqualWeighting
from ..core.conflict import pairwise_gcd, task_conflict_intensity
from ..data.base import ArrayDataset, TaskSpec
from ..data.latent import correlated_task_matrix
from ..data.movielens import GENRES, make_movielens
from ..metrics.regression import rmse
from ..nn.functional import mse_loss
from ..training.stl import train_stl
from ..training.trainer import MTLTrainer

__all__ = ["task_interference_curve", "tci_gcd_correlation", "SharedOutputRegressor"]


def _train_joint(
    benchmark, epochs: int, batch_size: int, lr: float, seed: int, architecture: str
):
    model = benchmark.build_model(architecture, np.random.default_rng(seed))
    trainer = MTLTrainer(
        model,
        benchmark.tasks,
        EqualWeighting(),
        mode=benchmark.mode,
        lr=lr,
        seed=seed,
    )
    trainer.fit(benchmark.train, epochs, batch_size)
    return trainer


def task_interference_curve(
    target_genre: str = GENRES[0],
    partner_genres: tuple[str, ...] = GENRES[1:3],
    architecture: str = "hps",
    records_per_genre: int = 300,
    relatedness: float = 0.1,
    epochs: int = 6,
    batch_size: int = 48,
    lr: float = 3e-3,
    seed: int = 0,
) -> dict:
    """Fig. 1: RMSE of ``target_genre`` as partner tasks are added.

    Returns ``{"task_sets": [...], "rmse": [...]}`` where entry i jointly
    trains the target with the first i partners (entry 0 is STL).
    """
    results = {"task_sets": [], "rmse": []}
    for count in range(len(partner_genres) + 1):
        genres = (target_genre,) + tuple(partner_genres[:count])
        benchmark = make_movielens(
            genres=genres,
            records_per_genre=records_per_genre,
            relatedness=relatedness,
            seed=seed,
        )
        if count == 0:
            metrics = train_stl(benchmark, target_genre, epochs, batch_size, lr=lr, seed=seed)
        else:
            trainer = _train_joint(benchmark, epochs, batch_size, lr, seed, architecture)
            metrics = trainer.evaluate(benchmark.test)[target_genre]
        results["task_sets"].append("+".join(genres))
        results["rmse"].append(metrics["rmse"])
    return results


class SharedOutputRegressor(MTLModel):
    """A shared trunk whose single output serves every task.

    The instrumented model behind the TCI–GCD study: with no task-specific
    parameters at all, conflicting targets compete for exactly the same
    function, so the gradient geometry cleanly reflects the ground-truth
    task angle.  (In a deep model with task heads the conflict signal is
    diluted over near-orthogonal high-dimensional gradients — see
    EXPERIMENTS.md for the measurement discussion.)
    """

    def __init__(self, task_names, in_features: int, rng: np.random.Generator) -> None:
        super().__init__(task_names)
        self.encoder = MLPEncoder(in_features, [16, 8], rng)
        self.head = LinearHead(8, 1, rng)

    def shared_features(self, x):
        return self.head(self.encoder(x))

    def forward_head(self, features, x, task: str):
        return features

    def shared_parameters(self):
        return self.encoder.parameters() + self.head.parameters()

    def task_specific_parameters(self, task: str):
        self._check_task(task)
        return []


def tci_gcd_correlation(
    cosine_grid: tuple[float, ...] = (0.9, 0.6, 0.3, 0.0, -0.3, -0.6, -0.9),
    num_samples: int = 300,
    in_features: int = 10,
    noise: float = 0.2,
    epochs: int = 15,
    batch_size: int = 32,
    lr: float = 5e-3,
    seeds: int = 3,
    gcd_probes: int = 4,
    seed: int = 0,
) -> dict:
    """Fig. 2(b–d): (mean GCD, TCI) pairs across ground-truth conflict levels.

    Substitution note (DESIGN.md): the paper measures this on MovieLens
    task pairs; here the conflict level is *instrumented* — two regression
    tasks whose true directions have an exact cosine (the grid), served by
    a shared-output trunk so they compete for the same function.  GCD is
    probed on per-task gradients in the second half of training, TCI is the
    target task's test-RMSE gap to its single-task twin, both averaged over
    the ``seeds`` streams ``seed, seed + 1, …``.
    """
    gcds, tcis = [], []
    tasks = [
        TaskSpec(
            name,
            mse_loss,
            {"rmse": lambda outputs, targets: rmse(outputs, targets)},
            {"rmse": False},
        )
        for name in ("t0", "t1")
    ]
    for cosine in cosine_grid:
        level_gcd, level_tci = [], []
        for s in range(seed, seed + seeds):
            rng = np.random.default_rng(s)
            corr = np.array([[1.0, cosine], [cosine, 1.0]])
            directions = correlated_task_matrix(2, in_features, corr, rng)
            inputs = rng.normal(size=(num_samples, in_features))
            eval_inputs = rng.normal(size=(num_samples, in_features))
            train_set = ArrayDataset(
                inputs,
                {
                    "t0": inputs @ directions[0] + noise * rng.normal(size=num_samples),
                    "t1": inputs @ directions[1] + noise * rng.normal(size=num_samples),
                },
            )
            test_set = ArrayDataset(
                eval_inputs,
                {"t0": eval_inputs @ directions[0], "t1": eval_inputs @ directions[1]},
            )
            stl_model = SharedOutputRegressor(["t0"], in_features, np.random.default_rng(s))
            stl_trainer = MTLTrainer(stl_model, tasks[:1], EqualWeighting(), lr=lr, seed=s)
            stl_trainer.fit(train_set, epochs, batch_size)
            stl_rmse = stl_trainer.evaluate(test_set)["t0"]["rmse"]

            model = SharedOutputRegressor(["t0", "t1"], in_features, np.random.default_rng(s))
            trainer = MTLTrainer(model, tasks, EqualWeighting(), lr=lr, seed=s)
            probes = []
            probe_rng = np.random.default_rng(10_000 + s)
            for epoch in range(epochs):
                trainer.fit(train_set, 1, batch_size)
                if epoch >= epochs // 2:
                    for _ in range(gcd_probes):
                        idx = probe_rng.choice(num_samples, size=min(64, num_samples), replace=False)
                        x, y = train_set.batch(idx)
                        probes.append(pairwise_gcd(trainer.task_gradients(x, y))[0, 1])
            joint_rmse = trainer.evaluate(test_set)["t0"]["rmse"]
            level_gcd.append(float(np.mean(probes)))
            level_tci.append(task_conflict_intensity(joint_rmse, stl_rmse))
        gcds.append(float(np.mean(level_gcd)))
        tcis.append(float(np.mean(level_tci)))
    gcd_array, tci_array = np.asarray(gcds), np.asarray(tcis)
    correlation = float(np.corrcoef(gcd_array, tci_array)[0, 1]) if len(gcds) > 1 else np.nan
    return {
        "cosine": list(cosine_grid),
        "gcd": gcds,
        "tci": tcis,
        "pearson_r": correlation,
    }
