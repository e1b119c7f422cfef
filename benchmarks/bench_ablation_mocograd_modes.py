"""MoCoGrad ablation benches: every design variant trains to a finite RMSE,
and the paper's §VI-C feature-level gradients speed up the step."""

import numpy as np


def test_ablation_mocograd_modes(regenerate):
    results = regenerate("ablation_mocograd_modes")
    assert all(np.isfinite(v) for v in results.values())


def test_ablation_feature_gradients_speedup(regenerate):
    """The paper's feature-level gradients must (a) speed up the step and
    (b) keep AUC in the same range as parameter-level balancing."""
    result = regenerate("ablation_grad_source")
    timings, aucs = result["seconds_per_step"], result["auc"]
    assert timings["features"] < timings["parameters"]
    assert abs(aucs["features"] - aucs["parameters"]) < 0.1
