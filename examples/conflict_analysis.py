"""Reproduce the paper's Section III conflict investigation (Fig. 1 & 2).

1. Shows task A's RMSE degrading as more (conflicting) genres join the
   joint run — the paper's Fig. 1 motivation.
2. Sweeps a ground-truth task-angle dial and plots (as text) the positive
   correlation between Gradient Conflict Degree and Task Conflict
   Intensity — the paper's Fig. 2 evidence that gradient conflict *is*
   task conflict.
3. Verifies Theorem 1's bound on actual MoCoGrad calibrated gradients.

    python examples/conflict_analysis.py
"""

import numpy as np

from repro.core import MoCoGrad, calibrated_gradient_bound, check_theorem1
from repro.experiments import REGISTRY


def main() -> None:
    # Fig. 1 and Fig. 2 come from the same runners as `python -m repro fig1`
    # and the benchmark harness, at the quick preset.
    for identifier in ("fig1", "fig2"):
        module, _ = REGISTRY[identifier]
        print(module.format_result(module.run("quick")), end="\n\n")

    print("=== Theorem 1: calibrated gradient bound ===")
    rng = np.random.default_rng(0)
    balancer = MoCoGrad(calibration=0.5, seed=0)
    balancer.reset(3)
    worst_ratio = 0.0
    for _ in range(100):
        grads = rng.normal(size=(3, 50))
        calibrated = balancer.calibrate(grads)
        assert check_theorem1(calibrated, grads, 0.5)
        bound = calibrated_gradient_bound(3, 0.5, np.linalg.norm(grads, axis=1).max())
        worst_ratio = max(worst_ratio, np.linalg.norm(calibrated.sum(0)) / bound)
    print(f"  ‖ĝ‖ / K(1+λ)G over 100 random steps: worst ratio {worst_ratio:.3f} ≤ 1 ✓")


if __name__ == "__main__":
    main()
