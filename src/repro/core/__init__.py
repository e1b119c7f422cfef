"""``repro.core`` — the paper's primary contribution.

- :class:`~repro.core.mocograd.MoCoGrad`: the momentum-calibrated
  conflicting-gradient balancer (Algorithm 1).
- :mod:`~repro.core.conflict`: GCD / TCI diagnostics (Definitions 2–3).
- :mod:`~repro.core.gradstats`: the shared per-step pairwise-geometry
  cache (Gram, norms, cosines, conflict mask) behind the balancer kernels.
- :mod:`~repro.core.theory`: executable forms of Theorems 1–3.
- :mod:`~repro.core.balancer`: the balancer API and registry shared with
  all baselines in :mod:`repro.balancers`.
"""

from .balancer import (
    GradientBalancer,
    available_balancers,
    create_balancer,
    register_balancer,
)
from .conflict import (
    conflict_fraction,
    cosine_similarity,
    gradient_conflict_degree,
    is_conflicting,
    pairwise_gcd,
    task_conflict_intensity,
    tci_profile,
)
from .gradstats import GradStats
from .mocograd import MoCoGrad
from .theory import (
    calibrated_gradient_bound,
    check_theorem1,
    corollary1_rate_exponent,
    decaying_schedule,
    regret,
    regret_bound,
    run_convex_descent,
)

__all__ = [
    "GradientBalancer",
    "register_balancer",
    "create_balancer",
    "available_balancers",
    "MoCoGrad",
    "GradStats",
    "cosine_similarity",
    "gradient_conflict_degree",
    "is_conflicting",
    "pairwise_gcd",
    "conflict_fraction",
    "task_conflict_intensity",
    "tci_profile",
    "calibrated_gradient_bound",
    "check_theorem1",
    "regret",
    "regret_bound",
    "corollary1_rate_exponent",
    "decaying_schedule",
    "run_convex_descent",
]
