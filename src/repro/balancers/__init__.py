"""``repro.balancers`` — the ten comparison methods from the paper's Table I.

All balancers implement :class:`repro.core.GradientBalancer` and register
themselves under the names used throughout the experiments:

====================  =======================================
name                  method
====================  =======================================
``equal``             vanilla joint training (Σ g_k)
``dwa``               Dynamic Weight Average
``mgda``              Multiple Gradient Descent Algorithm
``pcgrad``            Projecting Conflicting Gradients
``graddrop``          Gradient Sign Dropout
``gradvac``           Gradient Vaccine
``cagrad``            Conflict-Averse Gradient descent
``imtl``              Impartial Multi-Task Learning
``rlw``               Random Loss Weighting
``nashmtl``           Nash-MTL bargaining
``mocograd``          MoCoGrad (in :mod:`repro.core`)
====================  =======================================

STL (single-task learning) is not a balancer — use
:func:`repro.training.run_stl`.
"""

from ..core.mocograd import MoCoGrad
from .cagrad import CAGrad
from .dwa import DWA
from .equal import EqualWeighting
from .graddrop import GradDrop
from .gradnorm import GradNorm
from .gradvac import GradVac, gradvac_coefficient
from .imtl import IMTL
from .mgda import MGDA, min_norm_point
from .nashmtl import NashMTL, solve_nash_weights
from .pcgrad import PCGrad, project_conflicting
from .rlw import RLW
from .uncertainty import UncertaintyWeighting

__all__ = [
    "EqualWeighting",
    "DWA",
    "MGDA",
    "min_norm_point",
    "PCGrad",
    "project_conflicting",
    "GradDrop",
    "GradNorm",
    "GradVac",
    "gradvac_coefficient",
    "CAGrad",
    "IMTL",
    "RLW",
    "NashMTL",
    "solve_nash_weights",
    "MoCoGrad",
    "UncertaintyWeighting",
]
