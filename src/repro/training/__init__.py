"""``repro.training`` — the MTL trainer and the one run protocol built on it.

:class:`RunSpec` describes a run; :func:`build_trainer` turns it into an
:class:`MTLTrainer`, and :func:`repro.training.run.run` /
:func:`run_stl` train it seed-averaged (the STL row is ``run_stl``).
"""

from .callbacks import BestCheckpoint, EarlyStopping
from .evaluation import collect_outputs, evaluate_model
from .history import History
from .run import METHODS, RunSpec, average_metric_dicts, build_trainer, run_stl
from .trainer import MTLTrainer

__all__ = [
    "MTLTrainer",
    "History",
    "evaluate_model",
    "collect_outputs",
    "METHODS",
    "RunSpec",
    "build_trainer",
    "run_stl",
    "average_metric_dicts",
    "EarlyStopping",
    "BestCheckpoint",
]
