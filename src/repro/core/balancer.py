"""Gradient balancer abstraction and registry.

A *balancer* is the pluggable optimization-side component of multi-task
learning: given the per-task gradients of the shared parameters at one
optimization step (a ``(K, d)`` matrix) and the per-task loss values, it
produces the single update direction the optimizer applies.  MoCoGrad and
every baseline in the paper (DWA, MGDA, PCGrad, GradDrop, GradVac, CAGrad,
IMTL, RLW, Nash-MTL) fit this interface; loss-weighting methods are expressed
as weighted gradient sums, which is mathematically identical to weighting the
losses before one backward pass.

Balancers may be stateful (momentum, loss history, EMA similarities); call
:meth:`GradientBalancer.reset` when starting a new training run.

Pairwise kernels: :meth:`GradientBalancer._check_inputs` builds one
:class:`~repro.core.gradstats.GradStats` per step — a lazy cache of the
K×K Gram matrix, per-task norms, pairwise cosines, and the conflict
mask — exposed as :attr:`GradientBalancer.gradstats`.  The base class's
conflict telemetry and every conflict-aware balancer read this shared
cache instead of recomputing inner products.  The per-pair loop kernels
the vectorized ones replaced live with the tests as reference
implementations (``tests/reference/balancers.py``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..obs import NULL_TELEMETRY, Telemetry
from .gradstats import GradStats

__all__ = ["GradientBalancer", "register_balancer", "create_balancer", "available_balancers"]


class GradientBalancer:
    """Base class for gradient manipulation / weighting strategies."""

    #: registry name; subclasses set this
    name: str = "base"

    def __init__(self, seed: int | None = None) -> None:
        self._seed = seed
        self.rng = np.random.default_rng(seed)
        self.num_tasks: int | None = None
        #: telemetry hook; :class:`~repro.training.trainer.MTLTrainer`
        #: replaces the inert default with its own instance, so every
        #: balancer gets per-step conflict counters for free.
        self.telemetry: Telemetry = NULL_TELEMETRY
        self._stats: GradStats | None = None

    # ------------------------------------------------------------------
    @property
    def gradstats(self) -> GradStats | None:
        """Per-step pairwise-geometry cache over the current gradients.

        Built by :meth:`_check_inputs` at the top of every
        :meth:`balance` call; ``None`` before the first call.  All
        products (Gram, norms, cosines, conflict mask) are lazy — reading
        none of them costs nothing.
        """
        return self._stats

    # ------------------------------------------------------------------
    def reset(self, num_tasks: int) -> None:
        """Prepare internal state for a fresh training run of ``num_tasks``."""
        self.num_tasks = num_tasks
        self.rng = np.random.default_rng(self._seed)

    def balance(self, grads: np.ndarray, losses: np.ndarray) -> np.ndarray:
        """Combine per-task gradients into one update direction.

        Parameters
        ----------
        grads:
            ``(K, d)`` matrix of per-task gradients over shared parameters.
        losses:
            ``(K,)`` vector of current task loss values (some balancers,
            e.g. DWA, use these; others ignore them).

        Returns
        -------
        The combined gradient vector of shape ``(d,)``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _check_inputs(self, grads: np.ndarray, losses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grads = np.asarray(grads, dtype=np.float64)
        losses = np.asarray(losses, dtype=np.float64)
        if grads.ndim != 2:
            raise ValueError(f"grads must be (K, d); got shape {grads.shape}")
        if losses.shape != (grads.shape[0],):
            raise ValueError(
                f"losses shape {losses.shape} does not match {grads.shape[0]} tasks"
            )
        if self.num_tasks is None:
            self.reset(grads.shape[0])
        elif self.num_tasks != grads.shape[0]:
            raise ValueError(
                f"balancer was reset for {self.num_tasks} tasks but received {grads.shape[0]}"
            )
        self._stats = GradStats(grads)
        self._record_conflict_telemetry(self._stats)
        return grads, losses

    def dynamics(self) -> dict:
        """Balancer-internal state for the flight recorder (per step).

        Called by :class:`~repro.training.trainer.MTLTrainer` right after
        :meth:`balance` when dynamics recording is on.  The base class has
        no internal dynamics; stateful balancers override this to expose
        theirs (MoCoGrad reports λ and per-task momentum norms).  Values
        must be JSON-ready floats or lists of floats.
        """
        return {}

    def _record_conflict_telemetry(self, stats: GradStats) -> None:
        """Count conflicting gradient pairs (GCD > 1 ⇔ negative cosine).

        Runs on every :meth:`balance` call of every balancer — the base
        class owns it so each baseline reports the same conflict counters
        the paper's Section III diagnostics are built on.  Skipped when
        telemetry is disabled: the shared :class:`GradStats` is lazy, so
        a disabled-telemetry step with a geometry-free balancer never
        runs the Gram GEMM at all.
        """
        telemetry = self.telemetry
        if not telemetry.enabled or stats.num_tasks < 2:
            return
        pairs, conflicts = stats.conflict_counts()
        telemetry.counter("balancer_pairs_total", method=self.name).inc(pairs)
        telemetry.counter("balancer_conflicts_total", method=self.name).inc(conflicts)
        telemetry.gauge("balancer_conflict_fraction", method=self.name).set(
            conflicts / pairs
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_REGISTRY: dict[str, Callable[..., GradientBalancer]] = {}


def register_balancer(name: str):
    """Class decorator adding a balancer to the global registry."""

    def decorator(cls):
        if name in _REGISTRY:
            raise ValueError(f"balancer {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def create_balancer(name: str, **kwargs) -> GradientBalancer:
    """Instantiate a registered balancer by name (e.g. ``"mocograd"``)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown balancer {name!r}; available: {sorted(_REGISTRY)}") from None
    return factory(**kwargs)


def available_balancers() -> list[str]:
    """Names of all registered balancers, sorted."""
    return sorted(_REGISTRY)
