"""Shared per-step cache of pairwise gradient geometry.

Every conflict-aware balancer and every pairwise diagnostic needs the same
handful of products of the ``(K, d)`` per-task gradient matrix: the K×K
Gram matrix, per-task norms, pairwise cosines / GCD (Definition 3), and
the boolean conflict mask of Algorithm 1's line-9 test.  Before this
module each consumer recomputed them independently — the base class's
conflict telemetry ran one GEMM, CAGrad another, and MoCoGrad / PCGrad /
GradVac issued up to three ``d``-length BLAS-1 calls *per task pair* from
Python loops.

:class:`GradStats` computes each product **lazily, at most once** per
step: the Gram matrix is one GEMM, and everything pairwise derives from
it (or from the O(K·d) row-norm reduction) in O(K²).
:meth:`repro.core.balancer.GradientBalancer._check_inputs` constructs one
instance per :meth:`balance` call and exposes it as
:attr:`~repro.core.balancer.GradientBalancer.gradstats`, so the base
class's telemetry and the balancer's own kernel read the same numbers.

Laziness matters for the "telemetry disabled + geometry-free balancer"
case (e.g. equal weighting): constructing a :class:`GradStats` is O(1),
and if nobody reads :attr:`gram` the GEMM never runs.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["GradStats", "gram_matrix"]

_EPS = 1e-12


def gram_matrix(grads: np.ndarray) -> np.ndarray:
    """The K×K Gram matrix ``G Gᵀ`` of a ``(K, d)`` gradient matrix.

    Kept as a module-level function (rather than inlined in
    :class:`GradStats`) so tests can wrap it to count GEMMs.
    """
    return grads @ grads.T


class GradStats:
    """Lazily-computed pairwise statistics over a ``(K, d)`` gradient matrix.

    The input array is referenced, not copied — callers must not mutate it
    while the cache is alive (balancers never do: the cache lives for one
    ``balance()`` call).

    Parameters
    ----------
    grads:
        ``(K, d)`` float64 matrix of per-task gradients.
    eps:
        Norm threshold below which a task gradient counts as zero; zero
        gradients have cosine 0 to everything (neither conflicting nor
        aligned), matching :func:`repro.core.conflict.cosine_similarity`.
    """

    def __init__(self, grads: np.ndarray, eps: float = _EPS) -> None:
        grads = np.asarray(grads, dtype=np.float64)
        if grads.ndim != 2:
            raise ValueError(f"grads must be (K, d); got shape {grads.shape}")
        self.grads = grads
        self.eps = eps
        self._gram: np.ndarray | None = None
        self._norms_sq: np.ndarray | None = None
        self._norms: np.ndarray | None = None
        self._nonzero: np.ndarray | None = None
        self._cosine: np.ndarray | None = None
        self._conflict_mask: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return self.grads.shape[0]

    @property
    def gram(self) -> np.ndarray:
        """``grads @ grads.T`` — the one GEMM everything pairwise shares."""
        if self._gram is None:
            self._gram = gram_matrix(self.grads)
        return self._gram

    @property
    def norms_sq(self) -> np.ndarray:
        """Per-task squared gradient norms ``‖g_k‖²`` (``(K,)``).

        Computed by an O(K·d) row reduction rather than from the Gram
        diagonal, so reading norms never forces the GEMM (and the values
        do not depend on property-access order).
        """
        if self._norms_sq is None:
            self._norms_sq = np.einsum("kd,kd->k", self.grads, self.grads)
        return self._norms_sq

    @property
    def norms(self) -> np.ndarray:
        """Per-task gradient norms ``‖g_k‖`` (``(K,)``)."""
        if self._norms is None:
            self._norms = np.sqrt(self.norms_sq)
        return self._norms

    @property
    def nonzero(self) -> np.ndarray:
        """Boolean ``(K,)`` mask of tasks with ``‖g_k‖ ≥ eps``."""
        if self._nonzero is None:
            self._nonzero = self.norms >= self.eps
        return self._nonzero

    @property
    def cosine(self) -> np.ndarray:
        """Pairwise cosine matrix, clamped to [-1, 1].

        Rows/columns of (numerically) zero gradients are 0, the diagonal
        is exactly 1 — so ``1 - cosine`` (the GCD matrix) can never leave
        Definition 3's [0, 2] range, even under floating-point drift in
        the underlying GEMM.
        """
        if self._cosine is None:
            norms = self.norms
            safe = np.where(self.nonzero, norms, 1.0)
            cos = self.gram / (safe[:, None] * safe[None, :])
            if not self.nonzero.all():
                dead = ~self.nonzero
                cos[dead, :] = 0.0
                cos[:, dead] = 0.0
            # clip as two ufuncs: np.clip's Python wrapper costs more than
            # the K×K work on this per-step path.
            np.maximum(cos, -1.0, out=cos)
            np.minimum(cos, 1.0, out=cos)
            np.fill_diagonal(cos, 1.0)
            self._cosine = cos
        return self._cosine

    @property
    def gcd(self) -> np.ndarray:
        """Pairwise GCD matrix ``1 − cos`` (Definition 3), diagonal 0."""
        return 1.0 - self.cosine

    @property
    def conflict_mask(self) -> np.ndarray:
        """Boolean ``(K, K)``: pair conflicts (GCD > 1 ⇔ cos < 0).

        Derived from the *sign* of the Gram entries (division by positive
        norms preserves sign), with zero-gradient rows/columns excluded —
        an inner product of exactly 0 (e.g. against an all-zero gradient)
        never counts as a conflict.  Diagonal is False.
        """
        if self._conflict_mask is None:
            nonzero = self.nonzero
            mask = (self.gram < 0.0) & nonzero[:, None] & nonzero[None, :]
            np.fill_diagonal(mask, False)
            self._conflict_mask = mask
        return self._conflict_mask

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Cheap per-step dynamics export (feeds the flight recorder).

        O(K²) given the cached Gram/cosine products — no extra ``d``-length
        work beyond what the balancer's own telemetry already forced.
        Returns plain floats/lists (JSON-ready):

        - ``grad_norms`` — per-task gradient norms ``‖g_k‖`` (length K);
        - ``gcd_pairs`` — the upper triangle of the pairwise GCD matrix
          (Definition 3), row-major over i < j (length K(K−1)/2);
        - ``gcd_mean`` / ``gcd_max`` and ``cos_min`` / ``cos_max`` —
          conflict-geometry extrema over distinct pairs;
        - ``conflict_fraction`` — fraction of pairs with GCD > 1.

        With K < 2 the pairwise fields are empty/zero.
        """
        num_tasks = self.num_tasks
        sample: dict = {"grad_norms": self.norms.tolist()}
        if num_tasks < 2:
            sample.update(
                gcd_pairs=[], gcd_mean=0.0, gcd_max=0.0,
                cos_min=0.0, cos_max=0.0, conflict_fraction=0.0,
            )
            return sample
        # Scalar Python over the cached K×K cosine: for the small K this
        # runs at (K ≤ 16 across the paper's benchmarks), plain float math
        # beats the dispatch cost of a dozen tiny numpy ops — this is a
        # per-step hot path when dynamics recording is on.
        rows = self.cosine.tolist()
        cosines = [rows[i][j] for i in range(num_tasks) for j in range(i + 1, num_tasks)]
        # cos < 0 ⇔ gram < 0 for nonzero pairs, and dead rows/columns are
        # exactly 0 — so this matches `conflict_mask` without forcing it.
        conflicts = sum(1 for c in cosines if c < 0.0)
        pairs = len(cosines)
        sample.update(
            gcd_pairs=[1.0 - c for c in cosines],
            gcd_mean=1.0 - sum(cosines) / pairs,
            gcd_max=1.0 - min(cosines),
            cos_min=min(cosines),
            cos_max=max(cosines),
            conflict_fraction=conflicts / pairs,
        )
        return sample

    def conflict_counts(self) -> tuple[int, int]:
        """``(pairs, conflicts)`` over distinct (unordered) task pairs."""
        num_tasks = self.num_tasks
        pairs = num_tasks * (num_tasks - 1) // 2
        if pairs == 0:
            return 0, 0
        return pairs, int(np.count_nonzero(self.conflict_mask[_upper_triangle(num_tasks)]))

    def __repr__(self) -> str:
        computed = [
            name
            for name, value in (
                ("gram", self._gram),
                ("norms", self._norms_sq),
                ("cosine", self._cosine),
                ("conflict_mask", self._conflict_mask),
            )
            if value is not None
        ]
        shape = self.grads.shape
        return f"GradStats(shape={shape}, computed={computed})"


@functools.lru_cache(maxsize=None)
def _upper_triangle(num_tasks: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(num_tasks, k=1)``, built once per task count."""
    return np.triu_indices(num_tasks, k=1)
