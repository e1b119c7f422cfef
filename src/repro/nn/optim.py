"""First-order optimizers: SGD (with momentum), Adam, AdaGrad, RMSProp.

These are the optimizers the paper compares against for convergence-rate
purposes (§IV-C, Corollary 1).  All updates mutate parameter data in place.

Note the separation of concerns in this reproduction: gradient *balancers*
(MoCoGrad, PCGrad, …) combine per-task gradients into one joint gradient,
which the trainer writes into ``param.grad``; the optimizer then consumes
``param.grad`` exactly as in single-task training.

Kernels
-------
Every optimizer steps a :class:`~repro.nn.arena.ParameterArena` (wrap a
parameter list as ``ParameterArena(params)``).  Its state (``velocity``,
``m``, ``v``, accumulators) lives in single ``(d,)`` arrays, and ``_step``
runs a handful of fused in-place vector ops over the arena's flat
``data``/``grad`` buffers with two preallocated ``(d,)`` scratch buffers —
zero d-length allocations per step.  The buffers are read through the arena
on every step, so an optimizer whose arena was unpacked raises instead of
writing to detached (or released shared) memory.  The per-parameter loop
kernels in ``tests/reference/optim.py`` execute the *same elementwise
operation sequence* and are the reference these kernels are compared with,
bitwise.

Adam's bias correction is folded into scalar coefficients
(``alpha_t = lr·sqrt(1−β₂ᵗ)/(1−β₁ᵗ)``, ``eps_t = eps·sqrt(1−β₂ᵗ)``),
eliminating the ``m_hat``/``v_hat`` d-length temporaries of the textbook
form while staying within 1e-12 of it.
"""

from __future__ import annotations

import math

import numpy as np

from .arena import ParameterArena

__all__ = ["Optimizer", "SGD", "Adam", "AdaGrad", "RMSProp"]


class Optimizer:
    """Base optimizer over a parameter arena.

    Parameters
    ----------
    arena:
        The :class:`~repro.nn.arena.ParameterArena` whose parameters are
        updated; pack a parameter list first with ``ParameterArena(params)``.
    lr:
        Learning rate (must be positive).
    """

    def __init__(self, arena: ParameterArena, lr: float) -> None:
        if not isinstance(arena, ParameterArena):
            raise TypeError(
                f"optimizers step a ParameterArena, got {type(arena).__name__}; "
                "pack the parameters first with ParameterArena(params)"
            )
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.arena = arena
        # Two (d,) scratch buffers shared by every kernel; after this warm
        # allocation _step never allocates a d-length temporary (asserted
        # by benchmarks/bench_optim.py's probe).
        self._scratch_a = np.empty(arena.size)
        self._scratch_b = np.empty(arena.size)
        self.lr = lr
        self.step_count = 0

    def _buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The arena's flat ``(data, grad)`` buffers; raises once unpacked."""
        arena = self.arena
        if arena.data is None:
            raise RuntimeError(
                "the optimizer's ParameterArena was unpacked; "
                "build a new optimizer over ParameterArena(params)"
            )
        return arena.data, arena.grad

    def zero_grad(self) -> None:
        """Clear every managed gradient with one fill of the grad buffer."""
        self._buffers()[1].fill(0.0)

    def step(self) -> None:
        """Apply one update using the arena's current gradients."""
        data, grad = self._buffers()
        self.step_count += 1
        self._step(data, grad)

    def _step(self, data: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _effective_grad(
        self, data: np.ndarray, grad: np.ndarray, weight_decay: float
    ) -> np.ndarray:
        """The gradient with weight decay applied allocation-free.

        Returns ``grad`` itself when ``weight_decay`` is zero; otherwise
        materializes ``wd·data + grad`` into scratch ``a`` and returns it.
        """
        if not weight_decay:
            return grad
        np.multiply(data, weight_decay, out=self._scratch_a)
        self._scratch_a += grad
        return self._scratch_a


class SGD(Optimizer):
    """Stochastic gradient descent with optional heavy-ball momentum."""

    def __init__(
        self,
        arena: ParameterArena,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(arena, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = np.zeros(arena.size) if momentum else None

    def _step(self, data: np.ndarray, grad: np.ndarray) -> None:
        grad = self._effective_grad(data, grad, self.weight_decay)
        if self.momentum:
            velocity = self._velocity
            velocity *= self.momentum
            velocity += grad
            grad = velocity
        np.multiply(grad, self.lr, out=self._scratch_b)
        data -= self._scratch_b


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction folded into scalars."""

    def __init__(
        self,
        arena: ParameterArena,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(arena, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = np.zeros(arena.size)
        self._v = np.zeros(arena.size)

    def _bias_corrected_scalars(self) -> tuple[float, float]:
        """Fold both bias corrections into ``(alpha_t, eps_t)``.

        ``lr·m̂/(√v̂+eps)`` with ``m̂ = m/(1−β₁ᵗ)``, ``v̂ = v/(1−β₂ᵗ)`` equals
        ``alpha_t·m/(√v+eps_t)`` for ``alpha_t = lr·√(1−β₂ᵗ)/(1−β₁ᵗ)`` and
        ``eps_t = eps·√(1−β₂ᵗ)`` — no d-length ``m_hat``/``v_hat``
        temporaries.
        """
        t = self.step_count
        bias2_sqrt = math.sqrt(1.0 - self.beta2**t)
        alpha_t = self.lr * bias2_sqrt / (1.0 - self.beta1**t)
        eps_t = self.eps * bias2_sqrt
        return alpha_t, eps_t

    def _step(self, data: np.ndarray, grad: np.ndarray) -> None:
        alpha_t, eps_t = self._bias_corrected_scalars()
        grad = self._effective_grad(data, grad, self.weight_decay)
        m, v = self._m, self._v
        scratch = self._scratch_b
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=scratch)
        m += scratch
        v *= self.beta2
        np.multiply(grad, grad, out=scratch)
        scratch *= 1.0 - self.beta2
        v += scratch
        # grad (possibly scratch_a) is no longer needed: reuse both buffers
        # for the update term alpha_t·m / (sqrt(v) + eps_t).
        np.sqrt(v, out=scratch)
        scratch += eps_t
        update = self._scratch_a
        np.multiply(m, alpha_t, out=update)
        update /= scratch
        data -= update


class AdaGrad(Optimizer):
    """AdaGrad (Duchi et al., 2011)."""

    def __init__(self, arena: ParameterArena, lr: float = 1e-2, eps: float = 1e-10) -> None:
        super().__init__(arena, lr)
        self.eps = eps
        self._accumulator = np.zeros(arena.size)

    def _step(self, data: np.ndarray, grad: np.ndarray) -> None:
        acc = self._accumulator
        denom, update = self._scratch_b, self._scratch_a
        np.multiply(grad, grad, out=denom)
        acc += denom
        np.sqrt(acc, out=denom)
        denom += self.eps
        np.multiply(grad, self.lr, out=update)
        update /= denom
        data -= update


class RMSProp(Optimizer):
    """RMSProp (Tieleman & Hinton, 2012)."""

    def __init__(
        self,
        arena: ParameterArena,
        lr: float = 1e-3,
        alpha: float = 0.99,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(arena, lr)
        self.alpha = alpha
        self.eps = eps
        self._avg = np.zeros(arena.size)

    def _step(self, data: np.ndarray, grad: np.ndarray) -> None:
        avg = self._avg
        denom, update = self._scratch_b, self._scratch_a
        avg *= self.alpha
        np.multiply(grad, grad, out=denom)
        denom *= 1.0 - self.alpha
        avg += denom
        np.sqrt(avg, out=denom)
        denom += self.eps
        np.multiply(grad, self.lr, out=update)
        update /= denom
        data -= update
