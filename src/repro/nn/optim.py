"""First-order optimizers: SGD (with momentum), Adam, AdaGrad, RMSProp.

These are the optimizers the paper compares against for convergence-rate
purposes (§IV-C, Corollary 1).  All updates run under ``no_grad`` and mutate
parameter data in place.

Note the separation of concerns in this reproduction: gradient *balancers*
(MoCoGrad, PCGrad, …) combine per-task gradients into one joint gradient,
which the trainer writes into ``param.grad``; the optimizer then consumes
``param.grad`` exactly as in single-task training.

Kernels
-------
Each optimizer selects its kernel from its parameters.  For parameters
packed into a :class:`~repro.nn.arena.ParameterArena` (or any contiguous
arena segment) the **flat** kernel keeps optimizer state (``velocity``,
``m``, ``v``, accumulators) in single ``(d,)`` arrays and runs a handful
of fused in-place vector ops over the arena's flat buffers, with two
preallocated ``(d,)`` scratch buffers — zero d-length allocations per
step.  Plain parameter lists run the per-parameter **loop** kernel.  Both
execute the *same elementwise operation sequence*, so an arena and an
unpacked copy of it follow bitwise identical trajectories.  One
difference: the loop kernel skips parameters whose ``grad`` is ``None``
(packed parameters always hold a zero-filled arena view).

Adam's bias correction is folded into scalar coefficients
(``alpha_t = lr·sqrt(1−β₂ᵗ)/(1−β₁ᵗ)``, ``eps_t = eps·sqrt(1−β₂ᵗ)``) on both
paths, eliminating the ``m_hat``/``v_hat`` d-length temporaries of the
textbook form while staying within 1e-12 of it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .arena import ParameterArena, packed_segment
from .module import Parameter
from .tensor import no_grad

__all__ = ["Optimizer", "SGD", "Adam", "AdaGrad", "RMSProp"]


class Optimizer:
    """Base optimizer over an explicit parameter list or a parameter arena.

    Parameters
    ----------
    parameters:
        Either a sequence of :class:`~repro.nn.module.Parameter` or a
        :class:`~repro.nn.arena.ParameterArena`.  A sequence whose members
        form a contiguous arena segment is treated like the arena itself.
    lr:
        Learning rate (must be positive).
    """

    def __init__(
        self, parameters: Sequence[Parameter] | ParameterArena, lr: float
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if isinstance(parameters, ParameterArena):
            self.arena: ParameterArena | None = parameters
            self.parameters = list(parameters.parameters)
            segment = (parameters, slice(0, parameters.size))
        else:
            self.parameters = list(parameters)
            segment = packed_segment(self.parameters)
            self.arena = segment[0] if segment is not None else None
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        #: True when the parameters form one contiguous arena segment and
        #: the fused flat kernel runs; False for the per-parameter loop.
        self.flat = segment is not None
        if self.flat:
            arena, sl = segment
            # Contiguous flat views over the managed parameters: the operand
            # buffers of _step_flat and of the one-fill zero_grad.
            self._flat_data: np.ndarray | None = arena.data[sl]
            self._flat_grad: np.ndarray | None = arena.grad[sl]
            dim = self._flat_data.size
            # Two (d,) scratch buffers shared by every flat kernel; after
            # this warm allocation _step_flat never allocates a d-length
            # temporary (asserted by benchmarks/bench_optim.py's probe).
            self._scratch_a = np.empty(dim)
            self._scratch_b = np.empty(dim)
        else:
            self._flat_data = None
            self._flat_grad = None
        self.lr = lr
        self.step_count = 0

    def zero_grad(self) -> None:
        """Clear the gradients of every managed parameter.

        On the arena path this is a single ``fill(0.0)`` over the flat grad
        buffer; otherwise the per-parameter loop.
        """
        if self.flat:
            self._flat_grad.fill(0.0)
        else:
            for param in self.parameters:
                param.zero_grad()

    def step(self) -> None:
        """Apply one update using the parameters' current gradients."""
        self.step_count += 1
        with no_grad():
            if self.flat:
                self._step_flat()
            else:
                self._step()

    def _step(self) -> None:
        raise NotImplementedError

    def _step_flat(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _flat_effective_grad(self, weight_decay: float) -> np.ndarray:
        """The flat gradient with weight decay applied allocation-free.

        Returns the arena grad view directly when ``weight_decay`` is zero;
        otherwise materializes ``wd·data + grad`` into scratch ``a`` (the
        same elementwise sum the loop kernel computes) and returns it.
        """
        if not weight_decay:
            return self._flat_grad
        np.multiply(self._flat_data, weight_decay, out=self._scratch_a)
        self._scratch_a += self._flat_grad
        return self._scratch_a


class SGD(Optimizer):
    """Stochastic gradient descent with optional heavy-ball momentum."""

    def __init__(
        self,
        parameters: Sequence[Parameter] | ParameterArena,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        if self.flat:
            self._velocity_flat = np.zeros(self._flat_data.size) if momentum else None
        else:
            self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def _step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad

    def _step_flat(self) -> None:
        grad = self._flat_effective_grad(self.weight_decay)
        if self.momentum:
            velocity = self._velocity_flat
            velocity *= self.momentum
            velocity += grad
            grad = velocity
        np.multiply(grad, self.lr, out=self._scratch_b)
        self._flat_data -= self._scratch_b


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction folded into scalars."""

    def __init__(
        self,
        parameters: Sequence[Parameter] | ParameterArena,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        if self.flat:
            dim = self._flat_data.size
            self._m_flat = np.zeros(dim)
            self._v_flat = np.zeros(dim)
        else:
            self._m = [np.zeros_like(p.data) for p in self.parameters]
            self._v = [np.zeros_like(p.data) for p in self.parameters]

    def _bias_corrected_scalars(self) -> tuple[float, float]:
        """Fold both bias corrections into ``(alpha_t, eps_t)``.

        ``lr·m̂/(√v̂+eps)`` with ``m̂ = m/(1−β₁ᵗ)``, ``v̂ = v/(1−β₂ᵗ)`` equals
        ``alpha_t·m/(√v+eps_t)`` for ``alpha_t = lr·√(1−β₂ᵗ)/(1−β₁ᵗ)`` and
        ``eps_t = eps·√(1−β₂ᵗ)`` — no d-length ``m_hat``/``v_hat``
        temporaries on either path.
        """
        t = self.step_count
        bias2_sqrt = math.sqrt(1.0 - self.beta2**t)
        alpha_t = self.lr * bias2_sqrt / (1.0 - self.beta1**t)
        eps_t = self.eps * bias2_sqrt
        return alpha_t, eps_t

    def _step(self) -> None:
        alpha_t, eps_t = self._bias_corrected_scalars()
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (grad * grad)
            param.data -= alpha_t * m / (np.sqrt(v) + eps_t)

    def _step_flat(self) -> None:
        alpha_t, eps_t = self._bias_corrected_scalars()
        grad = self._flat_effective_grad(self.weight_decay)
        m, v = self._m_flat, self._v_flat
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
        self._flat_data -= update


class AdaGrad(Optimizer):
    """AdaGrad (Duchi et al., 2011)."""

    def __init__(
        self,
        parameters: Sequence[Parameter] | ParameterArena,
        lr: float = 1e-2,
        eps: float = 1e-10,
    ) -> None:
        super().__init__(parameters, lr)
        self.eps = eps
        if self.flat:
            self._accumulator_flat = np.zeros(self._flat_data.size)
        else:
            self._accumulator = [np.zeros_like(p.data) for p in self.parameters]

    def _step(self) -> None:
        for param, acc in zip(self.parameters, self._accumulator):
            if param.grad is None:
                continue
            acc += param.grad * param.grad
            param.data -= self.lr * param.grad / (np.sqrt(acc) + self.eps)

    def _step_flat(self) -> None:
        grad = self._flat_grad
        acc = self._accumulator_flat
        denom, update = self._scratch_b, self._scratch_a
        np.multiply(grad, grad, out=denom)
        acc += denom
        np.sqrt(acc, out=denom)
        denom += self.eps
        np.multiply(grad, self.lr, out=update)
        update /= denom
        self._flat_data -= update


class RMSProp(Optimizer):
    """RMSProp (Tieleman & Hinton, 2012)."""

    def __init__(
        self,
        parameters: Sequence[Parameter] | ParameterArena,
        lr: float = 1e-3,
        alpha: float = 0.99,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, lr)
        self.alpha = alpha
        self.eps = eps
        if self.flat:
            self._avg_flat = np.zeros(self._flat_data.size)
        else:
            self._avg = [np.zeros_like(p.data) for p in self.parameters]

    def _step(self) -> None:
        for param, avg in zip(self.parameters, self._avg):
            if param.grad is None:
                continue
            avg *= self.alpha
            avg += (1.0 - self.alpha) * (param.grad * param.grad)
            param.data -= self.lr * param.grad / (np.sqrt(avg) + self.eps)

    def _step_flat(self) -> None:
        grad = self._flat_grad
        avg = self._avg_flat
        denom, update = self._scratch_b, self._scratch_a
        avg *= self.alpha
        np.multiply(grad, grad, out=denom)
        denom *= 1.0 - self.alpha
        avg += denom
        np.sqrt(avg, out=denom)
        denom += self.eps
        np.multiply(grad, self.lr, out=update)
        update /= denom
        self._flat_data -= update
