"""Per-parameter loop kernels of the optimizers.

Every optimizer in :mod:`repro.nn.optim` steps a ``ParameterArena`` with
fused in-place vector ops over its flat buffers.  The classes here take
the same constructor arguments but a plain parameter list, and update one
parameter at a time with the *same elementwise operation sequence*, so an
arena and an unpacked copy of it must follow bitwise identical
trajectories.  Over packed parameters they update the arena in place
through the ``.data`` views, which makes them the loop reference for a
trainer too.  Parameters whose ``grad`` is ``None`` are skipped (a packed
parameter always holds a zero-filled view).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.nn import Adam, AdaGrad, Parameter, RMSProp, SGD


def unpacked_copy(parameters) -> list[Parameter]:
    """Standalone parameters holding copies of the given values."""
    return [Parameter(param.data.copy()) for param in parameters]


class LoopOptimizer:
    """Base of the loop kernels: a parameter list, ``lr`` and a step count."""

    def __init__(self, parameters, lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = lr
        self.step_count = 0

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        self._step()


class LoopSGD(LoopOptimizer):
    def __init__(self, parameters, lr, momentum=0.0, weight_decay=0.0) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
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


class LoopAdam(LoopOptimizer):
    def __init__(
        self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def _step(self) -> None:
        # The same folded bias correction as the arena kernel.
        t = self.step_count
        bias2_sqrt = math.sqrt(1.0 - self.beta2**t)
        alpha_t = self.lr * bias2_sqrt / (1.0 - self.beta1**t)
        eps_t = self.eps * bias2_sqrt
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


class LoopAdaGrad(LoopOptimizer):
    def __init__(self, parameters, lr=1e-2, eps=1e-10) -> None:
        super().__init__(parameters, lr)
        self.eps = eps
        self._accumulator = [np.zeros_like(p.data) for p in self.parameters]

    def _step(self) -> None:
        for param, acc in zip(self.parameters, self._accumulator):
            if param.grad is None:
                continue
            acc += param.grad * param.grad
            param.data -= self.lr * param.grad / (np.sqrt(acc) + self.eps)


class LoopRMSProp(LoopOptimizer):
    def __init__(self, parameters, lr=1e-3, alpha=0.99, eps=1e-8) -> None:
        super().__init__(parameters, lr)
        self.alpha = alpha
        self.eps = eps
        self._avg = [np.zeros_like(p.data) for p in self.parameters]

    def _step(self) -> None:
        for param, avg in zip(self.parameters, self._avg):
            if param.grad is None:
                continue
            avg *= self.alpha
            avg += (1.0 - self.alpha) * (param.grad * param.grad)
            param.data -= self.lr * param.grad / (np.sqrt(avg) + self.eps)


#: production optimizer class → its loop reference (same constructor kwargs)
LOOP_KERNELS = {SGD: LoopSGD, Adam: LoopAdam, AdaGrad: LoopAdaGrad, RMSProp: LoopRMSProp}

#: ``MTLTrainer(optimizer=...)`` names → loop reference factories taking
#: ``(parameters, lr=...)``, mirroring ``repro.training.trainer._make_optimizer``
TRAINER_OPTIMIZERS = {
    "adam": LoopAdam,
    "sgd": LoopSGD,
    "sgdm": functools.partial(LoopSGD, momentum=0.9),
    "adagrad": LoopAdaGrad,
    "rmsprop": LoopRMSProp,
}
