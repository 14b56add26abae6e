"""Optimisers: SGD with momentum and Adam (the paper trains with Adam)."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Adam", "Optimizer", "SGD"]


class Optimizer:
    """Base optimiser over a fixed list of parameters."""

    def __init__(self, parameters: Iterable[Tensor], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """SGD update with optional momentum and weight decay."""
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            param.data -= self.lr * update


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba) with bias-corrected moment estimates.

    A row (index along axis 0) whose gradient has always been zero has
    ``m = v = 0`` and an update of exactly 0, so :meth:`step` updates only
    the rows that have ever had a nonzero gradient — for a bucket table a
    batch touches a few hundred of its 32 768 rows — with the same
    per-element arithmetic as a dense step.  Weight decay is part of the
    gradient, so with it every row of nonzero weights moves from the first
    step on and the step is the dense one.
    """

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        # Per parameter: the rows that have had a nonzero gradient, or None
        # once every row has.
        self._live: list[np.ndarray | None] = [
            np.zeros(len(p.data), dtype=bool) if p.data.ndim else None
            for p in self.parameters
        ]

    def step(self) -> None:
        """Adam update with bias-corrected first/second moments."""
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for index, (param, m, v) in enumerate(zip(self.parameters, self._m, self._v)):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            live = self._live[index]
            if live is not None:
                live |= grad.reshape(len(grad), -1).any(axis=1)
                if live.all():
                    self._live[index] = live = None
            if live is None:
                self._update(param.data, m, v, grad, bias1, bias2)
                continue
            rows = live.nonzero()[0]
            data, m_rows, v_rows = param.data[rows], m[rows], v[rows]
            self._update(data, m_rows, v_rows, grad[rows], bias1, bias2)
            param.data[rows], m[rows], v[rows] = data, m_rows, v_rows

    def _update(
        self,
        data: np.ndarray,
        m: np.ndarray,
        v: np.ndarray,
        grad: np.ndarray,
        bias1: float,
        bias2: float,
    ) -> None:
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
