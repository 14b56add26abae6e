"""Numerical gradient checking for autograd correctness tests.

The library computes in float32 by default (see
:data:`repro.nn.tensor.DEFAULT_DTYPE`), but central differences with
``eps ~ 1e-5`` are meaningless at float32 precision — so :func:`gradcheck`
explicitly opts the checked parameters into float64 for the duration of
the check and restores their original dtype afterwards.  It lives with
the test suite, outside the linted package, so no lint rule has to make
an exception for it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["gradcheck", "numerical_gradient"]


def numerical_gradient(
    fn: Callable[[], Tensor], param: Tensor, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``param``."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        high = fn().item()
        flat[i] = original - eps
        low = fn().item()
        flat[i] = original
        grad_flat[i] = (high - low) / (2.0 * eps)
    return grad


def gradcheck(
    fn: Callable[[], Tensor],
    parameters: Sequence[Tensor],
    eps: float = 1e-5,
    atol: float = 1e-4,
    rtol: float = 1e-3,
    check_dtype: np.dtype | type | None = np.float64,
) -> bool:
    """Compare autograd gradients of ``fn()`` against central differences.

    ``fn`` must be deterministic and return a scalar tensor built from the
    given ``parameters``.  Raises ``AssertionError`` with the offending
    parameter index on mismatch; returns ``True`` otherwise.

    ``check_dtype`` (default float64) temporarily recasts every parameter
    payload so the finite differences are computed at full precision even
    when the library default is float32; pass ``None`` to check at the
    parameters' native precision.
    """
    originals: list[np.ndarray] | None = None
    if check_dtype is not None:
        originals = [p.data for p in parameters]
        for param in parameters:
            param.data = param.data.astype(check_dtype)
    try:
        for param in parameters:
            param.zero_grad()
        loss = fn()
        loss.backward()
        analytic = [
            p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
            for p in parameters
        ]
        for index, param in enumerate(parameters):
            numeric = numerical_gradient(fn, param, eps=eps)
            if not np.allclose(analytic[index], numeric, atol=atol, rtol=rtol):
                worst = np.abs(analytic[index] - numeric).max()
                raise AssertionError(
                    f"gradient mismatch for parameter {index}: "
                    f"max abs diff {worst:.3e}"
                )
    finally:
        if originals is not None:
            for param, original in zip(parameters, originals):
                param.data = original
                param.zero_grad()
    return True
