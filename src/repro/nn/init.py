"""Weight initialisers (Glorot/Xavier and He/Kaiming schemes).

All initialisers return :data:`repro.nn.tensor.DEFAULT_DTYPE` (float32)
arrays by default; pass ``dtype=np.float64`` explicitly for gradient
checking (see ``tests/support/gradcheck.py``).
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import DEFAULT_DTYPE

__all__ = ["kaiming_uniform", "xavier_uniform", "zeros"]


def xavier_uniform(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    fan_in: int | None = None,
    fan_out: int | None = None,
    dtype: np.dtype | type = DEFAULT_DTYPE,
) -> np.ndarray:
    """Glorot uniform initialisation: U(-a, a), a = sqrt(6 / (fan_in + fan_out))."""
    fan_in = fan_in if fan_in is not None else _default_fan(shape, "in")
    fan_out = fan_out if fan_out is not None else _default_fan(shape, "out")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype, copy=False)


def kaiming_uniform(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    fan_in: int | None = None,
    dtype: np.dtype | type = DEFAULT_DTYPE,
) -> np.ndarray:
    """He uniform initialisation for ReLU networks: U(-a, a), a = sqrt(6 / fan_in)."""
    fan_in = fan_in if fan_in is not None else _default_fan(shape, "in")
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype, copy=False)


def zeros(
    shape: tuple[int, ...], dtype: np.dtype | type = DEFAULT_DTYPE
) -> np.ndarray:
    """All-zero array (bias initialiser); float32 unless overridden."""
    return np.zeros(shape, dtype=dtype)


def _default_fan(shape: tuple[int, ...], which: str) -> int:
    if len(shape) == 1:
        return shape[0]
    if len(shape) == 2:
        fan_in, fan_out = shape[1], shape[0]
    else:
        receptive = int(np.prod(shape[2:]))
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    return fan_in if which == "in" else fan_out
