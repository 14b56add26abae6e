"""Shared utilities: seeded randomness and timing."""

from repro.utils.rng import RngMixin, as_rng, derive_rng, new_rng
from repro.utils.timing import Stopwatch, Timer, format_duration

__all__ = [
    "RngMixin",
    "Stopwatch",
    "Timer",
    "as_rng",
    "derive_rng",
    "format_duration",
    "new_rng",
]
