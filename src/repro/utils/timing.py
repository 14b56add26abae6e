"""Wall-clock timing utilities used by the evaluation harness."""

from __future__ import annotations

import threading
import time

__all__ = ["Stopwatch", "Timer", "format_duration"]


def format_duration(seconds: float) -> str:
    """Render a duration in a human-friendly unit (ns/us/ms/s)."""
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.2f}us"
    return f"{seconds * 1e9:.0f}ns"


class Timer:
    """Context manager measuring elapsed wall-clock time.

    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0
    True
    """

    def __init__(self) -> None:
        self.start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self.start is not None
        self.elapsed = time.perf_counter() - self.start


class Stopwatch:
    """Accumulates time across multiple start/stop windows.

    Used to instrument the lookup fraction of an annotation pipeline the way
    the paper instruments each system's lookup calls.

    Thread-safe: each thread gets its own window (the serving engine's
    per-stage watches are entered by concurrent flushes), and totals
    accumulate under a lock — ``total`` is the *sum* of all windows, so
    overlapping windows from different threads each contribute fully.
    Re-entering from the same thread is still an error.
    """

    def __init__(self, total: float = 0.0, count: int = 0) -> None:
        self.total = total
        self.count = count
        self._lock = threading.Lock()
        self._window = threading.local()

    def __repr__(self) -> str:
        return f"Stopwatch(total={self.total!r}, count={self.count!r})"

    def start(self) -> None:
        """Open this thread's timing window."""
        if getattr(self._window, "started_at", None) is not None:
            raise RuntimeError("stopwatch already running")
        self._window.started_at = time.perf_counter()

    def stop(self) -> float:
        """Close this thread's window; returns and accumulates its duration."""
        started_at = getattr(self._window, "started_at", None)
        if started_at is None:
            raise RuntimeError("stopwatch is not running")
        window = time.perf_counter() - started_at
        self._window.started_at = None
        with self._lock:
            self.total += window
            self.count += 1
        return window

    def add(self, seconds: float) -> None:
        """Accumulate one window the caller timed itself.

        The hot-path form (a serving lookup opens several windows of a
        few microseconds each): two ``perf_counter`` reads at the call
        site and this one lock hold, without the per-thread window state
        ``start`` / ``stop`` keep.
        """
        with self._lock:
            self.total += seconds
            self.count += 1

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def mean(self) -> float:
        """Mean duration per window (0.0 when never run)."""
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        """Zero the accumulated totals (this thread's open window too)."""
        with self._lock:
            self.total = 0.0
            self.count = 0
        self._window.started_at = None
