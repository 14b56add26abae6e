"""Measurement core of the end-to-end benchmark: windows, loops, statistics.

Nothing here imports ``repro``: the loops drive any object with the
engine's public methods, and the clock and the host probe are
arguments, so ``tests/`` runs the whole module against a fake engine on
a fake clock.

A measured phase is cut into consecutive *windows* of equal operation
count (up to 12).  Every timing statistic is computed per window -- a tail
percentile per group of windows large enough to support it -- and the
median over them is reported, so one host hiccup cannot own a statistic.  A
host-speed probe (:class:`HostProbe`) runs between windows and, in a
closed loop, between calls inside them; a window's compute time is scaled
by ``PROBE_REF_S / probe`` before any statistic is taken, because this
class of host drifts by tens of percent within minutes (README, "Host
drift").  Time spent waiting on the clock (an open-loop request queued
behind ``max_batch_age``) is not compute and is not scaled.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10
#: Samples per window: twice what the median needs (MIN_BEYOND on each side).
MIN_WINDOW = 40
#: The tail percentile every workload reports.
TAIL = 95.0
#: Latency limit of the open-loop workload (completion - due time).
SLO_S = 0.025
#: Probe reading on the quiet host the baseline was taken on.  It only
#: fixes the unit: a host at this speed reports unscaled microseconds.
PROBE_REF_S = 0.00060
#: A closed loop reads the probe between two calls once this much of the
#: clock has passed since the last reading (a reading takes about 1.5 ms).
PROBE_GAP_S = 0.040


class HostProbe:
    """Fixed calibration kernel: a GEMM, a random gather and a short Python loop.

    Sized against what slows the program on this class of host.  Beside
    each candidate kernel the workloads were timed through spells in which
    a neighbour slowed them by 15-55 % (README, "Host drift").  In some
    spells a Python counting loop slowed by only half as much as the
    program and a cache-resident GEMM by three quarters, while 20 000
    random reads from a 16 MiB table kept pace with it; in others the loop
    tracked it best.  The three together stayed within 5-8 % of the
    program in every spell seen.

    One reading is an untimed repetition, which loads the caches so that
    what ran before the reading does not show in it, then the mean of two
    timed ones -- not their minimum: a neighbour that takes the core for a
    share of the time takes the same share of the program's.
    """

    REPEATS = 2

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 64)).astype(np.float32)
        self._b = rng.standard_normal((64, 2048)).astype(np.float32)
        self._table = np.arange(1 << 22, dtype=np.float32)
        self._picks = rng.integers(0, self._table.size, size=20000)
        self._clock = clock

    def _once(self) -> float:
        start = self._clock()
        float((self._a @ self._b).sum())
        float(self._table[self._picks].sum())
        total = 0
        for i in range(6000):
            total += i
        return self._clock() - start

    def __call__(self) -> float:
        self._once()
        return sum(self._once() for _ in range(self.REPEATS)) / self.REPEATS


@dataclass
class Window:
    """What one window of a measured phase recorded."""

    probe_before: float
    probe_after: float = 0.0
    #: Probe readings taken between calls inside the window (closed loops).
    probe_inside: list[float] = field(default_factory=list)
    #: Per completed lookup call/request: seconds waiting on the clock
    #: (due -> service start) and seconds of compute (service start -> done).
    waits: list[float] = field(default_factory=list)
    services: list[float] = field(default_factory=list)
    #: Seconds the driver spent inside the system's public calls.
    busy: float = 0.0
    lookups: int = 0
    phase: str = ""

    @property
    def factor(self) -> float:
        """Scale from this window's compute seconds to reference-host seconds.

        From the median of its readings: the two at its ends and, in a
        closed loop, those spread over it, which see the bursts the calls see.
        """
        readings = [self.probe_before, self.probe_after, *self.probe_inside]
        return PROBE_REF_S / statistics.median(readings)

    def latencies(self, scaled: bool = True) -> np.ndarray:
        """Per-request latency: clock wait plus (scaled) compute time."""
        factor = self.factor if scaled else 1.0
        return np.asarray(self.waits) + np.asarray(self.services) * factor

    def lookups_per_s(self, scaled: bool = True) -> float:
        factor = self.factor if scaled else 1.0
        return self.lookups / (self.busy * factor)


def window_count(samples: int) -> int:
    """Most windows (up to 12) of at least MIN_WINDOW samples each."""
    return max(1, min(12, samples // MIN_WINDOW))


def split_windows(count: int, windows: int) -> list[range]:
    """``count`` op indices as ``windows`` consecutive, near-equal ranges."""
    windows = max(1, min(windows, count))
    edges = [round(i * count / windows) for i in range(windows + 1)]
    return [range(edges[i], edges[i + 1]) for i in range(windows)]


def supports(samples: int, q: float) -> bool:
    """Whether ``samples`` leaves at least MIN_BEYOND of them beyond ``q``."""
    return samples * (1.0 - q / 100.0) >= MIN_BEYOND - 1e-9


def window_median(
    windows: Sequence[Window], stat: Callable[[Window], float]
) -> float:
    """Median over windows of a per-window statistic."""
    return float(statistics.median(stat(w) for w in windows))


def tail_groups(windows: Sequence[Window], q: float) -> list[list[Window]]:
    """Consecutive windows merged until each group supports percentile ``q``.

    A window is sized for the median; a tail percentile needs more samples
    beyond it, so it is taken over groups of neighbouring windows (each
    sample still scaled by its own window's host factor).  A remainder too
    small to stand alone joins the last group; no group at all means the
    run is too short for ``q``.
    """
    groups: list[list[Window]] = []
    current: list[Window] = []
    for window in windows:
        current.append(window)
        if supports(sum(len(w.services) for w in current), q):
            groups.append(current)
            current = []
    if current and groups:
        groups[-1].extend(current)
    return groups


def latency_percentile(
    windows: Sequence[Window], q: float, scaled: bool = True
) -> float:
    """Median over window groups of the ``q``-th latency percentile (seconds).

    NaN when the windows together hold fewer than MIN_BEYOND samples
    beyond ``q``: the percentile is then not supported by the sample.
    """
    groups = tail_groups(windows, q)
    if not groups:
        return float("nan")
    return float(statistics.median(
        float(np.percentile(np.concatenate([w.latencies(scaled) for w in g]), q))
        for g in groups
    ))


def summarize(windows: Sequence[Window]) -> dict[str, float]:
    """The timing statistics every workload reports, scaled and raw."""
    return {
        "lookups_per_s": window_median(windows, Window.lookups_per_s),
        "latency_p50_us": latency_percentile(windows, 50.0) * 1e6,
        "latency_p95_us": latency_percentile(windows, TAIL) * 1e6,
        "raw.lookups_per_s": window_median(
            windows, lambda w: w.lookups_per_s(scaled=False)
        ),
        "raw.latency_p50_us": latency_percentile(windows, 50.0, False) * 1e6,
        "raw.latency_p95_us": latency_percentile(windows, TAIL, False) * 1e6,
        "host.factor_min": min(w.factor for w in windows),
        "host.factor_max": max(w.factor for w in windows),
    }


def slo_share(windows: Sequence[Window], failed: int = 0) -> float:
    """Share of requests completed within SLO_S of their due time (unscaled).

    ``failed`` requests are among the recorded ones and miss the limit.
    """
    total = sum(len(w.services) for w in windows)
    if total == 0:
        return 0.0
    met = sum(int((w.latencies(scaled=False) <= SLO_S).sum()) for w in windows)
    return max(0, met - failed) / total


# -- closed loop -----------------------------------------------------------------


@dataclass
class ClosedResult:
    windows: list[Window]
    #: ``(op index, kind, seconds)`` of every op that is not a lookup.
    others: list[tuple[int, str, float]]
    #: ``(op index, exception)`` of every call that raised.
    errors: list[tuple[int, BaseException]]


def run_closed(
    ops: Sequence,
    execute: Callable[[int, object], int],
    windows: int,
    probe: Callable[[], float],
    clock: Callable[[], float] = time.perf_counter,
) -> ClosedResult:
    """One caller, next call issued when the previous returns.

    ``execute(i, op)`` performs op ``i`` through the system's public API
    and returns how many lookups it completed (0 for a mutation or a
    compaction).  It should only store what the call returned: checking
    results belongs after the loop, outside the timed region.  A call
    that raises is recorded in ``errors`` and the loop goes on.  Between
    two calls, every PROBE_GAP_S of the clock, the probe is read; that
    time is no call's and is not counted.
    """
    out = ClosedResult([], [], [])
    reading = probe()
    read_at = clock()
    for span in split_windows(len(ops), windows):
        window = Window(probe_before=reading)
        for i in span:
            op = ops[i]
            if clock() - read_at >= PROBE_GAP_S:
                window.probe_inside.append(probe())
                read_at = clock()
            start = clock()
            try:
                done = execute(i, op)
            except Exception as exc:  # a raised call is a counted failure
                out.errors.append((i, exc))
                done = 0
            elapsed = clock() - start
            window.busy += elapsed
            if done:
                window.lookups += done
                window.waits.append(0.0)
                window.services.append(elapsed)
            else:
                out.others.append((i, getattr(op, "kind", ""), elapsed))
        reading = probe()
        read_at = clock()
        window.probe_after = reading
        out.windows.append(window)
    return out


# -- open loop -------------------------------------------------------------------


@dataclass
class OpenResult:
    windows: list[Window]
    #: Per arrival, in arrival order.
    handles: list
    late: list[float]
    flush_sizes: list[int]
    depths: list[int]


def run_open(
    engine,
    queries: Sequence[str],
    gaps: Sequence[float],
    phases: Sequence[tuple[str, range]],
    windows_per_phase: Sequence[int],
    k: int,
    max_batch_age: float,
    probe: Callable[[], float],
    clock: Callable[[], float] = time.perf_counter,
    on_action: Callable[[int], None] | None = None,
) -> OpenResult:
    """Arrivals on a schedule, whether or not earlier ones have completed.

    One driving thread: it spins to each due time, calls ``submit()``,
    calls ``flush()`` once the oldest pending entry is older than
    ``max_batch_age``, and stamps a handle's completion when ``done``
    turns true.  ``gaps[i]`` is the seeded gap before arrival ``i``; each
    window re-bases its schedule on the clock after the queue has drained
    and the host probe has run, so the probe never makes an arrival late.
    Latency counts from the *due* time: a stall in the engine delays the
    submits behind it and that delay is theirs.

    ``on_action(arrival index)`` is called before each submit and flush
    (the traced run tags the spans that follow with it).
    """
    out = OpenResult([], [None] * len(queries), [0.0] * len(queries), [], [])
    reading = probe()
    for (phase, span), count in zip(phases, windows_per_phase):
        for sub in split_windows(len(span), count):
            window = Window(probe_before=reading, phase=phase)
            first = span.start + sub.start
            _drive_window(
                engine, queries, gaps, range(first, first + len(sub)), k,
                max_batch_age, clock, on_action, window, out,
            )
            reading = probe()
            window.probe_after = reading
            out.windows.append(window)
    return out


def _drive_window(
    engine, queries, gaps, span, k, max_batch_age, clock, on_action,
    window: Window, out: OpenResult,
) -> None:
    pending: deque[tuple[int, float, float]] = deque()  # arrival, submitted, due
    nxt = span.start

    def stamp(start: float, end: float) -> None:
        """Record every pending arrival whose handle has turned done."""
        resolved = 0
        while pending and out.handles[pending[0][0]].done:
            _, _, due = pending.popleft()
            window.waits.append(max(0.0, start - due))
            window.services.append(end - start)
            window.lookups += 1
            resolved += 1
        if resolved:
            out.flush_sizes.append(resolved)

    next_due = clock() + gaps[nxt] if nxt < span.stop else math.inf
    while nxt < span.stop or pending:
        now = clock()
        if now >= next_due:
            if on_action is not None:
                on_action(nxt)
            out.depths.append(len(pending))
            start = clock()
            out.handles[nxt] = engine.submit(queries[nxt], k)
            end = clock()
            window.busy += end - start
            out.late[nxt] = start - next_due
            pending.append((nxt, start, next_due))
            stamp(start, end)
            nxt += 1
            next_due = next_due + gaps[nxt] if nxt < span.stop else math.inf
        elif pending and now - pending[0][1] >= max_batch_age:
            if on_action is not None:
                on_action(pending[0][0])
            start = clock()
            engine.flush()
            end = clock()
            window.busy += end - start
            stamp(start, end)
        # Otherwise spin: a sleeping core drops its clock, and the first
        # calls (and the host probe) after a nap then read slow.
