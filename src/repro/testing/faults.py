"""Deterministic fault injection for the sharded serving path.

A :class:`FaultPlan` is the object the hardened production hook points
accept: :class:`repro.index.sharded.ShardedIndex` calls ``before(shard)``
on the worker thread just before each shard search (the plan may raise or
sleep there) and ``transform(shard, ids, distances)`` on each shard's
result (the plan may corrupt it).  The plan counts calls per shard, so
faults can be pinned to "the Nth search of shard S" and a bounded retry
shows up as the next call.

Fault-plan grammar (``FaultPlan.parse``)::

    plan   := clause ("," clause)*
    clause := shard ":" call ":" kind [":" arg]
    shard  := "s" INT | "*"          # one shard, or every shard
    call   := "c" INT | "*"          # the Nth call (0-based), or every call
    kind   := "raise" | "delay" | "corrupt" | "drop" | "kill" | "compact"
    arg    := FLOAT                  # delay seconds (default 0.01)

Kinds:

- ``raise``   — raise :class:`FaultInjected` on the matching call(s);
  with a single-call match and the index's default one-retry budget, the
  retry (the next call) succeeds, exercising the retry path.
- ``delay``   — sleep ``arg`` seconds before the search runs, to trip
  ``shard_timeout`` deadlines.
- ``corrupt`` — misassign each candidate the distance of its mirror rank
  (ids kept, distances reversed): shape-correct, but the id/distance
  pairing is wrong, so the merged result diverges from any honest scan —
  exactly what the differential comparators must flag.  (Reversing both
  arrays together would be a no-op: the fan-in merge re-sorts pairs.)
- ``drop``    — raise on the matching call *and every later one*: the
  shard is dead from that point on (retries keep failing).
- ``kill``    — process executor only: terminate the worker *process*
  serving the matching shard just before the request is sent, so the
  index's crash detection sees a dead pipe and must respawn the worker
  (the :meth:`FaultPlan.should_kill` hook).  Under the inline executor
  there is no process to kill and the clause is inert.
- ``compact`` — crash the matching *compaction attempt* at its swap
  point (the :meth:`FaultPlan.on_compaction` hook): the rebuild runs to
  completion, then :class:`FaultInjected` fires just before the atomic
  shard swap would publish.  The index must abort all-or-nothing — the
  old shard set keeps serving bit-identical results and no
  shared-memory segment leaks.  The shard field is ignored (compaction
  is a whole-index operation; write the clause as ``*:cN:compact``);
  the call field selects the Nth compaction attempt.

:class:`QueryPoison` is the analogous hook for
:class:`repro.serving.LookupEngine`: it makes specific (normalized)
query strings raise or stall inside the serving pipeline, which is how
the tests prove one poisoned query fails alone instead of rejecting its
whole micro-batch.  :func:`held_flush` holds an engine mid-flush, which
is the only state in which its ``submit`` queues: the tests build their
batches inside it.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "QueryPoison",
    "held_flush",
]

_KINDS = ("raise", "delay", "corrupt", "drop", "kill", "compact")


class FaultInjected(RuntimeError):
    """The failure a fault plan injects (distinguishable from real bugs)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault clause: *kind* on shard *shard* at call *at_call*.

    ``shard`` / ``at_call`` of ``None`` match every shard / every call.
    ``arg`` is the delay in seconds for ``delay`` faults.
    """

    kind: str
    shard: int | None = None
    at_call: int | None = None
    arg: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.shard is not None and self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if self.at_call is not None and self.at_call < 0:
            raise ValueError(f"at_call must be >= 0, got {self.at_call}")
        if self.arg < 0:
            raise ValueError(f"arg must be >= 0, got {self.arg}")

    def matches(self, shard: int, call: int) -> bool:
        """Whether this clause fires for ``shard``'s ``call``-th search."""
        if self.shard is not None and self.shard != shard:
            return False
        if self.at_call is None:
            return True
        if self.kind == "drop":
            return call >= self.at_call
        return call == self.at_call


class FaultPlan:
    """Thread-safe, call-counting fault injector for ``ShardedIndex``.

    Implements the index's duck-typed hook protocol (``before`` /
    ``transform``).  Counters are per shard; :meth:`calls` exposes them
    and :attr:`fired` counts injected faults, so tests can assert a plan
    actually triggered.
    """

    def __init__(self, specs: Iterable[FaultSpec]):
        self.specs = tuple(specs)
        self._lock = threading.Lock()
        self._calls: dict[int, int] = {}
        self._compactions = 0
        self.fired = 0

    @classmethod
    def parse(cls, plan: str) -> "FaultPlan":
        """Build a plan from the grammar in the module docstring."""
        specs = []
        for clause in plan.split(","):
            clause = clause.strip()
            if not clause:
                continue
            parts = clause.split(":")
            if len(parts) not in (3, 4):
                raise ValueError(
                    f"bad fault clause {clause!r}: want shard:call:kind[:arg]"
                )
            shard_s, call_s, kind = parts[0], parts[1], parts[2]
            if shard_s == "*":
                shard = None
            elif shard_s.startswith("s") and shard_s[1:].isdigit():
                shard = int(shard_s[1:])
            else:
                raise ValueError(f"bad shard {shard_s!r} in {clause!r}")
            if call_s == "*":
                call = None
            elif call_s.startswith("c") and call_s[1:].isdigit():
                call = int(call_s[1:])
            else:
                raise ValueError(f"bad call {call_s!r} in {clause!r}")
            arg = float(parts[3]) if len(parts) == 4 else 0.01
            specs.append(FaultSpec(kind=kind, shard=shard, at_call=call, arg=arg))
        if not specs:
            raise ValueError(f"empty fault plan: {plan!r}")
        return cls(specs)

    def calls(self, shard: int) -> int:
        """How many times ``before`` ran for ``shard``."""
        with self._lock:
            return self._calls.get(shard, 0)

    def reset(self) -> None:
        """Zero every call counter and the fired count."""
        with self._lock:
            self._calls.clear()
            self._compactions = 0
            self.fired = 0

    # -- ShardedIndex hook protocol ---------------------------------------------

    def before(self, shard: int) -> None:
        """Pre-search hook: count the call, then sleep/raise as planned."""
        with self._lock:
            call = self._calls.get(shard, 0)
            self._calls[shard] = call + 1
            # corrupt specs act (and count) in transform(), kill specs in
            # should_kill(), compact specs in on_compaction(), not here.
            matched = [
                s
                for s in self.specs
                if s.kind not in ("corrupt", "kill", "compact")
                and s.matches(shard, call)
            ]
            if matched:
                self.fired += 1
        for spec in matched:
            if spec.kind == "delay":
                time.sleep(spec.arg)
            elif spec.kind in ("raise", "drop"):
                raise FaultInjected(
                    f"injected {spec.kind} on shard {shard} call {call}"
                )

    def should_kill(self, shard: int) -> bool:
        """Worker-kill hook: true when a ``kill`` spec matches this call.

        Consulted by the process executor after :meth:`before` (which
        counted the call), just before the shard request is sent to its
        worker; a ``True`` return makes the pool terminate that worker's
        process, so the request hits a dead pipe and exercises the
        crash-detection → respawn → retry path.
        """
        with self._lock:
            call = max(self._calls.get(shard, 1) - 1, 0)
            matched = any(
                s.kind == "kill" and s.matches(shard, call)
                for s in self.specs
            )
            if matched:
                self.fired += 1
        return matched

    def on_compaction(self, phase: str) -> None:
        """Compaction hook: crash the matching attempt at its swap point.

        The index calls this twice per compaction attempt — once with
        ``phase="build"`` before the live-set rebuild starts (which
        counts the attempt) and once with ``phase="swap"`` after the new
        shards are fully built but *before* the atomic swap publishes
        them.  A ``compact`` spec whose call index matches the attempt
        raises :class:`FaultInjected` at the swap point; the index must
        abort all-or-nothing, leaving the old shard set serving
        bit-identical results.
        """
        with self._lock:
            if phase == "build":
                self._compactions += 1
                return
            call = max(self._compactions - 1, 0)
            matched = [
                s
                for s in self.specs
                if s.kind == "compact" and s.matches(s.shard or 0, call)
            ]
            if matched:
                self.fired += 1
        if matched:
            raise FaultInjected(
                f"injected compaction crash at {phase} (attempt {call})"
            )

    def transform(
        self, shard: int, ids: np.ndarray, distances: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Post-search hook: corrupt the result when a corrupt spec matches."""
        with self._lock:
            call = self._calls.get(shard, 0) - 1
            corrupt = any(
                s.kind == "corrupt" and s.matches(shard, max(call, 0))
                for s in self.specs
            )
            if corrupt:
                self.fired += 1
        if corrupt:
            return ids, distances[:, ::-1].copy()
        return ids, distances


class QueryPoison:
    """Engine-side fault hook: named queries raise or stall when served.

    ``LookupEngine`` invokes the hook with the normalized query list of
    every serve attempt (batched or isolated single-query retry); if any
    poisoned query is present the hook sleeps ``delay`` seconds and, for
    ``kind="raise"``, raises :class:`FaultInjected`.  Because the engine
    retries a failed batch query-by-query, only the poisoned handles see
    the error.
    """

    def __init__(
        self,
        queries: Iterable[str],
        kind: str = "raise",
        delay: float = 0.0,
    ):
        if kind not in ("raise", "delay"):
            raise ValueError(f"kind must be 'raise' or 'delay', got {kind!r}")
        self.queries = frozenset(queries)
        self.kind = kind
        self.delay = delay
        self._lock = threading.Lock()
        self.fired = 0

    def __call__(self, normalized: list[str]) -> None:
        hit = sorted(self.queries.intersection(normalized))
        if not hit:
            return
        with self._lock:
            self.fired += 1
        if self.delay:
            time.sleep(self.delay)
        if self.kind == "raise":
            raise FaultInjected(f"poisoned query served: {hit[0]!r}")


#: Each gate query is new to the engine's result cache, so it reaches the hook.
_GATE_IDS = itertools.count()
#: Longest any step of :func:`held_flush` waits before it gives up.
_GATE_TIMEOUT = 10.0


@contextmanager
def held_flush(engine) -> Iterator[None]:
    """Keep ``engine`` mid-flush for the length of the block.

    A helper thread submits a gate query to the (idle) engine and parks
    inside the engine's ``fault_hook`` while serving it, so every
    ``submit`` made inside the block finds a flush in flight and queues.
    Leaving the block releases the helper; its drain serves what the
    block queued as one batch, and the block's exit returns once the
    helper has finished.  The engine's own ``fault_hook`` keeps running
    behind the gate and is restored on exit.
    """
    parked, release = threading.Event(), threading.Event()
    inner = engine.fault_hook

    def gate_hook(normalized: list[str]) -> None:
        if threading.current_thread() is gate and not release.is_set():
            parked.set()
            release.wait(_GATE_TIMEOUT)
        if inner is not None:
            inner(normalized)

    gate = threading.Thread(
        target=engine.submit,
        args=(f"held flush gate {next(_GATE_IDS)}",),
        daemon=True,
    )
    engine.fault_hook = gate_hook
    gate.start()
    try:
        if not parked.wait(_GATE_TIMEOUT):
            raise RuntimeError(
                "held_flush: the gate query was not served (engine not idle?)"
            )
        yield
    finally:
        release.set()
        gate.join(_GATE_TIMEOUT)
        engine.fault_hook = inner
    if gate.is_alive():
        raise RuntimeError("held_flush: the gate thread did not finish")
