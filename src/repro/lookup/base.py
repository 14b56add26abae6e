"""Common lookup-service interface (paper Section II, "Lookup Operation").

``lookup(q, k)`` returns up to ``k`` candidate entities ordered by
decreasing relevance ``score``.  Every service tracks the wall-clock time it
spends answering queries in ``query_time`` plus any *simulated* latency
(remote services) in ``simulated_latency`` — the evaluation harness sums
both, matching the paper's instrumentation of each system's lookup calls.
"""

from __future__ import annotations

import time
from typing import NamedTuple
from collections.abc import Sequence

from repro.kg.graph import KnowledgeGraph
from repro.utils.timing import Stopwatch

__all__ = ["Candidate", "LookupService"]


class Candidate(NamedTuple):
    """A candidate entity with a relevance score (higher is better)."""

    entity_id: str
    score: float


class LookupService:
    """Base class for lookup services.

    Subclasses implement :meth:`_lookup_batch`; the public methods add
    timing instrumentation and argument validation.
    """

    #: Human-readable service name used in benchmark tables.
    name: str = "abstract"

    def __init__(self) -> None:
        self.query_time = Stopwatch()
        self.simulated_latency: float = 0.0

    # -- public API ------------------------------------------------------------

    def lookup(
        self, query: str, k: int = 10, type_filter: str | None = None
    ) -> list[Candidate]:
        """Top-``k`` candidates for one query."""
        return self.lookup_batch([query], k, type_filter=type_filter)[0]

    def lookup_batch(
        self,
        queries: Sequence[str],
        k: int = 10,
        type_filter: str | None = None,
    ) -> list[list[Candidate]]:
        """Bulk lookup, one candidate list per query (instrumented).

        ``type_filter`` restricts candidates to entities of the given
        type id (subtypes included); only services whose
        :attr:`supports_type_filter` is True implement it — the router
        and the serving engine — and others raise ``NotImplementedError``
        rather than silently returning unfiltered answers.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not queries:
            return []
        # Timed by hand: a serving lookup can be a few microseconds, and
        # a ``with`` window costs one of them.
        start = time.perf_counter()
        try:
            if type_filter is None:
                return self._lookup_batch(list(queries), k)
            return self._lookup_batch_typed(list(queries), k, type_filter)
        finally:
            self.query_time.add(time.perf_counter() - start)

    @property
    def supports_type_filter(self) -> bool:
        """Whether this service implements ``type_filter`` lookups."""
        return (
            type(self)._lookup_batch_typed
            is not LookupService._lookup_batch_typed
        )

    @property
    def total_lookup_seconds(self) -> float:
        """Measured wall-clock plus simulated (remote) latency."""
        return self.query_time.total + self.simulated_latency

    def reset_timers(self) -> None:
        """Zero the measured query time and simulated latency."""
        self.query_time.reset()
        self.simulated_latency = 0.0

    def index_bytes(self) -> int:
        """Approximate index storage (0 when a service keeps no index)."""
        return 0

    # -- subclass hooks ----------------------------------------------------------

    def _lookup_batch(
        self, queries: list[str], k: int
    ) -> list[list[Candidate]]:
        raise NotImplementedError

    def _lookup_batch_typed(
        self, queries: list[str], k: int, type_filter: str
    ) -> list[list[Candidate]]:
        """Type-constrained variant; override to support ``type_filter``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support type_filter"
        )

    @classmethod
    def build(cls, kg: KnowledgeGraph, **kwargs) -> "LookupService":
        """Construct and index a service over ``kg``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
