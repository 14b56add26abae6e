"""LRU query cache for the serving path (embeddings and, optionally, results).

Real entity-lookup traffic is heavily skewed — a handful of popular
surface forms ("usa", "germany", "google") dominate the stream — so an
LRU over *normalized* query strings converts the embedding tower's matmul
(and optionally the whole k-NN search) into a dict hit for the head of the
distribution.  Hit/miss/eviction counters are first-class so the serving
benchmarks can plot hit-rate curves against cache capacity.

Keys are strings normalized by the shared :func:`repro.lookup.normalize`
helper (the same function the exact-hit
:class:`~repro.lookup.router.LabelHashTable` keys on), so "Germany " and
"germany" share an entry and a cache key can never diverge from an
exact-hit key.  The single-key methods (``get_result``, ``put_embedding``,
...) normalize what they are given.  The batch methods the serving path
calls (``get_results`` / ``put_results`` / ``get_embeddings`` /
``read_through``) take a list their caller has *already* normalized --
the engine normalizes once per lookup -- and use those strings as keys as
given, under one hold of the lock per call.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.lookup.normalize import normalize
from repro.utils.contracts import array_contract

__all__ = ["CacheStats", "QueryCache"]


class CacheStats:
    """Mutable hit/miss/eviction counters shared by one cache's stores."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def requests(self) -> int:
        """Total gets served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of gets served from cache (0.0 when never queried)."""
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict[str, float]:
        """Counter snapshot for benchmark JSON."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class _LRUStore:
    """Bounded ``OrderedDict`` with move-to-end on hit, shared counters."""

    def __init__(self, capacity: int, stats: CacheStats) -> None:
        self.capacity = capacity
        self.stats = stats
        self._entries: OrderedDict[Any, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any) -> Any | None:
        entry = self._entries.get(key)
        if entry is None:
            # Counter updates run under the owning QueryCache._lock —
            # every public caller takes it before reaching the store.
            self.stats.misses += 1  # guarded by QueryCache._lock
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1  # guarded by QueryCache._lock
        return entry

    def put(self, key: Any, value: Any) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1  # guarded by QueryCache._lock

    def clear(self) -> None:
        self._entries.clear()


class QueryCache:
    """LRU cache keyed by normalized query strings.

    Two stores share one capacity budget *each* and one counter block:

    - the **embedding store** maps a query to its embedding vector,
      short-circuiting the model's forward pass;
    - the optional **result store** maps ``(query, k)`` to the final
      candidate list, short-circuiting the index scan as well.  Result
      keys carry a *generation* counter: :meth:`bump_generation` (called
      by the serving engine at the end of every index mutation) makes
      every previously stored result unreachable in O(1), so a cached
      hit can never resurrect a removed entity; stale-generation entries
      age out of the LRU naturally.  A caller that pinned a generation
      before computing an answer passes it back as ``generation=`` so
      the answer is filed under the state it was computed from, not
      under whatever is current by the time it is stored.  The embedding
      store survives mutations — an embedding depends only on the model,
      not on the entity set.

    All methods are thread-safe; the serving engine calls into one cache
    from every thread that serves a batch, concurrently.

    Parameters
    ----------
    capacity:
        Max entries per store (must be positive).
    cache_results:
        Also cache final candidate lists keyed by ``(query, k)``.
    """

    #: The one normalization function cache keys pass through — shared
    #: with the exact/label-hash tier via :mod:`repro.lookup.normalize`.
    _normalize = staticmethod(normalize)

    def __init__(self, capacity: int, cache_results: bool = False) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._embeddings = _LRUStore(capacity, self.stats)
        self._results = _LRUStore(capacity, self.stats) if cache_results else None
        self._generation = 0

    @property
    def caches_results(self) -> bool:
        """Whether the result store is enabled."""
        return self._results is not None

    @property
    def generation(self) -> int:
        """The result store's current generation (bumped per mutation)."""
        with self._lock:
            return self._generation

    def bump_generation(self) -> int:
        """Invalidate every cached *result* (not embeddings) in O(1).

        Result keys embed the generation, so bumping it strands all
        entries written under older generations; the LRU evicts them as
        fresh traffic arrives.  Call after any index mutation.  Returns
        the new generation.
        """
        with self._lock:
            self._generation += 1
            return self._generation

    # -- embedding store --------------------------------------------------------

    @array_contract("query: str -> any")
    def get_embedding(self, query: str) -> np.ndarray | None:
        """Cached embedding for ``query`` or ``None`` (counts hit/miss).

        The returned array is the cached storage itself, marked
        read-only — mutating callers must copy.
        """
        with self._lock:
            return self._embeddings.get(self._normalize(query))

    @array_contract("query: str, vector: (d,) num::any -> None")
    def put_embedding(self, query: str, vector: np.ndarray) -> None:
        """Store ``query``'s embedding (copied and frozen read-only)."""
        entry = np.array(vector, copy=True)
        entry.flags.writeable = False
        with self._lock:
            self._embeddings.put(self._normalize(query), entry)

    @array_contract("normalized: any, embed_fn: callable -> (n, d) f32::any")
    def get_embeddings(
        self,
        normalized: list[str],
        embed_fn: Callable[[list[str]], np.ndarray],
    ) -> np.ndarray:
        """Memoized batch embedding: probe, embed only the misses, fill.

        ``normalized`` strings are the keys, taken as given (one lock
        hold for the probe, one for the fill).  ``embed_fn`` receives the
        miss queries (in input order) and must return one vector row per
        query; it runs *outside* the cache lock, so other threads keep
        hitting the cache while a model forward pass is in flight.  This
        is the shared serving-path helper used by the engine and the
        embedder services.
        """
        get = self._embeddings.get
        with self._lock:
            vectors = [get(q) for q in normalized]
        miss_positions = [i for i, v in enumerate(vectors) if v is None]
        if miss_positions:
            fresh = embed_fn([normalized[i] for i in miss_positions])
            entries = []
            for row, i in enumerate(miss_positions):
                entry = vectors[i] = fresh[row].copy()
                entry.flags.writeable = False
                entries.append((normalized[i], entry))
            put = self._embeddings.put
            with self._lock:
                for key, entry in entries:
                    put(key, entry)
            if len(miss_positions) == len(normalized):
                return fresh  # nothing cached to interleave (a lone miss)
        return np.stack(vectors)

    # -- result store -----------------------------------------------------------

    def get_result(
        self,
        query: str,
        k: int,
        scope: str | None = None,
        generation: int | None = None,
    ) -> list | None:
        """Cached candidate list for ``(query, k, scope)`` or ``None``.

        ``scope`` isolates result namespaces that answer differently for
        the same query — the serving engine passes the active
        ``type_filter`` so a type-constrained answer can never be served
        to (or poisoned by) an unconstrained lookup.  ``generation``
        (default: the current one) is the generation the caller pinned.
        """
        if self._results is None:
            return None
        with self._lock:
            if generation is None:
                generation = self._generation
            cached = self._results.get(
                (self._normalize(query), k, scope, generation)
            )
            return list(cached) if cached is not None else None

    def put_result(
        self,
        query: str,
        k: int,
        candidates: list,
        scope: str | None = None,
        generation: int | None = None,
    ) -> None:
        """Store a candidate list for ``(query, k, scope)`` (no-op when disabled).

        Pass the ``generation`` pinned *before* the answer was computed:
        stored under an older generation it is simply unreachable, stored
        under the current one it would outlive the mutation it missed.
        """
        if self._results is None:
            return
        with self._lock:
            if generation is None:
                generation = self._generation
            self._results.put(
                (self._normalize(query), k, scope, generation),
                list(candidates),
            )

    def get_results(
        self,
        normalized: list[str],
        k: int,
        scope: str | None = None,
        generation: int | None = None,
    ) -> list[list | None]:
        """Batch :meth:`get_result`: one slot per query, ``None`` on miss.

        ``normalized`` strings are the keys, taken as given, and the
        whole probe is one hold of the lock.  When the result store is
        disabled this is all-``None`` without touching the counters, so
        callers can use it unconditionally.
        """
        if self._results is None:
            return [None] * len(normalized)
        get = self._results.get
        out: list[list | None] = []
        with self._lock:
            if generation is None:
                generation = self._generation
            for query in normalized:
                cached = get((query, k, scope, generation))
                out.append(list(cached) if cached is not None else None)
        return out

    def put_results(
        self,
        normalized: list[str],
        k: int,
        rows: list[list],
        scope: str | None = None,
        generation: int | None = None,
    ) -> None:
        """Batch :meth:`put_result` (no-op when the result store is disabled).

        ``normalized`` strings are the keys, taken as given; one hold of
        the lock for the whole fill.
        """
        if self._results is None:
            return
        put = self._results.put
        with self._lock:
            if generation is None:
                generation = self._generation
            for query, row in zip(normalized, rows):
                put((query, k, scope, generation), list(row))

    def read_through(
        self,
        normalized: list[str],
        k: int,
        serve: Callable[[list[str]], list[list]],
        scope: str | None = None,
        generation: int | None = None,
    ) -> list[list]:
        """Memoized batch lookup: probe, ``serve`` only the misses, fill.

        ``serve`` receives the miss queries (in input order) and returns
        one candidate list per query; it runs outside the cache lock.
        Probe and fill use the same ``scope`` / ``generation``, so a
        caller that pinned a generation files the answer under the state
        it was computed from (see :meth:`put_result`).  With the result
        store disabled this is ``serve(normalized)``.
        """
        out = self.get_results(normalized, k, scope, generation)
        miss_positions = [i for i, row in enumerate(out) if row is None]
        if miss_positions:
            misses = [normalized[i] for i in miss_positions]
            fresh = serve(misses)
            for i, row in zip(miss_positions, fresh):
                out[i] = row
            self.put_results(misses, k, fresh, scope, generation)
        return out

    # -- maintenance ------------------------------------------------------------

    def __len__(self) -> int:
        """Total live entries across both stores."""
        with self._lock:
            return len(self._embeddings) + (
                len(self._results) if self._results is not None else 0
            )

    def clear(self) -> None:
        """Drop every entry; invalidate after the index changes."""
        with self._lock:
            self._embeddings.clear()
            if self._results is not None:
                self._results.clear()

    def stats_dict(self) -> dict[str, float]:
        """Counter snapshot (hits/misses/evictions/hit_rate) for benches.

        Taken under the cache lock so the four numbers are mutually
        consistent even while other threads are hitting the stores.
        """
        with self._lock:
            return self.stats.as_dict()
