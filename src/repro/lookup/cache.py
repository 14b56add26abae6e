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

import math
import threading
from array import array
from collections import OrderedDict
from collections.abc import Callable, Collection, Sequence
from typing import Any

import numpy as np

from repro.lookup.normalize import normalize

__all__ = ["UNFILED", "CacheStats", "QueryCache"]

#: The ``evidence`` entry of an answer :meth:`QueryCache.put_results` must
#: not store: a degraded one (a sharded search that lost a shard), which
#: the next lookup of its query should compute afresh.
UNFILED = object()


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

    def put(self, key: Any, value: Any) -> tuple[Any, Any] | None:
        """Store ``value`` as the most recent entry.  Returns the
        ``(key, value)`` this displaced — the entry ``key`` held before,
        or the least recent one when the store overflowed — or ``None``."""
        entries = self._entries
        old = entries.pop(key, None)
        entries[key] = value
        if old is not None:
            return key, old
        if len(entries) > self.capacity:
            self.stats.evictions += 1  # guarded by QueryCache._lock
            return entries.popitem(last=False)
        return None

    def pop(self, key: Any) -> Any | None:
        """Remove ``key`` (not an eviction); its value, or ``None``."""
        return self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()


class _Scored:
    """The scored answers of one tier, in parallel columns: answer ``i``
    is ``keys[i]``, filed with ``evidence[i]``, and a row that scores
    ``bars[i]`` or more against it strands it.  A write judges the tier
    in one batch over these columns (``bars`` is an ``array`` of doubles:
    one contiguous read, not one object per answer); an answer leaves by
    the last one taking its slot.

    ``gates[i]`` is ``None`` or a token set only a row sharing one of its
    tokens can enter answer ``i`` through (a q-gram answer: the grams of
    its query — a row sharing none is never offered).  ``sharing`` lists
    the gated keys under each of their tokens and ``open`` holds the
    ungated ones, so a write is judged against the answers it can reach,
    not against all of them."""

    __slots__ = (
        "slots", "keys", "evidence", "bars", "gates", "sharing", "open"
    )

    def __init__(self) -> None:
        self.slots: dict[tuple, int] = {}
        self.keys: list[tuple] = []
        self.evidence: list = []
        self.bars = array("d")
        self.gates: list[frozenset[str] | None] = []
        self.sharing: dict[str, set[tuple]] = {}
        self.open: set[tuple] = set()

    def add(
        self,
        key: tuple,
        evidence: Any,
        bar: float,
        gate: frozenset[str] | None,
    ) -> None:
        self.slots[key] = len(self.keys)
        self.keys.append(key)
        self.evidence.append(evidence)
        self.bars.append(bar)
        self.gates.append(gate)
        if gate is None:
            self.open.add(key)
            return
        sharing = self.sharing
        for token in gate:
            keys = sharing.get(token)
            if keys is None:
                sharing[token] = {key}
            else:
                keys.add(key)

    def discard(self, key: tuple) -> None:
        slot = self.slots.pop(key)
        gate = self.gates[slot]
        if gate is None:
            self.open.discard(key)
        else:
            for token in gate:
                keys = self.sharing[token]
                keys.discard(key)
                if not keys:
                    del self.sharing[token]
        columns = (self.keys, self.evidence, self.bars, self.gates)
        last = [column.pop() for column in columns]
        if slot < len(self.keys):
            for column, value in zip(columns, last):
                column[slot] = value
            self.slots[last[0]] = slot

    def reachable(self, tokens: Collection[str] | None) -> Sequence[int]:
        """Slots of the answers a row holding one of ``tokens`` can enter:
        the ungated ones and the gated ones sharing a token (every answer
        when ``tokens`` is ``None``)."""
        if tokens is None or len(self.open) == len(self.keys):
            return range(len(self.keys))
        keys = set(self.open)
        sharing = self.sharing
        for token in tokens:
            keys.update(sharing.get(token, ()))
        slots = self.slots
        return [slots[key] for key in keys]

    def reached(
        self, slots: Sequence[int], scores: Sequence[float]
    ) -> list[tuple]:
        """Keys of the answers at ``slots`` a row with these best ``scores``
        (one per slot) can enter: ``not <`` — a tie strands, and so does a
        NaN."""
        index = np.asarray(slots, dtype=np.intp)
        # A view of the array, gone before it is resized again.
        bars = np.frombuffer(self.bars, dtype=np.float64)[index]
        below = np.asarray(scores, dtype=np.float64) < bars
        return [self.keys[index[i]] for i in np.flatnonzero(~below)]


class QueryCache:
    """LRU cache keyed by normalized query strings.

    Two stores share one capacity budget *each* and one counter block:

    - the **embedding store** maps a query to its embedding vector,
      short-circuiting the model's forward pass.  It survives every write
      — an embedding depends only on the model, not on the entity set;
    - the optional **result store** maps ``(query, k, scope)`` to the
      final candidate list, short-circuiting the index scan as well.

    **Invalidation is as narrow as the write.**  The serving engine ends
    every mutation and compaction with one :meth:`publish`, which strands
    — under one hold of the lock — exactly the stored answers the write
    can change, and leaves the rest being served.  What lets it tell is
    the *evidence* an answer is filed with (:meth:`put_results`):

    - ``(tier, evidence)`` — the answer is the best ``k`` of a *scored*
      tier (q-gram Jaccard, vector distance).  A removed entity changes
      it only if the answer names that entity (found through an
      ``entity -> keys`` map kept on fill and eviction, so a remove
      costs what it touches).  Appended rows change it only if it is
      short of ``k`` candidates or one of them scores at least its
      ``k``-th candidate's score under the tier that produced it — a
      lower-scoring row sorts after that candidate's row in ``(score
      desc, row asc)`` order, so the first ``k`` distinct entities stay
      what they were, over-fetch and de-duplication included
      (DESIGN.md §12).  The writer hands :meth:`publish` one batch
      scorer per tier; a tier it cannot score is stranded whole.  A
      scorer may also report a row that moves an answer to another
      *tier* as reaching it: under the router's cascade a new mention
      whose q-gram score against an ANN-answered query reaches τ makes
      the fuzzy tier answer that query from now on, so the engine's ANN
      scorer reports such a mention as reaching every bar.  An answer
      filed with a *gate* (a q-gram answer's grams) is handed to the
      scorer only when an appended row shares a token with it — a
      ``gram -> keys`` map kept on fill and eviction like
      ``entity -> keys`` — since no other row can enter it.
    - answers filed under a ``scope`` (a ``type_filter``) are stranded
      together by any write.
    - a degraded answer (:data:`UNFILED`) is not filed at all.

    An unscoped answer filed *without* evidence is one no write can judge
    (only ``whole=True`` removes it): for a cache no write is published
    to, such as :class:`~repro.lookup.emblookup_service.EmbLookupService`'s.
    The serving engine files none: the label table answers exact hits.

    ``generation`` counts publishes and gates work in flight, nothing
    else: a probe or a fill that pinned an older generation (the
    ``generation=`` argument) misses / is dropped, because the answer it
    carries was computed from a state ``publish`` has since judged.

    All methods are thread-safe; the serving engine calls into one cache
    from every thread that serves a batch, concurrently.

    Parameters
    ----------
    capacity:
        Max entries per store (must be positive).
    cache_results:
        Also cache final candidate lists keyed by ``(query, k, scope)``.
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
        # Bookkeeping of the result store, all guarded by _lock.
        #: tier -> the scored answers filed under it.
        self._scored: dict[str, _Scored] = {}
        #: key of a scored answer -> the ``_scored`` entry that holds it.
        self._tier_of: dict[tuple, _Scored] = {}
        #: entity id -> keys of the scored answers that name it.
        self._named: dict[str, set[tuple]] = {}
        #: keys filed under a scope.
        self._scoped: set[tuple] = set()
        self._stranded = 0
        self._fallbacks = 0

    @property
    def caches_results(self) -> bool:
        """Whether the result store is enabled."""
        return self._results is not None

    @property
    def generation(self) -> int:
        """How many times :meth:`publish` ran (one per engine write)."""
        with self._lock:
            return self._generation

    # -- embedding store --------------------------------------------------------

    def get_embedding(self, query: str) -> np.ndarray | None:
        """Cached embedding for ``query`` or ``None`` (counts hit/miss).

        The returned array is the cached storage itself, marked
        read-only — mutating callers must copy.
        """
        with self._lock:
            return self._embeddings.get(self._normalize(query))

    def put_embedding(self, query: str, vector: np.ndarray) -> None:
        """Store ``query``'s embedding (copied and frozen read-only)."""
        entry = np.array(vector, copy=True)
        entry.flags.writeable = False
        with self._lock:
            self._embeddings.put(self._normalize(query), entry)

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
        hitting the cache while a model forward pass is in flight.  The
        result is ``(n, d)`` rows of ``embed_fn``'s dtype: float32 and
        C-contiguous for every served embedder.  This is the shared
        serving-path helper used by the engine and the embedder services.
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
        """:meth:`get_results` for one query, normalized here."""
        return self.get_results(
            [self._normalize(query)], k, scope, generation
        )[0]

    def put_result(
        self,
        query: str,
        k: int,
        candidates: list,
        scope: str | None = None,
        generation: int | None = None,
    ) -> None:
        """:meth:`put_results` for one query, normalized here, filed
        without evidence."""
        self.put_results(
            [self._normalize(query)], k, [candidates], scope, generation
        )

    def get_results(
        self,
        normalized: list[str],
        k: int,
        scope: str | None = None,
        generation: int | None = None,
    ) -> list[list | None]:
        """Cached candidate lists for ``(query, k, scope)``, ``None`` on miss.

        ``normalized`` strings are the keys, taken as given, and the
        whole probe is one hold of the lock.  ``scope`` isolates result
        namespaces that answer differently for the same query — the
        serving engine passes the active ``type_filter`` so a
        type-constrained answer can never be served to (or poisoned by)
        an unconstrained lookup.  ``generation`` is the one the caller
        pinned (default: the current one): a probe pinned before the last
        :meth:`publish` misses everything, so its lookup is served from
        the state it pinned.  When the result store is disabled this is
        all-``None`` without touching the counters, so callers can use it
        unconditionally.
        """
        if self._results is None:
            return [None] * len(normalized)
        get = self._results.get
        out: list[list | None] = []
        with self._lock:
            if generation is not None and generation != self._generation:
                self.stats.misses += len(normalized)
                return [None] * len(normalized)
            for query in normalized:
                cached = get((query, k, scope))
                out.append(list(cached) if cached is not None else None)
        return out

    def put_results(
        self,
        normalized: list[str],
        k: int,
        rows: list[list],
        scope: str | None = None,
        generation: int | None = None,
        evidence: list | None = None,
    ) -> None:
        """Store candidate lists (no-op when the result store is disabled).

        ``normalized`` strings are the keys, taken as given; one hold of
        the lock for the whole fill.  Pass the ``generation`` pinned
        *before* the answers were computed: if a :meth:`publish` ran
        since, its rule never saw them and the fill is dropped.

        ``evidence[i]`` says what can change ``rows[i]`` (class
        docstring): ``(tier, evidence)`` with whatever the tier's scorer
        in :meth:`publish` re-scores the answer from, or ``(tier,
        evidence, gate)`` for an answer only a row sharing a token of the
        ``gate`` set can enter; the row then holds ``(entity id, score)``
        pairs, best first.  Scoped answers need none.  ``None`` — also
        the meaning of no list at all — files an answer no write can
        judge, for a cache no write is published to.  :data:`UNFILED`
        marks an answer not to store.
        """
        if self._results is None:
            return
        with self._lock:
            if generation is not None and generation != self._generation:
                return
            put = self._results.put
            for i, query in enumerate(normalized):
                if evidence is not None and evidence[i] is UNFILED:
                    continue
                key = (query, k, scope)
                row = list(rows[i])
                displaced = put(key, row)
                if displaced is not None:
                    gone = displaced[0]
                    if gone[2] is not None:
                        self._scoped.discard(gone)
                    else:
                        self._forget(*displaced)
                if scope is not None:
                    self._scoped.add(key)
                elif evidence is not None and evidence[i] is not None:
                    self._note(key, row, *evidence[i])

    def _note(
        self,
        key: tuple,
        row: list,
        tier: str,
        evidence: Any,
        gate: frozenset[str] | None = None,
    ) -> None:
        """Book a scored answer just stored; caller holds ``_lock``."""
        scored = self._scored.get(tier)
        if scored is None:
            scored = self._scored[tier] = _Scored()
        # The k-th candidate's score; any score reaches a short answer.
        scored.add(
            key,
            evidence,
            row[-1][1] if len(row) >= key[1] else -math.inf,
            gate,
        )
        self._tier_of[key] = scored
        named = self._named
        for entity_id, _ in row:
            keys = named.get(entity_id)
            if keys is None:
                named[entity_id] = {key}
            else:
                keys.add(key)

    def _forget(self, key: tuple, row: list) -> None:
        """Drop the bookkeeping of an unscoped answer that left the store
        (none if it was filed without evidence)."""
        scored = self._tier_of.pop(key, None)
        if scored is not None:
            scored.discard(key)
            named = self._named
            for entity_id, _ in row:
                keys = named.get(entity_id)  # None: named twice by ``row``
                if keys is not None:
                    keys.discard(key)
                    if not keys:
                        del named[entity_id]

    def _strand(self, key: tuple) -> None:
        """Remove one booked answer a write can change (caller holds
        ``_lock``)."""
        self._forget(key, self._results.pop(key))

    def _clear_results(self) -> None:
        self._results.clear()
        self._scored.clear()
        self._tier_of.clear()
        self._named.clear()
        self._scoped.clear()

    def publish(
        self,
        entities: Sequence[str] = (),
        entering: dict[str, Callable[[list], Sequence[float]]] | None = None,
        tokens: Collection[str] | None = None,
        whole: bool = False,
    ) -> int:
        """End a write: strand the answers it can change, then advance
        :attr:`generation` (returned) — one hold of the lock, so no probe
        sees the new generation with an answer the write made stale.

        ``entities`` are the entity ids removed.  ``entering`` is
        ``None`` unless rows were appended, and then maps a tier to its
        scorer: called once with the evidence of every answer of that
        tier the rows can reach, it returns per answer the best score any
        appended row reaches against it, and the answer is stranded
        unless that is below its ``k``-th score.  ``tokens`` are those of
        the appended rows (``None``: unknown): an answer filed with a
        gate it shares none of is out of their reach and is not scored.
        A tier without a scorer is stranded
        whole, as are the scoped answers by any write, and the entire
        result store by ``whole=True`` (for a writer that cannot say what
        it changed); each of those is counted as a fallback.  With no
        argument — a compaction, which changes no answer — nothing is
        stranded.
        """
        with self._lock:
            self._generation += 1
            if self._results is None:
                return self._generation
            if whole:
                self._clear_results()
                self._fallbacks += 1
                return self._generation
            if self._scoped and (entities or entering is not None):
                for key in self._scoped:
                    self._results.pop(key)
                self._scoped.clear()
                self._fallbacks += 1
            stranded = 0
            for entity_id in entities:
                named = list(self._named.get(entity_id, ()))
                for key in named:
                    self._strand(key)
                stranded += len(named)
            if entering is not None:
                for tier, scored in self._scored.items():
                    if scored.keys:
                        stranded += self._strand_entered(
                            scored, entering.get(tier), tokens
                        )
            self._stranded += stranded
            return self._generation

    def _strand_entered(
        self,
        scored: _Scored,
        scorer: Callable[[list], Sequence[float]] | None,
        tokens: Collection[str] | None,
    ) -> int:
        """The appended-rows clause over one tier; how many answers it
        stranded narrowly (0 for the whole-tier fallback)."""
        if scorer is None:
            self._fallbacks += 1
            for key in list(scored.keys):
                self._strand(key)
            return 0
        slots = scored.reachable(tokens)
        if not slots:
            return 0
        evidence = scored.evidence
        reached = scored.reached(slots, scorer([evidence[i] for i in slots]))
        for key in reached:
            self._strand(key)
        return len(reached)

    def invalidation_counts(self) -> dict[str, int]:
        """``results_stranded`` — answers :meth:`publish` stranded by its
        narrow clauses — and ``cache_fallback_clears`` — times it
        stranded a whole tier, the scoped answers or the entire store
        instead."""
        with self._lock:
            return {
                "results_stranded": self._stranded,
                "cache_fallback_clears": self._fallbacks,
            }

    def read_through(
        self,
        normalized: list[str],
        k: int,
        serve: Callable[[list[str]], tuple[list[list], list | None]],
        scope: str | None = None,
        generation: int | None = None,
    ) -> list[list]:
        """Memoized batch lookup: probe, ``serve`` only the misses, fill.

        ``serve`` receives the miss queries (in input order) and returns
        one candidate list per query plus their ``evidence`` list (or
        ``None``; see :meth:`put_results`); it runs outside the cache
        lock.  Probe and fill use the same ``scope`` / ``generation``, so
        an answer computed from a state a :meth:`publish` has since
        replaced is returned but not stored.  With the result store
        disabled this is ``serve(normalized)[0]``.
        """
        out = self.get_results(normalized, k, scope, generation)
        miss_positions = [i for i, row in enumerate(out) if row is None]
        if miss_positions:
            misses = [normalized[i] for i in miss_positions]
            fresh, evidence = serve(misses)
            for i, row in zip(miss_positions, fresh):
                out[i] = row
            self.put_results(misses, k, fresh, scope, generation, evidence)
        return out

    # -- maintenance ------------------------------------------------------------

    def __len__(self) -> int:
        """Total live entries across both stores."""
        with self._lock:
            return len(self._embeddings) + (
                len(self._results) if self._results is not None else 0
            )

    def clear(self) -> None:
        """Drop every entry of both stores (the generation stays: no
        state changed, so work in flight may still be filed)."""
        with self._lock:
            self._embeddings.clear()
            if self._results is not None:
                self._clear_results()

    def stats_dict(self) -> dict[str, float]:
        """Counter snapshot (hits/misses/evictions/hit_rate) for benches.

        Taken under the cache lock so the four numbers are mutually
        consistent even while other threads are hitting the stores.
        """
        with self._lock:
            return self.stats.as_dict()
