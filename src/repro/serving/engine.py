"""Serve-when-idle query engine over an EmbLookup pipeline.

The engine answers the serving-path question the offline benchmark tables
ignore: queries arrive one at a time, and what the caller feels is the
latency of *its* query.  :meth:`LookupEngine.submit` therefore never
holds a query back to wait for company.  A submit that finds the engine
idle serves its query at once, on the calling thread, and returns a
:class:`PendingLookup` that is already resolved; while that serve is in
flight, other threads' submits queue, and the serving thread drains what
queued behind it as the next batch, and the next, until the queue is
empty.  Batches are therefore exactly as large as the load makes them: 1
on an idle engine, larger when queries arrive faster than they are
served.  ``max_batch_size`` caps a queued batch and ``max_batch_age``
bounds how long an entry waits behind an in-flight flush -- a queued
submit that reaches either cap serves the queue on its own thread
instead of waiting for the flusher -- and :meth:`LookupEngine.flush`
serves whatever is queued, now.

Each flush runs the full serving pipeline -- exact probe, LRU cache,
string tiers, embedding, (sharded) blockwise scan, duplicate-row ranking --
with a dedicated :class:`~repro.utils.timing.Stopwatch` per stage, on top
of the whole-call ``query_time`` every :class:`LookupService` keeps.

Failure semantics (the fault-injection suite in ``tests/property``
exercises every branch):

- **Error isolation** -- when a batched lookup of several queries raises,
  the engine retries each of them individually, so a poisoned query fails
  alone (its handle raises from :attr:`PendingLookup.result`) while its
  batch-mates still resolve normally.  A batch of one is already alone:
  it is served once and fails with what it raised.
- **Deadlines** -- ``batch_deadline`` bounds one batch's wall time; the
  embed and search stages check it and raise
  :class:`LookupDeadlineExceeded` rather than starting work they cannot
  finish in time.
- **Degradation** -- a sharded index may return ``partial=True`` results
  when shards fail; the engine serves them (and counts them in
  :meth:`LookupEngine.serving_stats`) instead of erroring, and does not
  cache them: the next lookup of the query is served in full once the
  shard is back.

Online mutation -- :meth:`LookupEngine.apply_mutation` applies one
change-feed record (add/remove/update of a whole entity, see
:mod:`repro.serving.ingest`) while ``submit()`` traffic keeps flowing.
Mutations serialize on the engine's mutation lock and propagate to every
structure that answers queries: the vector index, the row->entity map,
the router's exact, fuzzy and type-filter tiers (through
:meth:`~repro.lookup.router.LookupRouter.add_entity` /
``remove_entity``), and the result cache — which loses exactly the
answers the write can change, not the rest (:meth:`~repro.lookup.cache.
QueryCache.publish`).  :meth:`LookupEngine.compact` reclaims tombstoned
rows and re-keys the row->entity map through the remap the index returns.

Consistency is the index family's mechanism one level up (see
:mod:`repro.index.mutation`): everything a lookup's ANN path reads is
held by one immutable :class:`EngineSnapshot`, published by one attribute
swap at the end of every mutation and compaction.  A lookup reads it
once: it probes and fills the cache pinned to that generation, scans the
index under that index snapshot and resolves row ids through that list,
so it never retries and can neither resolve post-compaction row ids
through the old map nor get a pre-mutation answer into the cache after
the mutation's publish judged what was there.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.pipeline import EmbLookup
from repro.index.base import SearchResult, VectorIndex
from repro.index.flat import FlatIndex
from repro.index.mutation import served_snapshot
from repro.index.sharded import ShardedIndex
from repro.lookup.base import Candidate, LookupService
from repro.lookup.cache import UNFILED, QueryCache
from repro.lookup.normalize import normalize
from repro.lookup.router import TAU, LookupRouter
from repro.utils.ranking import fetch_size, resolve_hits
from repro.utils.timing import Stopwatch

__all__ = [
    "EngineSnapshot",
    "LookupDeadlineExceeded",
    "LookupEngine",
    "PendingLookup",
]

#: Stage names, in pipeline order, that the engine times per flush.
#: ``route`` is the router's exact probe ahead of the cache and its
#: string tiers behind it (0 without a router); the router also times
#: each tier of its string-tier pass in its own ``tier_times``.
_STAGES = ("cache", "route", "embed", "search", "rank")


class LookupDeadlineExceeded(TimeoutError):
    """A batch blew its ``batch_deadline`` before finishing."""


@dataclass(frozen=True, eq=False)
class EngineSnapshot:
    """Everything one lookup's ANN path reads, pinned together.

    ``index`` is the vector index's own snapshot.  ``rows`` maps row
    id -> entity id; between compactions it is one list that only grows,
    so every row id ``index`` can return is already in it.
    ``impure_rows`` memoizes, per type filter, how many scanned rows
    resolve to inadmissible entities; readers fill it (racing duplicates
    store the same value) and it is dropped with the snapshot, which
    keeps it current.  ``generation`` is the result cache's as of the
    publish: a probe or fill pinned to it is void once the next publish
    has run.
    """

    index: object
    rows: list[str]
    has_alias_rows: bool
    impure_rows: dict[str, int]
    generation: int


@dataclass(eq=False)
class _Write:
    """What one mutation did so far, in the terms of the cache's
    invalidation rule (:meth:`~repro.lookup.cache.QueryCache.publish`)."""

    #: entity ids removed
    entities: list[str] = field(default_factory=list)
    #: index row ids appended (``None``: none were)
    rows: np.ndarray | None = None
    #: the fuzzy tier's gram set of each mention appended
    grams: list[frozenset[str]] = field(default_factory=list)

    @property
    def touched(self) -> bool:
        """Whether anything a lookup reads has been changed."""
        return bool(self.entities) or self.rows is not None

    @property
    def tokens(self) -> frozenset[str] | None:
        """Every gram of the mentions appended (``None``: no gram sets),
        the only grams a gated cached answer can be entered through."""
        return frozenset().union(*self.grams) if self.grams else None


class PendingLookup:
    """Handle for a query submitted to a :class:`LookupEngine`.

    A handle returned by an idle engine is already resolved: the submit
    served it.  One that queued behind an in-flight flush resolves when
    the batch it rides in has been served, on whichever thread serves
    it; reading :attr:`result` before that serves the queue if the query
    is still in it and otherwise waits for the serving thread.
    A query that failed (poisoned input, deadline, dead index) stores the
    exception instead: :attr:`done` is still True, :attr:`exception`
    holds the error, and :attr:`result` re-raises it.  Every submitted
    handle resolves one way or the other -- a flush never strands a
    handle, even when the whole batch errors.
    """

    __slots__ = ("_engine", "_row", "_done", "_error")

    def __init__(self, engine: "LookupEngine"):
        self._engine = engine
        self._row: list[Candidate] = []
        self._done = False
        self._error: BaseException | None = None

    @property
    def done(self) -> bool:
        """Whether this query has been served (or has failed)."""
        return self._done

    @property
    def exception(self) -> BaseException | None:
        """The error this query failed with, or ``None`` (does not wait)."""
        return self._error

    @property
    def result(self) -> list[Candidate]:
        """The candidate list, waiting until the query has been served.

        Raises the stored exception when this query's serve failed.
        """
        if not self._done:
            self._engine._await(self)
        if self._error is not None:
            raise self._error
        return self._row

    def _resolve(self, row: list[Candidate]) -> None:
        self._row = row
        self._done = True

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done = True


class LookupEngine(LookupService):
    """Entity lookup over a fitted EmbLookup pipeline, served when idle.

    :meth:`submit` serves a query at once when no flush is in flight and
    queues it behind the flush otherwise; the flusher drains the queue in
    batches until it is empty (module docstring).

    The engine owns its vector index (typically a
    :class:`~repro.index.sharded.ShardedIndex` built by
    :meth:`from_pipeline`) and an optional :class:`QueryCache`; the
    pipeline contributes only the trained embedding model and the
    row -> entity mapping.  The index must meet the serving contract
    (:func:`repro.index.mutation.served_snapshot`; ``TypeError`` at
    construction otherwise).  It is also a regular :class:`LookupService`,
    so ``lookup_batch`` works synchronously and the evaluation harness
    can benchmark it like any other service.

    Parameters
    ----------
    max_batch_size:
        Most queries a queued batch holds before the submit that filled
        it serves the queue on its own thread.
    max_batch_age:
        Longest wait, in seconds, behind an in-flight flush: a submit
        that finds the oldest queued entry older than this serves the
        queue on its own thread.  An idle engine never reads it (nor the
        clock): nothing waits there.
    batch_deadline:
        Wall-clock budget in seconds for serving one batch (``None``
        disables it).  Checked before the embed and search stages; a
        batch that is already over budget raises
        :class:`LookupDeadlineExceeded` for its remaining queries instead
        of starting more work.  During the per-query isolation retry each
        query gets its own fresh budget.
    fault_hook:
        Test-only callable invoked with every serve attempt's normalized
        query list (see ``QueryPoison`` in ``tests/support/faults.py``);
        the production value is ``None``.  Duck-typed: the package never
        imports the test harness.
    router:
        Optional :class:`~repro.lookup.router.LookupRouter` whose exact
        and fuzzy tiers short-circuit queries *before* the embed stage —
        the exact tier before the result cache, too (its ``ann`` tier
        should be ``None`` — this engine is the ANN path).  Tier counters
        surface in :meth:`serving_stats`.  Its
        :class:`~repro.lookup.router.TypeFilterMap` enables
        ``type_filter=`` lookups: a typed search over-fetches the full
        scan and filters at rank time (:meth:`_search`).
    """

    name = "serving_engine"

    def __init__(
        self,
        pipeline: EmbLookup,
        index: VectorIndex,
        row_to_entity: Sequence[str],
        cache: QueryCache | None = None,
        max_batch_size: int = 32,
        max_batch_age: float = 0.005,
        batch_deadline: float | None = None,
        fault_hook=None,
        router: LookupRouter | None = None,
    ):
        super().__init__()
        if pipeline.model is None:
            raise ValueError("LookupEngine requires a fitted pipeline")
        served_snapshot(index)
        if index.ntotal != len(row_to_entity):
            raise ValueError(
                f"index has {index.ntotal} rows but row_to_entity maps "
                f"{len(row_to_entity)}"
            )
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_batch_age < 0:
            raise ValueError("max_batch_age must be >= 0")
        if batch_deadline is not None and batch_deadline <= 0:
            raise ValueError("batch_deadline must be positive or None")
        self.pipeline = pipeline
        self._index = index
        self._adopt_rows(list(row_to_entity))
        self.cache = cache
        self.max_batch_size = max_batch_size
        self.max_batch_age = max_batch_age
        self.batch_deadline = batch_deadline
        self.fault_hook = fault_hook
        self.router = router
        self.stage_times: dict[str, Stopwatch] = {
            stage: Stopwatch() for stage in _STAGES
        }
        # The queue exists only behind an in-flight flush.  _flushers
        # counts the threads serving (or about to serve) submitted
        # queries.  The one invariant: a non-empty queue has a flusher.
        # It holds because "append, having seen a flusher" (submit) and
        # "find the queue empty and leave" (_drain) are each one hold of
        # _lock, so an entry that arrives as the flusher leaves is taken
        # by the flusher or served by its own submit, never stranded.
        # _lock is a leaf: never held while serving or while taking
        # another lock.  _batch_done (on _lock) is notified after every
        # batch; PendingLookup.result and close() wait on it.
        self._pending: list[tuple[str, int, PendingLookup]] = []
        self._flushers = 0
        self._batch_started = 0.0
        self._lock = threading.Lock()
        self._batch_done = threading.Condition(self._lock)
        self._stats_lock = threading.Lock()
        # Serializes apply_mutation/compact against each other; each ends
        # by publishing the next EngineSnapshot.  Lock order:
        # _mutation_lock -> {index write lock, cache lock, _stats_lock},
        # never reversed.
        self._mutation_lock = threading.Lock()
        self._snap = self._freeze(
            cache.generation if cache is not None else 0
        )
        self._mutations_applied = 0
        self._compactions = 0
        self._partial_results = 0
        self._failed_queries = 0
        self._deadline_hits = 0
        self._isolation_retries = 0
        self._flushes = 0
        self._flushed_queries = 0

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_pipeline(
        cls,
        pipeline: EmbLookup,
        num_shards: int = 1,
        cache_size: int | None = None,
        block_size: int | None = None,
        executor: str = "inline",
        num_workers: int | None = None,
        shard_timeout: float | None = None,
        router: "LookupRouter | bool | None" = None,
        **engine_kwargs,
    ) -> "LookupEngine":
        """Build an engine (and its flat/sharded index) from a fitted pipeline.

        Re-embeds the pipeline's index rows into a fresh uncompressed
        index: a :class:`FlatIndex` for ``num_shards == 1``, a
        :class:`ShardedIndex` of flat shards otherwise.  ``cache_size``
        defaults to the pipeline config's ``query_cache_size``; pass an
        explicit value to override.  ``block_size`` tunes the blockwise
        scan (``None`` derives it from the batch size).  ``executor`` /
        ``num_workers`` / ``shard_timeout`` select the sharded execution
        model — ``executor="process"`` with ``num_workers`` worker
        processes over shared-memory shards is the multi-core serving
        configuration for batched traffic; the default ``"inline"``
        scans the shards on the calling thread (see
        :mod:`repro.index.sharded`).

        ``router=True`` attaches a
        :class:`~repro.lookup.router.LookupRouter` built from the
        pipeline's KG (exact label-hash tier plus a q-gram fuzzy tier);
        pass a ready router for custom tiers.  ``engine_kwargs`` forward
        to the constructor.
        """
        if pipeline.model is None:
            raise ValueError("from_pipeline requires a fitted pipeline")
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        mentions, row_to_entity = pipeline.index_rows()
        vectors = pipeline.embed_queries(mentions)
        dim = pipeline.config.embedding_dim

        def flat(d: int) -> FlatIndex:
            return FlatIndex(d, block_size=block_size)

        def sharded(d: int) -> ShardedIndex:
            return ShardedIndex(
                d,
                num_shards,
                factory=flat,
                executor=executor,
                num_workers=num_workers,
                shard_timeout=shard_timeout,
            )

        index = flat(dim) if num_shards == 1 else sharded(dim)
        index.train(vectors)
        index.add(vectors)
        if router is True:
            if pipeline.kg is None:
                raise ValueError("router=True requires the pipeline's KG")
            router = LookupRouter.build(pipeline.kg, ann=None, fuzzy="qgram")
        elif router is False:
            router = None
        if cache_size is None:
            cache_size = pipeline.config.query_cache_size
        cache = (
            QueryCache(cache_size, cache_results=True)
            if cache_size > 0
            else None
        )
        return cls(
            pipeline,
            index,
            row_to_entity,
            cache=cache,
            router=router,
            **engine_kwargs,
        )

    # -- serve-when-idle batching ------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of submitted queries queued behind an in-flight flush."""
        with self._lock:
            return len(self._pending)

    def submit(self, query: str, k: int = 10) -> PendingLookup:
        """Serve one query now if the engine is idle, else queue it.

        Idle (no flush in flight): the query is served on this thread and
        the returned handle is already ``done``; before returning, this
        thread also serves whatever other threads queued meanwhile.
        Otherwise the query joins the queue the in-flight flusher drains
        next, and this thread serves the queue itself only if that made
        it ``max_batch_size`` long or its oldest entry has waited
        ``max_batch_age``.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        handle = PendingLookup(self)
        with self._lock:
            idle = not self._flushers
            if idle:
                self._flushers = 1
            else:
                if not self._pending:
                    self._batch_started = time.monotonic()
                self._pending.append((query, k, handle))
                capped = len(self._pending) >= self.max_batch_size or (
                    time.monotonic() - self._batch_started
                    >= self.max_batch_age
                )
        if idle:
            # The batch of one, without the queue: nothing to take, to
            # group or to sweep for stranded handles.
            with self._stats_lock:
                self._flushes += 1
                self._flushed_queries += 1
            try:
                self._serve_alone(query, k, handle)
            finally:
                self._drain()
        elif capped:
            self.flush()
        return handle

    def flush(self) -> int:
        """Serve every queued query now, on this thread; returns the count.

        Every handle taken from the queue resolves before this returns:
        with its candidate row on success, or with a stored exception on
        failure.  Entries that queue while this thread is serving are
        served (and counted) too: it leaves only when it finds the queue
        empty.  A query another thread's flush already took is that
        thread's to resolve, not awaited here -- :attr:`PendingLookup.
        result` waits for one.
        """
        with self._lock:
            self._flushers += 1
        return self._drain()

    def _drain(self) -> int:
        """Serve the queue, batch after batch, until it is found empty.

        The caller counted itself into ``_flushers``; this takes it out
        again in the lock hold that finds the queue empty (the other half
        of the invariant in ``__init__``), and wakes whoever waits for a
        batch this thread served.
        """
        served = 0
        while True:
            with self._lock:
                # Swap, never alias: once the lock is released the queue
                # list belongs to the next appender.
                batch, self._pending = self._pending, []
                if not batch:
                    self._flushers -= 1
                self._batch_done.notify_all()
            if not batch:
                return served
            try:
                self._serve_batch(batch)
            except BaseException:
                # Interrupted mid-batch (or a bug): this flusher is gone.
                # Fail the handles it still held and stop counting it, so
                # no waiter hangs and the next submit finds the engine
                # idle and takes over the queue.
                for _, _, handle in batch:
                    if not handle._done:
                        handle._fail(
                            RuntimeError("pending lookup dropped by flush()")
                        )
                with self._lock:
                    self._flushers -= 1
                    self._batch_done.notify_all()
                raise
            served += len(batch)

    def _serve_batch(
        self, batch: list[tuple[str, int, PendingLookup]]
    ) -> None:
        """Resolve every handle of one queued batch, each failing alone."""
        with self._stats_lock:
            self._flushes += 1
            self._flushed_queries += len(batch)
        # One batched lookup per distinct k, preserving submission order
        # within each group.
        groups: dict[int, list[tuple[str, PendingLookup]]] = {}
        for query, k, handle in batch:
            groups.setdefault(k, []).append((query, handle))
        for k, items in groups.items():
            if len(items) > 1:
                try:
                    rows = self.lookup_batch([query for query, _ in items], k)
                except Exception:
                    # Error isolation: retry query by query below, so one
                    # bad query cannot reject its batch-mates.
                    with self._stats_lock:
                        self._isolation_retries += 1
                else:
                    for (_, handle), row in zip(items, rows):
                        handle._resolve(row)
                    continue
            for query, handle in items:
                self._serve_alone(query, k, handle)

    def _serve_alone(self, query: str, k: int, handle: PendingLookup) -> None:
        """One query, served once: its row or its own exception."""
        try:
            handle._resolve(self.lookup_batch([query], k)[0])
        except Exception as exc:
            with self._stats_lock:
                self._failed_queries += 1
            handle._fail(exc)

    def _await(self, handle: PendingLookup) -> None:
        """Block until ``handle`` is done: serve it if it is still queued,
        else wait for the thread whose batch holds it."""
        self.flush()
        with self._batch_done:
            while not handle._done:
                self._batch_done.wait()

    # -- online mutation -------------------------------------------------------

    def apply_mutation(self, mutation) -> None:
        """Apply one change-feed record to every structure that serves queries.

        ``mutation`` is duck-typed (``kind`` / ``entity_id`` /
        ``mentions`` / ``types`` — the shape of
        :class:`repro.serving.ingest.IndexMutation`), so this layer never
        imports the ingest module.  Mutations serialize on the engine's
        mutation lock while ``submit()`` traffic keeps flowing; a
        concurrent lookup's ANN path observes either the pre- or the
        post-mutation entity set, never a mixture: it keeps reading the
        :class:`EngineSnapshot` it pinned until this call's last step
        publishes the next one (new index snapshot, next cache
        generation), and an answer it computed meanwhile is returned to
        its caller but dropped by the cache, whose generation has moved.

        That publish also strands the cached answers this record can
        change — those that name a removed entity, those an added row
        scores into (:meth:`~repro.lookup.cache.QueryCache.publish` has
        the rule) — and no others.

        Raises :class:`ValueError` for semantically invalid records —
        adding an entity that already exists, removing or updating one
        that does not, an empty mention list — and for any record when
        the router's fuzzy tier cannot follow mutations (it would go
        stale), which is exactly what the ingestion consumer's
        dead-letter lane catches.  A record that fails *part-way* (an
        update whose removal ran but whose re-add raised) still
        publishes what it did — with the whole result store stranded,
        since the rule's inputs are incomplete — before it re-raises, so
        the served snapshot and the cache never lag the router.
        """
        kind = mutation.kind
        entity_id = mutation.entity_id
        mentions = list(mutation.mentions)
        types = tuple(mutation.types)
        with self._mutation_lock:
            if self.router is not None:
                self.router.require_mutable()
            write = _Write()
            try:
                if kind == "remove":
                    self._mutate_remove(entity_id, write)
                elif kind in ("add", "update"):
                    if kind == "add" and entity_id in self._entity_rows:
                        raise ValueError(
                            f"entity {entity_id!r} already indexed"
                        )
                    self._mutate_add(
                        entity_id, mentions, types, kind == "update", write
                    )
                else:
                    raise ValueError(f"unknown mutation kind {kind!r}")
            except BaseException:
                if write.touched:
                    self._publish(whole=True)
                raise
            self._publish(
                entities=write.entities,
                entering=self._entering(write),
                tokens=write.tokens,
            )
            with self._stats_lock:
                self._mutations_applied += 1

    def _adopt_rows(self, rows: list[str]) -> None:
        """Make ``rows`` the writer-side row->entity list and derive the
        live rows per entity and the alias flag from it."""
        self._row_to_entity = rows
        self._entity_rows: dict[str, list[int]] = {}
        for row, eid in enumerate(rows):
            self._entity_rows.setdefault(eid, []).append(row)
        # Alias rows make several index rows resolve to one entity, so the
        # search must over-fetch before dedup (same policy as the core
        # pipeline's lookup_batch).
        self._has_alias_rows = len(self._entity_rows) < len(rows)

    def _freeze(self, generation: int) -> EngineSnapshot:
        """The writer-side state as one snapshot under ``generation``."""
        return EngineSnapshot(
            self._index.snapshot(),
            self._row_to_entity,
            self._has_alias_rows,
            {},
            generation,
        )

    def _publish(self, **changed) -> None:
        """Swap in the next snapshot; caller holds ``_mutation_lock`` and
        has finished every write the snapshot describes.  ``changed`` is
        what those writes can change of a cached answer, as the arguments
        of :meth:`~repro.lookup.cache.QueryCache.publish` (none: nothing).
        The cache moves first: a lookup that still pins the old snapshot
        then misses and is not filed, one that pins the new snapshot
        finds only answers the rule let stand."""
        self._snap = self._freeze(
            self.cache.publish(**changed) if self.cache is not None else 0
        )

    def _entering(
        self, write: _Write
    ) -> dict[str, Callable[[list], Sequence[float]]] | None:
        """The scorers :meth:`~repro.lookup.cache.QueryCache.publish`
        judges the rows ``write`` appended with (``None``: it appended
        none): per tier this engine can re-score, the best score a new
        row reaches against each cached query — the fuzzy tier's own pair
        score over the gram sets, the index family's exact kernel over
        the query vectors, so both are bit for bit what a lookup would
        compute.  An ANN answer is also reached — scored ``inf`` — when a
        new mention's pair score against its query's grams reaches
        :data:`~repro.lookup.router.TAU`: the fuzzy tier answers that
        query from now on.  A fuzzy service without gram sets leaves its
        tier out, and so the ANN tier too, since the flip cannot be
        judged: the cache strands such a tier whole."""
        if write.rows is None:
            return None
        scorers: dict[str, Callable[[list], Sequence[float]]] = {}
        mentions = write.grams
        if mentions:
            pair_scores = self.router.fuzzy.best_pair_scores
            scorers["fuzzy"] = lambda grams: pair_scores(grams, mentions)
        cascade = self.router is not None and self.router.fuzzy is not None
        if mentions or not cascade:
            pair_distances = self._index.pair_distances
            snapshot = self._index.snapshot()

            def nearest(evidence: list[tuple[bytes, Any]]) -> np.ndarray:
                # One batched kernel call over the vectors the answers
                # hold; as bytes they join into its matrix in one copy.
                vectors = b"".join(vector for vector, _ in evidence)
                queries = np.frombuffer(vectors, dtype=np.float32)
                distances = pair_distances(
                    queries.reshape(len(evidence), -1),
                    write.rows,
                    snapshot=snapshot,
                )
                scores = -distances.min(axis=1)
                if mentions:
                    fuzzy = pair_scores([g for _, g in evidence], mentions)
                    scores[np.asarray(fuzzy) >= TAU] = np.inf
                return scores

            scorers["ann"] = nearest
        return scorers

    def _fuzzy_grams(self) -> Callable[[str], frozenset[str]] | None:
        """The fuzzy tier's gram-set function — what its cached answers
        are re-scored by — or ``None`` when it has none (no fuzzy tier,
        or a service that is not gram-based)."""
        fuzzy = self.router.fuzzy if self.router is not None else None
        return getattr(fuzzy, "grams", None)

    def _mutate_add(
        self,
        entity_id: str,
        mentions: list[str],
        types: tuple[str, ...],
        replace: bool,
        write: _Write,
    ) -> None:
        """Embed and index an entity's mentions; register router entries.

        ``replace`` first removes the entity's current rows (an update).
        Lookups keep reading the snapshot they pinned until
        :meth:`apply_mutation` publishes the next one, so they see the
        old rows or the new ones, never neither.  Caller holds
        ``_mutation_lock``.
        The row map is extended in place — before the index publishes
        the rows, so a reader that gets a new row id can resolve it — and
        cut back if the index refuses them: left one entity longer than
        the index, it would hand the next added entity's rows to this one.
        ``write`` records what was done, step by step.
        """
        if not mentions:
            raise ValueError(f"entity {entity_id!r} has no mentions")
        # Embed before touching anything: a model failure changes nothing.
        vectors = self.pipeline.embed_queries(mentions)
        if replace:
            self._mutate_remove(entity_id, write)
        base = self._index.ntotal
        self._row_to_entity.extend([entity_id] * len(mentions))
        if len(mentions) > 1:
            self._has_alias_rows = True
        try:
            self._index.add(vectors)
        except BaseException:
            del self._row_to_entity[base:]
            raise
        write.rows = np.arange(base, base + len(mentions), dtype=np.int64)
        grams = self._fuzzy_grams()
        if grams is not None:
            write.grams = [grams(normalize(mention)) for mention in mentions]
        self._entity_rows[entity_id] = list(range(base, base + len(mentions)))
        if self.router is not None:
            self.router.add_entity(entity_id, mentions, types)

    def _mutate_remove(self, entity_id: str, write: _Write) -> None:
        """Tombstone an entity's rows and retract its router entries.

        Caller holds ``_mutation_lock``.  Router entries (type map
        included) drop first (an exact hit on a half-removed entity would
        resurrect it); the index tombstone publish is last.  ``write``
        learns the entity.
        """
        if entity_id not in self._entity_rows:
            raise ValueError(f"entity {entity_id!r} is not indexed")
        rows = self._entity_rows.pop(entity_id)
        write.entities.append(entity_id)
        if self.router is not None:
            self.router.remove_entity(entity_id)
        self._index.remove(np.asarray(rows, dtype=np.int64))

    def compact(self) -> bool:
        """Reclaim tombstoned rows and re-key the row map to match.

        Compaction renumbers row ids, so the row->entity map must change
        together with the index.  Both go into the next
        :class:`EngineSnapshot`: a lookup that pinned the old one keeps
        scanning the old index snapshot (the index never mutates what a
        published snapshot holds) and resolving through the old list.
        No cached answer changes — entity ids, the order of the surviving
        rows and their pair-pure distances all stay — so none is
        stranded, unless the index re-codes its rows when it compacts (a
        PQ store re-trains its codebooks): distances move then, and the
        whole result store goes.

        Returns ``True`` when a swap happened, ``False`` when there was
        nothing to reclaim.
        """
        with self._mutation_lock:
            remap = self._index.compact()
            if remap is None:
                return False
            old_map = self._row_to_entity
            new_map: list[str | None] = [None] * int((remap >= 0).sum())
            for old_row, new_row in enumerate(remap):
                if new_row >= 0:
                    new_map[int(new_row)] = old_map[old_row]
            self._adopt_rows(new_map)
            self._publish(whole=self._index.retrains_on_compact)
            with self._stats_lock:
                self._compactions += 1
            return True

    # -- the serving pipeline --------------------------------------------------

    def _lookup_batch(self, queries: list[str], k: int) -> list[list[Candidate]]:
        return self._lookup(queries, k, None)

    def _lookup_batch_typed(
        self, queries: list[str], k: int, type_filter: str
    ) -> list[list[Candidate]]:
        if self.router is None or self.router.type_map is None:
            raise RuntimeError(
                "engine has no TypeFilterMap; build it with router=True to "
                "use type_filter"
            )
        return self._lookup(queries, k, type_filter)

    def _lookup(
        self, queries: list[str], k: int, type_filter: str | None
    ) -> list[list[Candidate]]:
        # Each call has its own budget (an argument, not engine state):
        # concurrent lookups cannot race on one, and an isolation retry,
        # being a call of its own, starts a fresh one.
        deadline = (
            None
            if self.batch_deadline is None
            else time.monotonic() + self.batch_deadline
        )
        # The one read of engine state: everything below — cache probe
        # and fill, index scan, row resolution — uses this.
        snap = self._snap
        normalized = [normalize(q) for q in queries]
        out = None
        if self.router is not None:
            # The label table is the exact tier's cache: its hits are
            # answered here, ahead of the result cache, which never
            # probes for nor stores them.
            start = time.perf_counter()
            out = self.router.serve_exact(normalized, k, type_filter)
            self.stage_times["route"].add(time.perf_counter() - start)
            if None not in out:
                return out
            misses = [qi for qi, row in enumerate(out) if row is None]
            normalized = [normalized[qi] for qi in misses]
        if self.cache is None:
            rows = self._serve(normalized, k, type_filter, snap, deadline)[0]
        else:
            # The cache stage is the probe and the fill, not the work
            # between them: ``served`` comes off its clock.
            served = 0.0

            def serve(misses: list[str]) -> tuple[list[list[Candidate]], list]:
                nonlocal served
                start = time.perf_counter()
                answers = self._serve(misses, k, type_filter, snap, deadline)
                served = time.perf_counter() - start
                return answers

            # type_filter scopes the result keys: a filtered answer must
            # never serve an unfiltered lookup.
            start = time.perf_counter()
            rows = self.cache.read_through(
                normalized, k, serve, type_filter, snap.generation
            )
            self.stage_times["cache"].add(time.perf_counter() - start - served)
        if out is None:
            return rows
        for qi, row in zip(misses, rows):
            out[qi] = row
        return out

    def _check_deadline(self, deadline: float, stage: str) -> None:
        if time.monotonic() > deadline:
            with self._stats_lock:
                self._deadline_hits += 1
            raise LookupDeadlineExceeded(
                f"batch exceeded {self.batch_deadline}s deadline "
                f"before the {stage} stage"
            )

    def _serve(
        self,
        normalized: list[str],
        k: int,
        type_filter: str | None,
        snap: EngineSnapshot,
        deadline: float | None,
    ) -> tuple[list[list[Candidate]], list[tuple | None] | None]:
        """Route -> embed -> search -> rank for result-cache misses.

        With a router attached, the exact/fuzzy tiers answer what they
        can *before* the embed stage; only the remainder pays for the
        model forward pass and the index scan.

        Returns the answers and the evidence list the cache files them
        with (:meth:`~repro.lookup.cache.QueryCache.put_results`): for a
        fuzzy answer the query's gram set, which is also its gate; for an
        ANN one its float32 embedding (as bytes) beside its gram set,
        which an add can move to the fuzzy tier;
        :data:`~repro.lookup.cache.UNFILED` for a degraded (partial) ANN
        answer and for an exact one; ``None`` when no answer has any.
        """
        if self.fault_hook is not None:
            self.fault_hook(normalized)
        out: list[list[Candidate] | None] = [None] * len(normalized)
        # Only a cache wants evidence; a type_filter scopes the answers,
        # which are filed without.
        wanted = self.cache is not None and type_filter is None
        grams = self._fuzzy_grams() if wanted else None
        evidence: list | None = None
        if self.router is not None:
            start = time.perf_counter()
            out, tiers = self.router.serve_local(normalized, k, type_filter)
            if self.cache is not None and (
                "exact" in tiers or wanted and "fuzzy" in tiers
            ):
                evidence = [None] * len(normalized)
                for qi, tier in enumerate(tiers):
                    if tier == "exact":
                        # A label added since _lookup's probe missed.  Filed
                        # without evidence, no write could judge the answer;
                        # the next lookup finds it in the label table.
                        evidence[qi] = UNFILED
                    elif tier == "fuzzy" and wanted:
                        # The gram set is also the gate: the fuzzy tier
                        # never offers a row that shares no gram with it.
                        gate = None if grams is None else grams(normalized[qi])
                        evidence[qi] = ("fuzzy", gate, gate)
            self.stage_times["route"].add(time.perf_counter() - start)
        ann_positions = [qi for qi, row in enumerate(out) if row is None]
        if ann_positions:
            rows, vectors, partial = self._serve_ann(
                [normalized[qi] for qi in ann_positions],
                k,
                type_filter,
                snap,
                deadline,
            )
            if (wanted or partial) and evidence is None:
                evidence = [None] * len(normalized)
            for i, (qi, row) in enumerate(zip(ann_positions, rows)):
                out[qi] = row
                if partial:
                    # The next lookup of the query computes it in full.
                    evidence[qi] = UNFILED
                elif wanted:
                    query = normalized[qi]
                    evidence[qi] = (
                        "ann",
                        (
                            vectors[i].tobytes(),
                            None if grams is None else grams(query),
                        ),
                    )
        return out, evidence

    def _serve_ann(
        self,
        normalized: list[str],
        k: int,
        type_filter: str | None,
        snap: EngineSnapshot,
        deadline: float | None,
    ) -> tuple[list[list[Candidate]], np.ndarray, bool]:
        """The embedding path: model forward pass + index scan + dedup,
        all against the caller's pinned snapshot.  Returns the answers,
        the query embeddings they were scanned with and whether the scan
        was partial (a sharded search that lost a shard)."""
        clock, stages = time.perf_counter, self.stage_times
        if deadline is not None:
            self._check_deadline(deadline, "embed")
        start = clock()
        vectors = self._embed(normalized)
        stages["embed"].add(clock() - start)
        if deadline is not None:
            self._check_deadline(deadline, "search")
        allowed = (
            self.router.type_map.allowed(type_filter)
            if type_filter is not None
            else None
        )
        start = clock()
        result = self._search(vectors, k, type_filter, allowed, snap)
        stages["search"].add(clock() - start)
        if result.partial:
            with self._stats_lock:
                self._partial_results += 1
        # Closest row of an entity wins; ``allowed`` drops entities outside
        # the type filter; ``snap.rows`` matches the scan that produced
        # the ids.
        start = clock()
        rows = resolve_hits(
            result.ids, -result.distances, snap.rows, k, Candidate, allowed
        )
        stages["rank"].add(clock() - start)
        return rows, vectors, result.partial

    def _search(
        self,
        vectors: np.ndarray,
        k: int,
        type_filter: str | None,
        allowed: Collection[str] | None,
        snap: EngineSnapshot,
    ) -> SearchResult:
        """One full index scan under ``snap``; a type-constrained one is
        exact by construction.

        Over-fetching by the *impure row count* (rows whose entity is not
        admissible) guarantees the top-``fetch`` winners contain every
        admissible row the post-filtered scan would return, so rank-stage
        filtering yields bit-identical results.
        """
        impure = 0
        if type_filter is not None:
            impure = self._impure_row_count(type_filter, allowed, snap)
        fetch = fetch_size(k, snap.has_alias_rows, snap.index.rows, extra=impure)
        return self._index.search(vectors, fetch, snapshot=snap.index)

    def _impure_row_count(
        self, type_filter: str, allowed: Collection[str], snap: EngineSnapshot
    ) -> int:
        """Rows of ``snap``'s index resolving to entities ``type_filter``
        does not admit.

        Memoized per filter in the snapshot itself, so the memo is
        exactly as old as the entity set it was computed from.
        """
        count = snap.impure_rows.get(type_filter)
        if count is None:
            scanned = snap.rows[: snap.index.rows]
            count = sum(1 for entity_id in scanned if entity_id not in allowed)
            snap.impure_rows[type_filter] = count
        return count

    def _embed(self, normalized: list[str]) -> np.ndarray:
        """Embed normalized queries, memoizing repeats when cache enabled:
        ``(n, d)`` float32, C-contiguous (:meth:`_entering` reads the
        rows' bytes back as float32)."""
        if self.cache is None:
            return self.pipeline.embed_normalized(normalized)
        return self.cache.get_embeddings(
            normalized, self.pipeline.embed_normalized
        )

    # -- introspection ---------------------------------------------------------

    @property
    def index(self) -> VectorIndex:
        """The vector index the engine scans (flat or sharded)."""
        return self._index

    def stage_seconds(self) -> dict[str, float]:
        """Cumulative seconds per serving stage (cache/embed/search/rank)."""
        return {
            stage: watch.total for stage, watch in self.stage_times.items()
        }

    def serving_stats(self) -> dict[str, int]:
        """Degradation counters for dashboards and the fault-injection suite.

        ``partial_results`` counts searches served from surviving shards
        only; ``isolation_retries`` counts batches of several queries
        that fell back to query-by-query serving; ``flushes`` counts the
        batches of submitted queries served and ``flushed_queries`` the
        queries in them (their ratio is the mean batch size: 1.0 when
        every submit found the engine idle); ``failed_queries`` counts
        queries whose handle resolved with an exception;
        ``deadline_hits`` counts
        :class:`LookupDeadlineExceeded` raises; ``worker_respawns``
        counts shard worker processes the index replaced after a crash
        or a timed-out request (0 for non-process executors).

        Router tiers add ``exact_hits`` / ``fuzzy_routed`` /
        ``ann_routed`` (all 0 without a router).  The online-mutation
        path adds ``mutations_applied`` (change-feed records applied via
        :meth:`apply_mutation`), ``compactions``
        (successful :meth:`compact` swaps), and how selective cache
        invalidation was: ``results_stranded`` counts the cached answers
        the narrow rule stranded, one by one, ``cache_fallback_clears``
        the times a whole tier, the scoped answers or the entire result
        store went instead (both 0 without a cache).

        The engine counters are copied in one ``_stats_lock`` hold, so
        the snapshot is atomic with respect to concurrent serving
        threads.  The index's ``health_stats()``, the router's
        ``router_stats()`` and the cache's ``invalidation_counts()`` are
        read *before* the engine lock (each takes its own lock
        internally), so no two locks ever nest.
        """
        respawns = 0
        health = getattr(self._index, "health_stats", None)
        if callable(health):
            respawns = int(health().get("worker_respawns", 0))
        if self.router is not None:
            router_stats = self.router.router_stats()
        else:
            router_stats = {
                "exact_hits": 0,
                "fuzzy_routed": 0,
                "ann_routed": 0,
            }
        if self.cache is not None:
            invalidation = self.cache.invalidation_counts()
        else:
            invalidation = {"results_stranded": 0, "cache_fallback_clears": 0}
        with self._stats_lock:
            return {
                "partial_results": self._partial_results,
                "isolation_retries": self._isolation_retries,
                "flushes": self._flushes,
                "flushed_queries": self._flushed_queries,
                "failed_queries": self._failed_queries,
                "deadline_hits": self._deadline_hits,
                "worker_respawns": respawns,
                "mutations_applied": self._mutations_applied,
                "compactions": self._compactions,
                **router_stats,
                **invalidation,
            }

    def reset_timers(self) -> None:
        """Zero the whole-call timer, stage stopwatches, and router tiers."""
        super().reset_timers()
        for watch in self.stage_times.values():
            watch.reset()
        if self.router is not None:
            self.router.reset_timers()

    def index_bytes(self) -> int:
        """Storage of the engine's own index."""
        return self._index.memory_bytes()

    def close(self) -> None:
        """Serve outstanding queries, then release the index's workers.

        Waits for a flush in flight on another thread before the index
        goes away under it.  Idempotent; for a process-executor
        :class:`ShardedIndex` this stops the worker processes and unlinks
        their shared-memory segments, so an engine teardown never leaks
        either.
        """
        self.flush()
        with self._batch_done:
            while self._flushers:
                self._batch_done.wait()
        close = getattr(self._index, "close", None)
        if callable(close):
            close()

    def __enter__(self) -> "LookupEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
