"""Sharded wrapper parallelising a scanning index across N sub-indexes.

Production entity retrievers (Gillick et al.'s dense retrieval stack,
FAISS's ``IndexShards``) split the vector store into shards and fan each
query batch out so shard scans overlap on multi-core hosts and each
shard's working set is a fraction of the store.

Vectors are striped round-robin by arrival order — the ``g``-th added
vector lands in shard ``g % num_shards`` — so the global id of a shard's
``local``-th row is ``local * num_shards + shard`` and per-shard results
remap arithmetically.  Fan-in ranks the shards' concatenated winners once
by ``(distance, id)``, the order of :mod:`repro.index.topk`; together with
the blockwise scans inside each shard this makes a sharded search return
*identical* results to the equivalent unsharded index, on either executor:

- ``"inline"`` (default) — shards scan serially on the calling thread.
  Owns no process and no shared memory; the fastest choice for single
  queries and on one core (DESIGN.md §9 has the measurements).  A serial
  scan cannot be pre-empted, so ``shard_timeout`` is applied per shard
  after it finishes.
- ``"process"`` — a persistent pool of worker processes
  (:mod:`repro.index.pool`) over shared-memory shard payloads, spawned
  lazily by the first search; the executor that scales with cores for
  batched scans.  A worker that crashes or times out is killed and
  respawned (counted in :meth:`ShardedIndex.health_stats`).  The index
  owns the pool: ``close()`` it, or use ``with``.

Failure semantics (identical across executors): a shard that raises is
retried (``max_retries``); a shard that still fails, or whose result
does not arrive within ``shard_timeout`` seconds, is *dropped* from the
fan-in and the search returns the merged top-k of the survivors with
``partial=True`` and the dead shards in ``failed_shards`` — one slow or
crashing shard degrades recall instead of failing the lookup.  Timeouts
are not retried (the hung scan cannot be cancelled).  ``fail_fast=True``
restores strict all-or-nothing behaviour.

Online mutation is the protocol of :mod:`repro.index.mutation` one level
up: the cross-shard state is one published ``_IndexView`` holding every
shard's own snapshot, swapped in at the end of every mutation, so a
search (which reads it once, or is handed it as ``snapshot=``) can never
observe shard 0 post-mutation but shard 1 pre-mutation.  On the process
executor each request ships its pinned ``(rows, tombstones)`` pair to
the worker: removes need no re-export; appends close the pool and the
next search re-exports.  :meth:`ShardedIndex.compact` rebuilds the shard
set off-lock and swaps it in all-or-nothing.

Fault injection: tests (see ``tests/support/faults.py``) pass a
``fault_hook`` — any object with optional methods ``before(shard)``
(called on the shard's coordinator before its search; may raise or
sleep), ``transform(shard, ids, distances) -> (ids, distances)`` (applied
to the shard's result before fan-in), ``should_kill(shard) -> bool``
(process executor: kill the shard's worker before the request, to
exercise crash detection → respawn → retry) and ``on_compaction(phase)``
(``"build"`` when a compaction starts rebuilding, ``"swap"`` immediately
before the swap; raising aborts it with the old shard set untouched).
Production code leaves it ``None``; the package never imports the test
harness.
"""

from __future__ import annotations

import threading
import warnings
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from concurrent.futures import TimeoutError as FutureTimeoutError
from time import monotonic
from typing import NamedTuple

import numpy as np

from repro.index.base import SearchResult, VectorIndex
from repro.index.flat import FlatIndex
from repro.index.mutation import check_row_ids, served_snapshot
from repro.index.pool import (
    ProcessShardPool,
    ShardTimeoutError,
    WorkerCrashedError,
)
from repro.index.topk import _pad_topk, _rank_topk

__all__ = [
    "AllShardsFailedError",
    "ShardedIndex",
    "ShardTimeoutError",
    "WorkerCrashedError",
]

_EXECUTORS = ("inline", "process")


class AllShardsFailedError(RuntimeError):
    """Every shard of a sharded search failed or timed out."""


def _train_shards(shards: list[VectorIndex], vectors: np.ndarray) -> None:
    """One fit per fan-out: the first shard trains on ``vectors``, every
    other shard is handed the quantizer it trained — that object, not a
    copy (``RowStore.use_codec``) — so all shards encode against one set
    of codebooks, held once."""
    first, *rest = shards
    first.train(vectors)
    codec = first.snapshot().codec
    for shard in rest:
        shard.use_codec(codec)


class _IndexView(NamedTuple):
    """One immutable cross-shard state, published by one attribute swap.

    ``shards`` is the shard *set* — one list object per compaction swap,
    never mutated in place, so its identity tells a search whether the
    process pool's shm export describes the shards it pinned.  ``snaps``
    holds each shard's own snapshot, captured under the write lock in the
    same publish.  ``rows`` is the global row-id space, ``epoch`` the
    publish count.
    """

    shards: list[VectorIndex]
    snaps: tuple
    rows: int
    epoch: int

    @property
    def tombstone_count(self) -> int:
        return sum(snap.tombstone_count for snap in self.snaps)

    @property
    def nlive(self) -> int:
        return self.rows - self.tombstone_count

    def check_removable(self, ids: np.ndarray) -> dict[int, np.ndarray]:
        """Per-shard local row ids of the global ``ids``.

        Every shard's batch is checked against its pinned snapshot before
        the caller touches *any* shard (``ValueError``), so a bad id in
        one shard cannot leave another half-mutated.
        """
        num_shards = len(self.snaps)
        lanes = ids % num_shards
        plan: dict[int, np.ndarray] = {}
        for s, snap in enumerate(self.snaps):
            local = ids[lanes == s] // num_shards
            if len(local):
                snap.check_removable(local)
                plan[s] = local
        return plan


@dataclass(slots=True)
class _ShardHealth:
    """Per-shard serving counters (mutated under the index's stats lock).

    ``seconds`` is the coordinator's wall per search: hooks, retries and,
    on the process executor, pickling and the pipe round trip.
    ``scan_seconds`` is the part the shard spent scanning: the worker's
    own clock on the process executor, the wall around ``shard.search``
    inline.  The difference is what the transport costs.
    """

    searches: int = 0
    failures: int = 0
    timeouts: int = 0
    retries: int = 0
    respawns: int = 0
    seconds: float = 0.0
    scan_seconds: float = 0.0


class ShardedIndex(VectorIndex):
    """Round-robin striped fan-out over ``num_shards`` child indexes.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    num_shards:
        Number of child indexes (and fan-out width of every search).
    factory:
        ``factory(dim) -> VectorIndex`` building one (empty) shard; defaults
        to flat shards.  A shard must meet the serving contract
        (:func:`repro.index.mutation.served_snapshot`; ``TypeError``
        otherwise) — a :class:`~repro.index.mutation.RowStore`, whose
        ``to_shared`` / ``live`` the process executor and :meth:`compact`
        use.  Every shard must be built alike: ``train`` and
        :meth:`compact` fit the first shard's quantizer on the full
        matrix and hand that one object to the others, seeded factory or
        not; it is held, exported and counted once.
    executor:
        ``"inline"`` (default) | ``"process"`` — the fan-out execution
        model (module docstring).
    num_workers:
        Worker processes for the process executor (shards are assigned
        round-robin when fewer workers than shards).  ``None`` (the
        default) means ``num_shards``; below 1 is a ``ValueError``.
        Unused by the inline executor.
    shard_timeout:
        Seconds one search waits for its shard fan-out (one deadline
        shared by the concurrently-running shards; the inline executor
        necessarily budgets per shard).  ``None`` waits forever.
    max_retries:
        Bounded retries after a shard search raises (immediately, on the
        same coordinator; a crashed worker is respawned first).
    fail_fast:
        When ``True``, re-raise the first shard failure instead of
        degrading to a partial result.
    fault_hook:
        Optional fault-injection hook (see module docstring); production
        callers leave this ``None``.
    """

    def __init__(
        self,
        dim: int,
        num_shards: int,
        factory: Callable[[int], VectorIndex] | None = None,
        executor: str = "inline",
        num_workers: int | None = None,
        shard_timeout: float | None = None,
        max_retries: int = 1,
        fail_fast: bool = False,
        fault_hook: object | None = None,
    ):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if executor not in _EXECUTORS:
            raise ValueError(
                f"executor must be one of {_EXECUTORS}, got {executor!r}"
            )
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be positive or None, got {shard_timeout}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if num_workers is not None and num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1 or None, got {num_workers}"
            )
        self.dim = dim
        self.num_shards = num_shards
        self._factory = factory if factory is not None else FlatIndex
        shards = [self._factory(dim) for _ in range(num_shards)]
        for shard in shards:
            if shard.dim != dim:
                raise ValueError(
                    f"factory built a dim-{shard.dim} shard, expected {dim}"
                )
        self._write_lock = threading.Lock()
        self._view = _IndexView(shards, tuple(map(served_snapshot, shards)), 0, 0)
        self.executor = executor
        self._num_workers = num_shards if num_workers is None else num_workers
        self._executor: ThreadPoolExecutor | None = None
        self._process_pool: ProcessShardPool | None = None
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self.fail_fast = fail_fast
        self.fault_hook = fault_hook
        self._stats_lock = threading.Lock()
        self._health = [_ShardHealth() for _ in range(num_shards)]
        self._partial_searches = 0
        self._total_searches = 0

    @property
    def shards(self) -> list[VectorIndex]:
        """The child indexes (read-only; mutate only through this class)."""
        return list(self._view.shards)

    @property
    def is_trained(self) -> bool:
        return all(shard.is_trained for shard in self._view.shards)

    @property
    def ntotal(self) -> int:
        return self._view.rows

    @property
    def nlive(self) -> int:
        """Rows visible to a search (stored minus tombstoned)."""
        return self._view.nlive

    @property
    def tombstone_count(self) -> int:
        """Removed rows awaiting :meth:`compact`, across all shards."""
        return self._view.tombstone_count

    @property
    def mutation_epoch(self) -> int:
        """Published mutation count; changes iff the visible set changed."""
        return self._view.epoch

    def snapshot(self) -> _IndexView:
        """The currently published cross-shard view (atomic read)."""
        return self._view

    def _publish(
        self, rows: int, shards: list[VectorIndex] | None = None
    ) -> None:
        """Swap in the next view; caller holds ``_write_lock``."""
        if shards is None:
            shards = self._view.shards
        snaps = tuple(shard.snapshot() for shard in shards)
        self._view = _IndexView(shards, snaps, rows, self._view.epoch + 1)

    def _stripe(
        self, shards: list[VectorIndex], vectors: np.ndarray, base: int
    ) -> None:
        """Add ``vectors`` round-robin, the first landing in lane
        ``base % num_shards`` (``base`` = rows stored before them)."""
        lanes = (base + np.arange(len(vectors), dtype=np.int64)) % self.num_shards
        for s, shard in enumerate(shards):
            rows = vectors[lanes == s]
            if len(rows):
                shard.add(rows)

    def train(self, vectors: np.ndarray) -> None:
        """Train on the full matrix: one fit, every shard the same
        quantizer (:func:`_train_shards`)."""
        vectors = self._check_vectors(vectors, "training vectors")
        with self._write_lock:
            self._invalidate_workers()
            _train_shards(self._view.shards, vectors)
            self._publish(self._view.rows)

    def add(self, vectors: np.ndarray) -> None:
        """Stripe a batch round-robin by global arrival order."""
        vectors = self._check_vectors(vectors, "vectors")
        if len(vectors) == 0:
            return
        with self._write_lock:
            view = self._view
            self._invalidate_workers()
            self._stripe(view.shards, vectors, view.rows)
            self._publish(view.rows + len(vectors))

    def remove(self, ids) -> None:
        """Tombstone global row ids across shards (all-or-nothing).

        No shm re-export happens: the tombstones ride each search
        request.
        """
        with self._write_lock:
            view = self._view
            plan = view.check_removable(check_row_ids(ids, view.rows))
            for s, local in plan.items():
                view.shards[s].remove(local)
            self._publish(view.rows)

    def update(self, ids, vectors: np.ndarray) -> np.ndarray:
        """Atomically replace global rows: tombstone ``ids``, append rows.

        Both halves happen under one write-lock hold with a single view
        publish at the end, so a concurrent search sees the whole update
        or none of it.  Returns the new rows' global ids.
        """
        vectors = self._check_vectors(vectors, "vectors")
        with self._write_lock:
            view = self._view
            plan = view.check_removable(check_row_ids(ids, view.rows))
            self._invalidate_workers()
            for s, local in plan.items():
                view.shards[s].remove(local)
            self._stripe(view.shards, vectors, view.rows)
            self._publish(view.rows + len(vectors))
            return view.rows + np.arange(len(vectors), dtype=np.int64)

    def _gather_live(self, view: _IndexView) -> tuple[np.ndarray, np.ndarray]:
        """``(global ids, float32 vectors)`` of a pinned view's live rows,
        in global-id order.

        Each shard's snapshot hands over its own live rows (coded shards
        decode them — compaction re-encodes against freshly trained
        codebooks).
        """
        all_ids: list[np.ndarray] = []
        all_vecs: list[np.ndarray] = []
        for s, snap in enumerate(view.snaps):
            local, vecs = snap.live()
            all_ids.append(local * self.num_shards + s)
            all_vecs.append(vecs)
        ids = np.concatenate(all_ids)
        order = np.argsort(ids, kind="stable")
        return ids[order], np.concatenate(all_vecs)[order]

    def compact(self) -> np.ndarray | None:
        """Rebuild the shard set without tombstoned rows; swap atomically.

        The expensive rebuild — gathering live vectors, re-training PQ
        codebooks on them (one fit for the whole shard set), re-striping —
        runs *off-lock* against a pinned view, so serving traffic (and
        other mutators) proceed meanwhile.
        The swap is all-or-nothing: it is abandoned (returning ``None``)
        when any mutation was published during the rebuild, and searches
        pinned on the old view keep scanning the old shard objects, which
        the swap never mutates.  On success returns the old-to-new
        global-id remap (``-1`` for removed rows); live rows are
        re-striped round-robin in old-global-id order.  An exception from
        ``fault_hook.on_compaction`` (module docstring) aborts with the
        old shard set intact.
        """
        on_compaction = getattr(self.fault_hook, "on_compaction", None)
        with self._write_lock:
            view = self._view
        if not view.tombstone_count:
            return None
        if on_compaction is not None:
            on_compaction("build")
        live_ids, live_vecs = self._gather_live(view)
        new_shards = [self._factory(self.dim) for _ in range(self.num_shards)]
        if any(not shard.is_trained for shard in new_shards) and len(live_vecs):
            _train_shards(new_shards, live_vecs)
        self._stripe(new_shards, live_vecs, 0)
        if on_compaction is not None:
            on_compaction("swap")
        with self._write_lock:
            if self._view.epoch != view.epoch:
                # A mutation landed during the rebuild: the gathered set
                # is stale.  All-or-nothing — leave the old shards
                # serving and let the caller retry.
                return None
            self._invalidate_workers()
            self._publish(len(live_vecs), new_shards)
            remap = np.full(view.rows, -1, dtype=np.int64)
            remap[live_ids] = np.arange(len(live_ids), dtype=np.int64)
            return remap

    @property
    def retrains_on_compact(self) -> bool:
        """Whether :meth:`compact` re-codes rows (any shard's family does)."""
        return any(shard.retrains_on_compact for shard in self._view.shards)

    def pair_distances(
        self, queries: np.ndarray, ids, snapshot: _IndexView | None = None
    ) -> np.ndarray:
        """:meth:`RowStore.pair_distances` over global row ids: each pair
        is scored by the shard that holds the row, on the coordinator's
        copy of it (what a worker scans is the same bytes).  The shards
        validate: round-robin striping makes a global id valid exactly
        when its local id is."""
        queries = self._check_vectors(queries, "queries")
        view = snapshot if snapshot is not None else self._view
        row_ids = np.asarray(ids, dtype=np.int64).ravel()
        # float64 like the shards' exact kernels.
        out = np.empty((len(queries), len(row_ids)), dtype=np.float64)  # repro: noqa[REP102]
        lanes = row_ids % self.num_shards
        for s in set(lanes.tolist()):
            cols = np.flatnonzero(lanes == s)
            out[:, cols] = view.shards[s].pair_distances(
                queries, row_ids[cols] // self.num_shards, snapshot=view.snaps[s]
            )
        return out

    # -- executors -------------------------------------------------------------

    def resolved_executor(self) -> str:
        """The executor ``search`` uses (the e2e benchmark's host record
        reads it: ``benchmarks/e2e/run.py``)."""
        return self.executor

    def _pool(self) -> ThreadPoolExecutor:
        """Coordinator threads of the process executor: one per shard,
        each blocked on its worker's pipe while the worker scans."""
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.num_shards,
                thread_name_prefix="shard-search",
            )
        return self._executor

    def _worker_pool(self) -> ProcessShardPool:
        """The live process pool, (re)created under the write lock.

        Serialising creation with mutators guarantees the shm export is
        a consistent snapshot of the *latest published* view — a pool
        can never be born covering half an in-progress ``add``.  Any
        older pinned view then reads a prefix of the export (safe); any
        newer mutation closes this pool before publishing.
        """
        with self._write_lock:
            if self._process_pool is None:
                self._process_pool = ProcessShardPool(
                    self._view.shards,
                    num_workers=self._num_workers,
                    on_respawn=self._count_respawn,
                )
            self._process_pool.start()
            return self._process_pool

    def _count_respawn(self, shard: int) -> None:
        with self._stats_lock:
            self._health[shard].respawns += 1

    def _invalidate_workers(self) -> None:
        """Drop the worker pool: its shm payload no longer matches."""
        if self._process_pool is not None:
            self._process_pool.close()
            self._process_pool = None

    # -- searching -------------------------------------------------------------

    def _search_shard(
        self,
        s: int,
        queries: np.ndarray,
        k: int,
        deadline: float | None,
        view: _IndexView,
    ) -> SearchResult:
        """One shard's search on its coordinator, with bounded retries.

        The shard object and its snapshot come from the pinned ``view``,
        never from ``self``, so a compaction swapping the shard set
        mid-search cannot tear this search.  A pool whose shm export
        belongs to a *different* shard set (the list changed identity in
        a compaction swap) is bypassed with an inline scan over the
        pinned old shard objects — the swap leaves them intact.
        """
        hook = self.fault_hook
        before = getattr(hook, "before", None)
        transform = getattr(hook, "transform", None)
        should_kill = getattr(hook, "should_kill", None)
        shard = view.shards[s]
        snap = view.snaps[s]
        attempts = self.max_retries + 1
        scanned = 0.0
        start = monotonic()
        try:
            for attempt in range(attempts):
                try:
                    if before is not None:
                        before(s)
                    pool = (
                        self._worker_pool()
                        if self.executor == "process"
                        else None
                    )
                    if pool is not None and pool.shards is view.shards:
                        if should_kill is not None and should_kill(s):
                            pool.kill_shard_worker(s)
                        ids, distances, seconds = pool.request(
                            s, queries, k, deadline, snap
                        )
                        result = SearchResult(ids=ids, distances=distances)
                        scanned += seconds
                    else:
                        scan_start = monotonic()
                        result = shard.search(queries, k, snapshot=snap)
                        scanned += monotonic() - scan_start
                    if transform is not None:
                        ids, distances = transform(
                            s, result.ids, result.distances
                        )
                        result = SearchResult(ids=ids, distances=distances)
                    return result
                except ShardTimeoutError:
                    raise  # never retried; the pool already respawned
                except Exception:
                    if attempt + 1 >= attempts:
                        raise
                    with self._stats_lock:
                        self._health[s].retries += 1
            raise AssertionError("unreachable")  # pragma: no cover
        finally:
            elapsed = monotonic() - start
            with self._stats_lock:
                self._health[s].seconds += elapsed
                self._health[s].scan_seconds += scanned

    def _inline_outcomes(
        self, queries: np.ndarray, k: int, view: _IndexView
    ) -> list[tuple[SearchResult | None, bool, BaseException | None]]:
        """Serial fan-out: per-shard ``(result, timed_out, error)`` rows.

        Each shard gets its own ``shard_timeout`` budget, checked after
        the scan: a shard whose own wall time blew it is dropped exactly
        like a timed-out concurrent shard, which keeps fault-injection
        delay tests deterministic on any host.
        """
        outcomes: list = []
        for s in range(self.num_shards):
            started = monotonic()
            try:
                result = self._search_shard(s, queries, k, None, view)
            except Exception as exc:
                outcomes.append((None, False, exc))
                continue
            elapsed = monotonic() - started
            if (
                self.shard_timeout is not None
                and elapsed > self.shard_timeout
            ):
                outcomes.append((None, True, None))
            else:
                outcomes.append((result, False, None))
        return outcomes

    def search(
        self,
        queries: np.ndarray,
        k: int,
        snapshot: _IndexView | None = None,
    ) -> SearchResult:
        queries = self._check_vectors(queries, "queries")
        self._check_k(k)
        # Pin the cross-shard state once: every shard scan and the fan-in
        # below read this view, never self._view again.
        view = snapshot if snapshot is not None else self._view
        if self.executor == "inline":
            outcomes = self._inline_outcomes(queries, k, view)
        else:
            # Spawn (or re-export) the worker pool on the calling thread
            # before fanning out: pool start is not coordinator-safe,
            # and shard_timeout budgets the fan-out, not the spawn.
            self._worker_pool()
            deadline = (
                monotonic() + self.shard_timeout
                if self.shard_timeout is not None
                else None
            )
            futures = [
                self._pool().submit(
                    self._search_shard, s, queries, k, deadline, view
                )
                for s in range(self.num_shards)
            ]
            outcomes = []
            for future in futures:
                # shard_timeout=None explicitly selects wait-forever.
                left = None if deadline is None else max(0.0, deadline - monotonic())
                try:
                    outcomes.append((future.result(timeout=left), False, None))
                except (FutureTimeoutError, ShardTimeoutError):
                    outcomes.append((None, True, None))
                except Exception as exc:
                    outcomes.append((None, False, exc))
        return self._fan_in(outcomes, queries, k, view)

    def _fan_in(
        self,
        outcomes: list[tuple[SearchResult | None, bool, BaseException | None]],
        queries: np.ndarray,
        k: int,
        view: _IndexView,
    ) -> SearchResult:
        """Rank the surviving shards' winners once (partition invariance
        makes one rank of the concatenation equal any fold of merges),
        bookkeeping health and degradation."""
        ids = [np.empty((len(queries), 0), dtype=np.int64)]
        # Result distances follow the SearchResult contract, not storage.
        distances = [np.empty((len(queries), 0), dtype=np.float64)]  # repro: noqa[REP102]
        failed: list[int] = []
        for s, (result, timed_out, error) in enumerate(outcomes):
            with self._stats_lock:
                self._health[s].searches += 1
                if result is None:
                    self._health[s].failures += 1
                    if timed_out:
                        self._health[s].timeouts += 1
            if result is None:
                if self.fail_fast:
                    with self._stats_lock:
                        self._total_searches += 1
                    if error is not None:
                        raise error
                    raise TimeoutError(
                        f"shard {s} exceeded shard_timeout="
                        f"{self.shard_timeout}s"
                    )
                failed.append(s)
                continue
            # local row r of shard s holds global id r * num_shards + s.
            # (Every shard scanned under the snapshot this view pinned,
            # so its tombstones are already excluded.)
            ids.append(
                np.where(
                    result.ids >= 0,
                    result.ids * self.num_shards + s,
                    np.int64(-1),
                )
            )
            distances.append(result.distances)
        with self._stats_lock:
            self._total_searches += 1
            if failed:
                self._partial_searches += 1
        if len(failed) == self.num_shards:
            raise AllShardsFailedError(
                f"all {self.num_shards} shards failed or timed out"
            )
        run_ids, run_d = _rank_topk(
            np.concatenate(ids, axis=1), np.concatenate(distances, axis=1), k
        )
        run_ids, run_d = _pad_topk(run_ids, run_d, k)
        return SearchResult(
            ids=run_ids,
            distances=run_d,
            partial=bool(failed),
            failed_shards=tuple(failed),
        )

    # -- introspection ---------------------------------------------------------

    def health_stats(self) -> dict:
        """Serving-health snapshot: per-shard counters plus search totals.

        ``partial_searches`` counts degraded (survivor-only) results;
        ``worker_respawns`` is the pool-wide respawn total.  Per shard,
        ``seconds`` is the coordinator's wall (transport included) and
        ``scan_seconds`` the shard's own scan clock, never more than
        ``seconds`` (see :class:`_ShardHealth`).  Atomic:
        every per-shard dict and both totals are copied under one
        ``_stats_lock`` hold.  The pool respawn counter is read *before*
        taking the index lock (it takes the pool's own lock internally —
        never nest the two).
        """
        pool = self._process_pool
        worker_respawns = pool.respawns if pool is not None else 0
        with self._stats_lock:
            return {
                "shards": [asdict(h) for h in self._health],
                "total_searches": self._total_searches,
                "partial_searches": self._partial_searches,
                "executor": self.executor,
                "worker_respawns": worker_respawns,
            }

    def memory_bytes(self) -> int:
        """Every shard's rows plus each distinct codec once: the shards
        of a coded index share one quantizer (:func:`_train_shards`)."""
        view = self._view
        codecs = {
            id(snap.codec): snap.codec
            for snap in view.snaps
            if snap.codec is not None
        }
        return sum(shard.row_bytes() for shard in view.shards) + sum(
            codec.nbytes for codec in codecs.values()
        )

    def close(self) -> None:
        """Stop the worker processes and coordinator threads and unlink
        shared memory (idempotent; the next search re-creates them)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._process_pool is not None:
            self._process_pool.close()
            self._process_pool = None

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        if getattr(self, "_process_pool", None) or getattr(
            self, "_executor", None
        ):
            warnings.warn(
                f"unclosed ShardedIndex (executor={self.executor!r}) still "
                "owns worker processes; call close() or use it as a context "
                "manager",
                ResourceWarning,
                source=self,
            )
            self.close()
