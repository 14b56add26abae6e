"""Worker-process pool behind :class:`~repro.index.sharded.ShardedIndex`.

The ``"process"`` executor's half of the sharded index: the worker
mainloop and its request protocol, the parent-side worker handle, and
:class:`ProcessShardPool`, which exports a shard set once into
``multiprocessing.shared_memory`` segments (:mod:`repro.index.shm`) that
every worker maps read-only, so only query batches in and
``(distance, id)`` top-k tuples out ever cross a pipe.

Ownership: a pool is owned by exactly one sharded index, which creates
it under its write lock and closes it (``close()`` — stop the workers,
unlink every segment) before publishing any mutation that changes the
stored rows.  Nothing here is released by garbage collection: a started
pool that is collected without ``close()`` says so with a
``ResourceWarning``.
"""

from __future__ import annotations

import multiprocessing
import threading
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as _mp_wait
from time import monotonic

import numpy as np

from repro.index.base import VectorIndex
from repro.index.mutation import IndexSnapshot
from repro.index.shm import AttachedSegments, ShmRegistry

__all__ = ["ProcessShardPool", "ShardTimeoutError", "WorkerCrashedError"]


class ShardTimeoutError(TimeoutError):
    """A shard's scan missed its ``shard_timeout`` budget."""


class WorkerCrashedError(RuntimeError):
    """A shard's worker process died mid-request (before responding)."""


def _pinned_search(shard: VectorIndex, s: int, queries, k, rows, tombstones):
    """Scan ``shard`` under the parent's pinned ``(rows, tombstones)``.

    A pinned row count wider than the worker's exported store means the
    export predates an append the parent already published; that is an
    error, not a stale prefix to serve silently — the parent's retry
    lands on a re-exported pool.
    """
    local = shard.snapshot()
    if local.rows < rows:
        raise RuntimeError(
            f"stale shm export: shard {s} has {local.rows} rows, "
            f"snapshot wants {rows}"
        )
    pinned = replace(
        local, data=local.data[:rows], rows=rows, tombstones=tombstones
    )
    return shard.search(queries, k, snapshot=pinned)


def _shard_worker_main(conn, payloads: dict[int, tuple]) -> None:
    """Worker loop: rebuild each shard from its ``(class, to_shared
    state)`` payload over the parent's shm segments, serve search requests.

    Protocol (one in-flight request per worker, enforced parent-side):

    - recv ``("search", req_id, shard, queries, k, rows, tombstones)`` →
      send ``("ok", req_id, ids, distances, seconds)`` or
      ``("err", req_id, repr(exc))`` (see :func:`_pinned_search`).
    - recv ``("stop",)`` → detach segments and exit.
    """
    with AttachedSegments() as segments:
        try:
            shards = {
                s: cls.from_shared(state, segments.attach)
                for s, (cls, state) in payloads.items()
            }
            while True:
                try:
                    # The worker has nothing else to do between requests;
                    # blocking forever is the mainloop's contract, and the
                    # parent kills the process on shutdown/timeout.
                    msg = conn.recv()
                except (EOFError, OSError):
                    break
                if msg[0] == "stop":
                    break
                _, req_id, s, queries, k, rows, tombstones = msg
                try:
                    start = monotonic()
                    result = _pinned_search(
                        shards[s], s, queries, k, rows, tombstones
                    )
                    elapsed = monotonic() - start
                    conn.send(
                        ("ok", req_id, result.ids, result.distances, elapsed)
                    )
                except Exception as exc:  # serve the next request regardless
                    try:
                        conn.send(("err", req_id, repr(exc)))
                    except (BrokenPipeError, OSError):
                        break
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass


@dataclass(slots=True)
class _ShardWorker:
    """Parent-side handle of one worker process (pipe + request lock)."""

    shard_ids: tuple[int, ...]
    process: object | None = None
    conn: object | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    req_counter: int = 0
    # Set by kill_shard_worker so the next request skips the liveness
    # pre-heal and exercises the mid-request crash-detection path.
    injected_kill: bool = False


class ProcessShardPool:
    """Persistent worker processes serving one immutable shard set.

    ``start()`` exports every shard (its class plus its ``to_shared``
    state: constructor arguments and the bulk arrays, which go into one
    :class:`ShmRegistry` — an array several shards hold, such as the
    codebooks of their one quantizer, into one segment every worker
    maps) and spawns ``num_workers`` processes, shards assigned
    round-robin.
    ``request()`` runs one shard search on its worker with an optional
    deadline; a dead worker is respawned transparently (counted through
    ``on_respawn``) and the caller retries per the index's budget.
    ``close()`` stops the workers and unlinks every segment (idempotent).

    ``shards`` is the list object the owning index published; a search
    pinned on a different list (a compaction swapped the shard set)
    must not use this pool — its export describes other rows.
    """

    def __init__(
        self,
        shards: list[VectorIndex],
        num_workers: int,
        on_respawn: Callable[[int], None] | None = None,
    ):
        # fork reuses the parent's loaded interpreter (fast spawn);
        # spawn is the portable fallback.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self.shards = shards
        self.num_workers = min(num_workers, len(shards))
        self._on_respawn = on_respawn
        self._registry: ShmRegistry | None = None
        self._payloads: dict[int, tuple] = {}
        self._workers: list[_ShardWorker] = []
        self._worker_of: dict[int, _ShardWorker] = {}
        self._respawns = 0
        self._stats_lock = threading.Lock()
        self._started = False

    @property
    def started(self) -> bool:
        return self._started

    @property
    def respawns(self) -> int:
        with self._stats_lock:
            return self._respawns

    def shared_bytes(self) -> int:
        """Bytes of shard payload exported to shared memory (an array
        the shards share counted once)."""
        return self._registry.total_bytes() if self._registry else 0

    def worker_pids(self) -> list[int | None]:
        """Live worker pids, in worker order (None before spawn)."""
        return [
            w.process.pid if w.process is not None else None
            for w in self._workers
        ]

    def start(self) -> None:
        """Export payloads to shm and spawn the workers (idempotent)."""
        if self._started:
            return
        self._registry = ShmRegistry()
        try:
            self._payloads = {
                s: (type(shard), shard.to_shared(self._registry.share))
                for s, shard in enumerate(self.shards)
            }
        except BaseException:
            self._registry.close()
            self._registry = None
            raise
        self._workers = [
            _ShardWorker(tuple(range(w, len(self.shards), self.num_workers)))
            for w in range(self.num_workers)
        ]
        for worker in self._workers:
            for s in worker.shard_ids:
                self._worker_of[s] = worker
            self._spawn(worker)
        self._started = True

    def _spawn(self, worker: _ShardWorker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        payloads = {s: self._payloads[s] for s in worker.shard_ids}
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, payloads),
            daemon=True,
            name=f"shard-worker-{worker.shard_ids[0]}",
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn

    def _respawn(self, worker: _ShardWorker, shard: int) -> None:
        """Replace a dead/stuck worker with a fresh process."""
        if worker.process is not None:
            try:
                worker.process.kill()
                worker.process.join(timeout=5.0)
            except Exception:  # pragma: no cover - platform specific
                pass
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._spawn(worker)
        with self._stats_lock:
            self._respawns += 1
        if self._on_respawn is not None:
            self._on_respawn(shard)

    def kill_shard_worker(self, shard: int) -> None:
        """Kill the worker currently serving ``shard`` (fault injection).

        The worker is marked ``injected_kill`` so the next request sends
        into the dead pipe instead of pre-healing: the pipe's sentinel
        fires mid-wait and the request surfaces as a
        :class:`WorkerCrashedError` after the respawn — the exact path a
        worker OOM-killed mid-scan takes in production.
        """
        worker = self._worker_of[shard]
        with worker.lock:
            if worker.process is not None:
                worker.process.kill()
                worker.process.join(timeout=5.0)
                worker.injected_kill = True

    def request(
        self,
        shard: int,
        queries: np.ndarray,
        k: int,
        deadline: float | None,
        snap: IndexSnapshot,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """One shard search on its worker; ``(ids, distances, seconds)``.

        ``queries`` are the coordinator's checked ``(nq, d)`` float32 rows.
        ``snap`` is the caller's pinned snapshot of the shard; only its
        ``(rows, tombstones)`` pair rides the request — the rows
        themselves are already mapped by the worker — so removes are
        visible without re-exporting shared memory.

        Raises :class:`WorkerCrashedError` when the worker died before
        responding (after respawning it so the next attempt is clean),
        :class:`ShardTimeoutError` when ``deadline`` passes first (the
        stuck worker is killed and respawned — its scan cannot be
        cancelled, but the *pool* must not stay wedged), and
        ``RuntimeError`` when the worker reports a search error.
        """
        worker = self._worker_of[shard]
        with worker.lock:
            if worker.injected_kill:
                # Leave the corpse in place for this one request so the
                # send-into-dead-pipe detection below actually runs.
                worker.injected_kill = False
            elif worker.process is None or not worker.process.is_alive():
                self._respawn(worker, shard)
            worker.req_counter += 1
            req_id = worker.req_counter
            try:
                worker.conn.send(
                    ("search", req_id, shard, queries, k, snap.rows, snap.tombstones)
                )
            except (BrokenPipeError, OSError):
                self._respawn(worker, shard)
                raise WorkerCrashedError(
                    f"worker for shard {shard} died before accepting request"
                ) from None
            while True:
                timeout = None
                if deadline is not None:
                    timeout = max(0.0, deadline - monotonic())
                ready = _mp_wait(
                    [worker.conn, worker.process.sentinel], timeout=timeout
                )
                if worker.conn in ready:
                    try:
                        # _mp_wait above proved the pipe is readable, so
                        # this recv returns without blocking.
                        msg = worker.conn.recv()
                    except (EOFError, OSError):
                        self._respawn(worker, shard)
                        raise WorkerCrashedError(
                            f"worker for shard {shard} died mid-response"
                        ) from None
                    if msg[1] != req_id:  # stale reply from an old cycle
                        continue
                    if msg[0] == "ok":
                        return msg[2], msg[3], msg[4]
                    raise RuntimeError(
                        f"shard {shard} worker error: {msg[2]}"
                    )
                if not ready:  # deadline expired before data or death
                    self._respawn(worker, shard)
                    raise ShardTimeoutError(
                        f"shard {shard} worker missed its deadline"
                    )
                # Sentinel fired: the process died without responding.
                self._respawn(worker, shard)
                raise WorkerCrashedError(
                    f"worker for shard {shard} crashed mid-request"
                )

    def close(self) -> None:
        """Stop workers, close pipes, unlink shm segments (idempotent)."""
        workers, self._workers = self._workers, []
        self._worker_of = {}
        for worker in workers:
            with worker.lock:
                if worker.conn is not None:
                    try:
                        worker.conn.send(("stop",))
                    except (BrokenPipeError, OSError):
                        pass
        for worker in workers:
            with worker.lock:
                if worker.process is not None:
                    worker.process.join(timeout=5.0)
                    if worker.process.is_alive():  # pragma: no cover
                        worker.process.kill()
                        worker.process.join(timeout=5.0)
                    worker.process = None
                if worker.conn is not None:
                    try:
                        worker.conn.close()
                    except OSError:  # pragma: no cover
                        pass
                    worker.conn = None
        if self._registry is not None:
            self._registry.close()
            self._registry = None
        self._payloads = {}
        self._started = False

    def __del__(self) -> None:
        if getattr(self, "_started", False):
            warnings.warn(
                f"unclosed ProcessShardPool ({len(self._workers)} worker "
                "process(es)); its owner must call close()",
                ResourceWarning,
                source=self,
            )
            self.close()
