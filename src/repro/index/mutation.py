"""Snapshots, tombstones and the row store behind online index mutation.

The index family supports ``add`` / ``remove`` / ``update`` / ``compact``
under live search traffic.  One mechanism makes a concurrent search safe,
at every level of the stack: **a snapshot is one immutable object that
holds everything its reader needs, published by one attribute swap**.

:class:`RowStore` owns that protocol for the scanning indexes.  Mutators
serialize on its write lock, build a **new** :class:`IndexSnapshot`
(tombstone bitmaps are copy-on-write, appends only write beyond the
published length of a :class:`~repro.index.buffer.GrowBuffer`, a
compaction builds a new buffer) and publish it with one attribute
assignment, atomic under the GIL.  A search reads the attribute **once**
and scans what the snapshot holds; nothing a later mutation does — not
even a compaction that replaces the buffer and re-trains the codec — can
reach into a published snapshot, so a reader never re-reads, never
retries and never takes a lock.

The result is the *old-or-new* invariant ``tests/property/
test_mutation.py`` enforces: a lookup concurrent with a mutation equals
the brute-force oracle over either the pre- or the post-mutation entity
set, never a torn mixture.  The fan-out index (:mod:`repro.index.
sharded`) and the serving engine publish their own snapshots the same
way, each holding those of the level below — which is why every level
*requires* the level below to have one:
:func:`served_snapshot` is the single statement of what the serving stack
may hold, checked where an index enters it.
"""

from __future__ import annotations

import inspect
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.index.base import SearchResult, VectorIndex
from repro.index.buffer import GrowBuffer
from repro.index.topk import _left_pack, _pad_topk, auto_block_size, merge_topk

__all__ = [
    "IndexSnapshot",
    "RowStore",
    "bury",
    "check_row_ids",
    "extend_tombstones",
    "served_snapshot",
    "validate_removable",
]


@dataclass(frozen=True, eq=False)
class IndexSnapshot:
    """One immutable state of a mutable scanning index.

    ``data`` is the ``(rows, cols)`` stored matrix as of the publish, a
    view nothing writes to again; ``codec`` is what decodes it (``None``
    for verbatim float32 vectors, otherwise the quantizer whose codes
    ``data`` holds).  ``tombstones`` is a read-only boolean bitmap over
    the rows (``None``: every row is live); ``epoch`` increases by one
    per publish, so equal epochs identify a state.
    """

    data: np.ndarray
    codec: object | None
    rows: int
    tombstones: np.ndarray | None
    epoch: int

    @property
    def tombstone_count(self) -> int:
        """Number of removed (but not yet compacted) rows."""
        if self.tombstones is None:
            return 0
        return int(self.tombstones.sum())

    @property
    def nlive(self) -> int:
        """Rows visible to a search pinned on this snapshot."""
        return self.rows - self.tombstone_count

    def live(self) -> tuple[np.ndarray, np.ndarray]:
        """``(row ids, float32 vectors)`` of the live rows; coded rows
        come back decoded (what a compaction re-trains from)."""
        if self.tombstones is None:
            ids = np.arange(self.rows, dtype=np.int64)
        else:
            ids = np.flatnonzero(~self.tombstones).astype(np.int64)
        rows = self.data[ids]
        return ids, rows if self.codec is None else self.codec.decode(rows)

    def check_removable(self, ids: np.ndarray) -> None:
        """Raise ``ValueError`` when any of ``ids`` is already removed."""
        validate_removable(self.tombstones, ids)


def served_snapshot(index: VectorIndex) -> object:
    """``index``'s published snapshot — or ``TypeError``, naming its
    class, when ``index`` is not something the serving stack may hold.

    The stack (:class:`~repro.index.sharded.ShardedIndex`,
    :class:`~repro.serving.engine.LookupEngine`) holds an index only if
    ``index.snapshot()`` returns an immutable object with ``rows`` (the
    row-id space it pins), ``tombstone_count`` and ``check_removable(ids)``
    (``ValueError`` when an id of that space, already validated by
    :func:`check_row_ids`, is removed — a fan-out level asks every child
    before it touches any), ``index.search`` scans a pinned one handed
    back as ``snapshot=``, and the index has ``compact``,
    ``retrains_on_compact`` and ``pair_distances`` (what
    :class:`RowStore` gives).  Each container calls this on what enters
    it, before anything is spawned or edited, and afterwards pins
    ``index.snapshot()`` and calls those three without asking again.
    """
    snapshot = getattr(index, "snapshot", None)
    snap = snapshot() if callable(snapshot) else None
    missing = [
        f"snapshot().{name}"
        for name in ("rows", "tombstone_count", "check_removable")
        if not hasattr(snap, name)
    ]
    if "snapshot" not in inspect.signature(type(index).search).parameters:
        missing.append("search(snapshot=)")
    missing += [
        name
        for name in ("compact", "retrains_on_compact", "pair_distances")
        if not hasattr(type(index), name)
    ]
    if missing:
        raise TypeError(
            f"{type(index).__name__} cannot be served: it has no "
            f"{', '.join(missing)} (repro.index.mutation.served_snapshot "
            "states the contract)"
        )
    return snap


def check_row_ids(ids, rows: int) -> np.ndarray:
    """Validate a caller-supplied row-id batch against ``rows`` stored rows.

    Returns the ids as a 1-D int64 array.  Raises ``ValueError`` for
    non-integer input, out-of-range ids, or duplicates (a duplicate in a
    ``remove`` batch is a double-free).
    """
    out = np.asarray(ids)  # repro: noqa[REP101] -- dtype validated below
    if out.size == 0:
        return np.empty(0, dtype=np.int64)
    if out.dtype.kind not in "iu":
        raise ValueError(f"row ids must be integers, got dtype {out.dtype}")
    out = out.astype(np.int64, copy=False).ravel()
    if out.min() < 0 or out.max() >= rows:
        raise ValueError(
            f"row ids must be in [0, {rows}), got range "
            f"[{out.min()}, {out.max()}]"
        )
    # Not ``np.unique``: its first call imports ``numpy.ma`` (tens of ms)
    # on the mutation thread, under the engine's mutation lock.
    ordered = np.sort(out)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("duplicate row ids in one mutation batch")
    return out


def extend_tombstones(
    tombstones: np.ndarray | None, extra: int
) -> np.ndarray | None:
    """Copy-on-write extension of a bitmap by ``extra`` live rows."""
    if tombstones is None:
        return None
    return np.concatenate([tombstones, np.zeros(extra, dtype=bool)])


def validate_removable(tombstones: np.ndarray | None, ids: np.ndarray) -> None:
    """Raise ``ValueError`` when any id is already tombstoned."""
    if tombstones is None or ids.size == 0:
        return
    dead = ids[tombstones[ids]]
    if dead.size:
        raise ValueError(f"row ids already removed: {dead.tolist()}")


def bury(
    tombstones: np.ndarray | None, rows: int, ids: np.ndarray
) -> np.ndarray:
    """New ``(rows,)`` bool bitmap with ``ids`` tombstoned (copy-on-write).

    ``ids`` must already be validated by :func:`check_row_ids`; a
    double-remove raises ``ValueError`` before anything is written.
    """
    validate_removable(tombstones, ids)
    if tombstones is None:
        out = np.zeros(rows, dtype=bool)
    else:
        out = np.concatenate(
            [tombstones, np.zeros(rows - len(tombstones), dtype=bool)]
        )
    out[ids] = True
    return out


class RowStore(VectorIndex):
    """A scanning index: append-only rows + tombstones behind one
    published snapshot.  The base of :class:`~repro.index.flat.FlatIndex`
    and :class:`~repro.index.pq.PQIndex`, which add only what differs.

    Holds a :class:`~repro.index.buffer.GrowBuffer`, the write lock
    mutators serialize on, and the current :class:`IndexSnapshot`.
    ``codec`` (``None`` or an object with ``encode`` / ``decode`` and
    its own ``nbytes``) turns the float32 vectors callers hand in into
    the stored rows; encoding runs under the write lock, so always with
    the codec the rows are published with.

    **One scan skeleton, two kernels per family.**  :meth:`search` is the
    only block loop: pin a snapshot, then per block — tombstoned columns,
    the family's *coarse* float32 keep-mask, left-pack the survivors, the
    family's *exact* float64 re-score of those few, merge into the running
    top-k by ``(pad-last, distance, id)``.  A subclass sets ``dim`` /
    ``block_size`` / ``_bytes_per_score``, implements
    :meth:`_scan_kernels`, and may set ``_rebuild`` (see :meth:`compact`).
    The coarse mask may drop only rows it can prove are outside the top
    ``k``; because the exact kernel is pair-pure, ids *and* distances are
    then bit-identical whatever the block size, shard count or row
    position (DESIGN.md §9).
    """

    block_size: int | None = None
    #: Bytes of coarse tile alive per (query, row) of a block, for the
    #: block heuristic: 4 per ``(nq, block)`` float32 array the family's
    #: coarse kernel holds at once.
    _bytes_per_score: int
    _rebuild: Callable | None = None

    def __init__(
        self, cols: int, dtype: np.dtype | type, codec: object | None = None
    ) -> None:
        self._buf = GrowBuffer(cols, dtype)
        self._write_lock = threading.Lock()
        self._snap = IndexSnapshot(self._buf.view, codec, 0, None, 0)

    def _wrap(self, rows: np.ndarray) -> None:
        """Serve an existing (possibly read-only, shared-memory) matrix
        zero-copy; see :meth:`GrowBuffer.wrap`.  Shard-worker set-up,
        before the index is shared with any reader."""
        self._buf = GrowBuffer.wrap(rows)
        self._snap = IndexSnapshot(
            self._buf.view, self._snap.codec, len(rows), None, 0
        )

    def snapshot(self) -> IndexSnapshot:
        """The currently published snapshot (one atomic attribute read)."""
        return self._snap

    @property
    def ntotal(self) -> int:
        """Stored rows, including tombstoned ones (the row-id space)."""
        return self._snap.rows

    @property
    def nlive(self) -> int:
        """Rows visible to a search (stored minus tombstoned)."""
        return self._snap.nlive

    @property
    def tombstone_count(self) -> int:
        """Removed rows awaiting :meth:`compact`."""
        return self._snap.tombstone_count

    @property
    def mutation_epoch(self) -> int:
        """Published mutation count; changes iff the visible set changed."""
        return self._snap.epoch

    def row_bytes(self) -> int:
        """Logical payload bytes plus the tombstone bitmap: the store's
        own bytes, without its codec."""
        tombstones = self._snap.tombstones
        return self._buf.nbytes() + (
            tombstones.nbytes if tombstones is not None else 0
        )

    def memory_bytes(self) -> int:
        """:meth:`row_bytes` plus the codec's ``nbytes`` (its codebooks)."""
        codec = self._snap.codec
        return self.row_bytes() + (codec.nbytes if codec is not None else 0)

    def use_codec(self, codec: object | None) -> None:
        """Publish ``codec`` as what encodes (and decodes) the store's
        rows from now on: the codec itself, not a copy, so stores that
        are handed one trained quantizer hold it once.  Rows already
        stored are not re-encoded."""
        with self._write_lock:
            snap = self._snap
            if codec is not snap.codec:
                self._publish(snap.tombstones, codec)

    def _publish(
        self, tombstones: np.ndarray | None, codec: object | None
    ) -> None:
        """Swap in the next snapshot; caller holds ``_write_lock``."""
        self._snap = IndexSnapshot(
            self._buf.view,
            codec,
            len(self._buf),
            tombstones,
            self._snap.epoch + 1,
        )

    def _append(self, vectors: np.ndarray, what: str) -> np.ndarray:
        """Validate, encode and buffer ``vectors`` (not yet published)."""
        if not self.is_trained:
            raise RuntimeError(
                f"{type(self).__name__}.{what} called before train()"
            )
        vectors = self._check_vectors(vectors, "vectors")
        codec = self._snap.codec
        self._buf.append(vectors if codec is None else codec.encode(vectors))
        return vectors

    def add(self, vectors: np.ndarray) -> None:
        """Append rows (new row ids are ``[ntotal, ntotal + n)``)."""
        with self._write_lock:
            snap = self._snap
            vectors = self._append(vectors, "add")
            self._publish(
                extend_tombstones(snap.tombstones, len(vectors)), snap.codec
            )

    def remove(self, ids) -> None:
        """Tombstone the given row ids (all-or-nothing; ids stay stable).

        Raises ``ValueError`` on out-of-range, duplicate, or
        already-removed ids — before any visibility change is published.
        """
        with self._write_lock:
            snap = self._snap
            row_ids = check_row_ids(ids, snap.rows)
            self._publish(bury(snap.tombstones, snap.rows, row_ids), snap.codec)

    def update(self, ids, vectors: np.ndarray) -> np.ndarray:
        """Atomically replace rows: tombstone ``ids``, append ``vectors``.

        One snapshot publish covers both halves, so a concurrent search
        sees either the old rows or the new ones — never neither, never
        both.  Returns the new rows' ids (the id and vector counts may
        differ; an entity may gain or lose surface forms).
        """
        with self._write_lock:
            snap = self._snap
            row_ids = check_row_ids(ids, snap.rows)
            vectors = self._append(vectors, "update")
            tombstones = bury(
                extend_tombstones(snap.tombstones, len(vectors)),
                len(self._buf),
                row_ids,
            )
            self._publish(tombstones, snap.codec)
            return snap.rows + np.arange(len(vectors), dtype=np.int64)

    def compact(self) -> np.ndarray | None:
        """Rebuild the buffer without tombstoned rows; reset the bitmap.

        A coded subclass sets ``_rebuild(live_rows, codec) -> (rows,
        codec)`` to re-train its codec on what survives; it runs under
        the write lock (blocking other *mutators* — searches keep
        scanning the snapshot they pinned).  Returns the ``(old_rows,)``
        int64 remap — new id per old row, ``-1`` for removed rows — or
        ``None`` when there was nothing to reclaim (nothing published).
        """
        with self._write_lock:
            snap = self._snap
            if snap.tombstones is None or not snap.tombstones.any():
                return None
            alive = ~snap.tombstones
            remap = np.where(
                alive, np.cumsum(alive) - 1, np.int64(-1)
            ).astype(np.int64)
            rows, codec = snap.data[alive], snap.codec
            if self._rebuild is not None and len(rows):
                rows, codec = self._rebuild(rows, codec)
            self._buf = GrowBuffer(snap.data.shape[1], snap.data.dtype)
            if len(rows):
                self._buf.append(rows)
            self._publish(None, codec)
            return remap

    def _scan_kernels(
        self, queries: np.ndarray, snap: IndexSnapshot, k: int
    ) -> tuple[Callable, Callable]:
        """The family's two kernels for one batch over a non-empty
        ``snap`` (per-batch set-up goes here), as ``(coarse, exact)``:

        ``coarse(block, dead) -> (nq, len(block)) bool``
            float32 scores of every row of ``block`` (a slice of
            ``snap.data``), cut at the ``k``-th smallest per query: the
            mask is ``False`` on the ``dead`` (tombstoned) columns and on
            rows at least ``k`` live rows of the block *provably* beat, and
            ``True`` on everything else — NaN scores included.
        ``exact(block, cand) -> (nq, s) float64``
            the distance of each ``(query, block[cand])`` pair as a
            fixed-order float64 sum over that pair alone (*pair-pure*);
            ``cand`` is ``-1``-padded, and padding scores ``inf``.
        """
        raise NotImplementedError

    @property
    def retrains_on_compact(self) -> bool:
        """Whether :meth:`compact` re-codes the surviving rows, which
        changes their distances (a verbatim store keeps them)."""
        return self._rebuild is not None

    def pair_distances(
        self, queries: np.ndarray, ids, snapshot: IndexSnapshot | None = None
    ) -> np.ndarray:
        """The distance of every ``(query, row id)`` pair under
        ``snapshot`` (default: the current one), ``(nq, s)`` float64 for
        ``s`` ids, from the family's exact kernel: pair-pure, so bit for
        bit what any search over that
        snapshot reports for the row.  Tombstoned rows are scored too, a
        repeated id twice; an id outside the snapshot is a ``ValueError``."""
        queries = self._check_vectors(queries, "queries")
        snap = snapshot if snapshot is not None else self._snap
        row_ids = np.asarray(ids, dtype=np.int64).ravel()
        if not row_ids.size or not len(queries):
            # No pairs; float64 like the kernels' output.
            return np.empty((len(queries), row_ids.size), dtype=np.float64)  # repro: noqa[REP102]
        # Not check_row_ids: its sort (for duplicates, harmless here) runs
        # under the cache lock of a publishing write.
        if row_ids.min() < 0 or row_ids.max() >= snap.rows:
            raise ValueError(
                f"row ids must be in [0, {snap.rows}), got {row_ids.tolist()}"
            )
        cand = np.empty((len(queries), row_ids.size), dtype=np.int64)
        cand[:] = row_ids
        _, exact = self._scan_kernels(queries, snap, 1)
        return exact(snap.data, cand)

    def search(
        self,
        queries: np.ndarray,
        k: int,
        block_size: int | None = None,
        snapshot: IndexSnapshot | None = None,
    ) -> SearchResult:
        """Top-``k`` over ``snapshot`` (default: the current one),
        excluding its tombstones: per block, the family's float32 coarse
        cut, then its float64 re-score of the rows the cut could not rule
        out, folded into the running result."""
        queries = self._check_vectors(queries, "queries")
        self._check_k(k)
        block = block_size if block_size is not None else self.block_size
        if block is None:
            # The tile is the family's float32 coarse scores.
            block = auto_block_size(
                len(queries), bytes_per_score=self._bytes_per_score
            )
        if block < 1:
            raise ValueError(f"block_size must be >= 1, got {block}")
        snap = snapshot if snapshot is not None else self._snap
        if snap.rows:
            coarse, exact = self._scan_kernels(queries, snap, k)
        ids = np.empty((len(queries), 0), dtype=np.int64)
        # Survivor distances are float64 (the SearchResult contract).
        distances = np.empty((len(queries), 0), dtype=np.float64)  # repro: noqa[REP102]
        for start in range(0, snap.rows, block):
            rows = snap.data[start : start + block]
            dead = None
            if snap.tombstones is not None:
                dead = np.flatnonzero(snap.tombstones[start : start + block])
            cand = _left_pack(coarse(rows, dead))
            scores = exact(rows, cand)
            cand[cand >= 0] += start
            ids, distances = merge_topk(ids, distances, cand, scores, k)
        ids, distances = _pad_topk(ids, distances, k)
        return SearchResult(ids=ids, distances=distances)
