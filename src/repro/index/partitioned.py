"""Partitioned index: one sub-index per string partition key.

Type-constrained lookups (JenTab CTA candidate generation, DoSeR
disambiguation) previously scanned the whole KG index and filtered the
answers afterwards — O(ntotal) work for a query whose admissible answer
set is one entity type.  :class:`TypePartitionedIndex` stores each
partition (in serving, each primary entity type) in its own sub-index, so
a filtered search scans only the selected partitions' rows, and an
unfiltered search unions every partition with the same single
``(distance, id)`` rank the sharded fan-in uses
(Gillick et al. 2019 motivate exactly this layout for type-constrained
dense retrieval).

Row ids are *global*: ``add`` assigns arrival-order ids across all
partitions (like every other index) and each partition keeps an int64
id column mapping its local rows back to the global space.  Because ids
cannot be recovered arithmetically (partitions grow unevenly, unlike the
round-robin stripes of :class:`~repro.index.sharded.ShardedIndex`), the
mapping is materialised in a one-column :class:`GrowBuffer` per
partition.  The ``(distance, id)`` ranking convention makes the merged
union partition-invariant — see :mod:`repro.index.topk` (the default
flat partitions and PQ partitions sharing one trained quantizer are both
bit-exact against the unpartitioned scan).

The sub-index comes from ``factory`` and must meet the serving contract
(:func:`repro.index.mutation.served_snapshot`) — pass a closure building a
:class:`~repro.index.sharded.ShardedIndex` to combine per-type
partitioning with multi-core shard execution (shm export and worker
pools come along for free; ``close`` forwards to every partition).

Online mutation: the searchable state is one published
:class:`PartitionSnapshot` — per key, the sub-index, its global-id column
and the sub-index's own snapshot, captured together — swapped in by one
attribute assignment at the end of every ``add`` / ``remove`` (the
protocol of :mod:`repro.index.mutation`, one level up).  A search reads
it once, so it can never see a partition's new rows without their ids.
:meth:`TypePartitionedIndex.remove` tombstones *global* row ids by
locating each id in its partition's id column and forwarding the local
ids to the sub-index's ``remove``, after every partition's snapshot said
its batch is removable.  Updates go through the serving engine
as remove + add — an updated entity may change primary type, i.e. change
partition, which an in-place update cannot express.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.index.base import SearchResult, VectorIndex
from repro.index.buffer import GrowBuffer
from repro.index.flat import FlatIndex
from repro.index.mutation import check_row_ids, served_snapshot
from repro.index.topk import _pad_topk, _rank_topk

__all__ = ["DEFAULT_PARTITION", "PartitionSnapshot", "TypePartitionedIndex"]

#: Partition key used by callers for rows with no partition attribute
#: (e.g. untyped entities).  Ordinary string key, no special casing here.
DEFAULT_PARTITION = "__untyped__"


class _Partition(NamedTuple):
    """One key's pinned state: sub-index, id column, sub-index snapshot."""

    index: VectorIndex
    ids: np.ndarray  # (n_local,) int64 global ids; never written again
    snap: object  # the sub-index's own snapshot


@dataclass(frozen=True, eq=False)
class PartitionSnapshot:
    """One immutable state of a :class:`TypePartitionedIndex`.

    ``parts`` maps each key (first-seen order) to its pinned state and is
    never mutated after the publish; ``rows`` is the global row-id space.
    """

    parts: dict[str, _Partition]
    rows: int

    @property
    def tombstone_count(self) -> int:
        """Removed rows awaiting compaction, across all partitions."""
        return sum(p.snap.tombstone_count for p in self.parts.values())

    def check_removable(
        self, ids: np.ndarray
    ) -> list[tuple[VectorIndex, np.ndarray]]:
        """``(sub-index, local row ids)`` per partition holding any of the
        global ``ids``.

        Each id is located in its partition's global-id column and every
        partition's batch is checked against its pinned sub-snapshot
        before the caller touches *any* partition (``ValueError``), so a
        double-remove in one cannot leave another half-mutated.
        """
        plan: list[tuple[VectorIndex, np.ndarray]] = []
        for part in self.parts.values():
            local = np.nonzero(np.isin(part.ids, ids))[0]
            if len(local):
                part.snap.check_removable(local)
                plan.append((part.index, local))
        found = sum(len(local) for _, local in plan)
        if found != len(ids):  # pragma: no cover - id column invariant
            raise ValueError(
                f"only {found} of {len(ids)} row ids found in partition "
                "id columns"
            )
        return plan

    def select(self, partitions: Sequence[str] | None) -> list[str]:
        """Known keys among ``partitions``, deduplicated (all when None)."""
        if partitions is None:
            return list(self.parts)
        return list(
            dict.fromkeys(
                key for key in map(str, partitions) if key in self.parts
            )
        )

    def rows_in(self, partitions: Sequence[str] | None = None) -> int:
        """Rows a search over ``partitions`` scans (all keys when None).

        Unknown keys count zero rows — a filter naming a type nobody has
        is an empty scan, not an error (mirrors the search).
        """
        if partitions is None:
            return self.rows
        return sum(len(self.parts[key].ids) for key in self.select(partitions))

    def global_ids(self, key: str) -> np.ndarray:
        """Global row ids stored in partition ``key``: a read-only
        ``(n,)`` int64 view."""
        if key not in self.parts:
            raise KeyError(f"unknown partition key {key!r}")
        return self.parts[key].ids


class TypePartitionedIndex(VectorIndex):
    """Routes each row to a per-key sub-index; search unions selected keys.

    Parameters
    ----------
    dim:
        Vector dimensionality (shared by every partition).
    factory:
        ``factory(dim) -> VectorIndex`` building one partition's
        sub-index; defaults to an auto-block-size :class:`FlatIndex`.
        Called lazily the first time a key appears in :meth:`add`.
    """

    def __init__(
        self,
        dim: int,
        factory: Callable[[int], VectorIndex] | None = None,
    ) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self._factory = factory if factory is not None else FlatIndex
        # Per-partition global-id column, (n_local, 1) int64 (writer side;
        # readers use the views pinned in the published snapshot).
        self._ids: dict[str, GrowBuffer] = {}
        # Serialises add/remove; searches are lock-free readers of the
        # published snapshot.
        self._write_lock = threading.Lock()
        # Insertion-ordered parts: search folds partitions in first-seen
        # order, which (with the (distance, id) ranking) does not affect
        # results but keeps scan order deterministic for timing.
        self._snap = PartitionSnapshot({}, 0)

    # -- construction ----------------------------------------------------------

    @property
    def ntotal(self) -> int:
        return self._snap.rows

    @property
    def nlive(self) -> int:
        """Rows visible to a search (stored minus tombstoned)."""
        return self._snap.rows - self.tombstone_count

    @property
    def tombstone_count(self) -> int:
        """Removed rows awaiting compaction, across all partitions."""
        return self._snap.tombstone_count

    @property
    def is_trained(self) -> bool:
        return all(p.index.is_trained for p in self._snap.parts.values())

    def snapshot(self) -> PartitionSnapshot:
        """The currently published snapshot (atomic read)."""
        return self._snap

    def partition_keys(self) -> tuple[str, ...]:
        """Every key seen by :meth:`add`, in first-seen order."""
        return tuple(self._snap.parts)

    def partition_sizes(self) -> dict[str, int]:
        """Rows stored per partition key."""
        return {key: len(p.ids) for key, p in self._snap.parts.items()}

    def partition_global_ids(self, key: str) -> np.ndarray:
        """Global row ids stored in partition ``key``: a read-only
        ``(n,)`` int64 view."""
        return self._snap.global_ids(key)

    def rows_in(self, partitions: Sequence[str] | None = None) -> int:
        """Rows a search over ``partitions`` scans (all keys when None)."""
        return self._snap.rows_in(partitions)

    def _publish(
        self, rows: int, indexes: dict[str, VectorIndex] | None = None
    ) -> None:
        """Swap in the next snapshot (over the current sub-indexes unless
        ``indexes`` adds some); caller holds ``_write_lock``.

        Each partition's id column and sub-index snapshot are read here,
        after both were written, so the published pair always agrees.
        """
        if indexes is None:
            indexes = {key: p.index for key, p in self._snap.parts.items()}
        self._snap = PartitionSnapshot(
            {
                key: _Partition(
                    index, self._ids[key].view[:, 0], index.snapshot()
                )
                for key, index in indexes.items()
            },
            rows,
        )

    def train(self, vectors: np.ndarray) -> None:
        """Forward training to every existing partition.

        Partitions created by a later :meth:`add` are *not* retroactively
        trained; trained families (PQ) should be built through a
        ``factory`` that pre-trains each sub-index, or add all keys
        before calling ``train``.
        """
        vectors = self._check_vectors(vectors, "training vectors")
        for part in self._snap.parts.values():
            part.index.train(vectors)

    def add(self, vectors: np.ndarray, partitions: Sequence[str]) -> None:
        """Append rows, routing row ``i`` to partition ``partitions[i]``.

        Global ids are assigned in arrival order across the whole index,
        exactly like a non-partitioned ``add``.
        """
        vectors = self._check_vectors(vectors, "vectors")
        keys = list(partitions)
        if len(keys) != len(vectors):
            raise ValueError(
                f"got {len(vectors)} vectors but {len(keys)} partition keys"
            )
        with self._write_lock:
            snap = self._snap
            indexes = {key: part.index for key, part in snap.parts.items()}
            order: dict[str, list[int]] = {}
            for row, key in enumerate(keys):
                order.setdefault(str(key), []).append(row)
            for key, rows in order.items():
                if key not in indexes:
                    indexes[key] = self._factory(self.dim)
                    served_snapshot(indexes[key])  # TypeError: not servable
                    self._ids[key] = GrowBuffer(1, np.int64)
                indexes[key].add(vectors[rows])
                global_ids = np.asarray(rows, dtype=np.int64) + snap.rows
                self._ids[key].append(global_ids[:, None])
            self._publish(snap.rows + len(vectors), indexes)

    def remove(self, ids) -> None:
        """Tombstone global row ids in their partitions (all-or-nothing,
        see :meth:`PartitionSnapshot.check_removable`)."""
        with self._write_lock:
            snap = self._snap
            row_ids = check_row_ids(ids, snap.rows)
            if len(row_ids) == 0:
                return
            for index, local in snap.check_removable(row_ids):
                index.remove(local)
            self._publish(snap.rows)

    # -- search ----------------------------------------------------------------

    def search(
        self,
        queries: np.ndarray,
        k: int,
        partitions: Sequence[str] | None = None,
        snapshot: PartitionSnapshot | None = None,
    ) -> SearchResult:
        """Top-``k`` over the union of ``partitions`` (all keys when None).

        Each selected partition is searched for ``k`` winners under the
        sub-index snapshot pinned with its id column, local ids are
        remapped through that column, and the concatenated per-partition
        winners are ranked once — the same reduction the sharded fan-in
        uses, so multi-type unions rank identically to an
        equivalent single index (up to the per-family tie caveats
        documented in :mod:`repro.index.topk`).  An empty selection (no
        partitions, or only unknown keys) returns all-pad rows rather
        than raising.
        """
        queries = self._check_vectors(queries, "queries")
        self._check_k(k)
        snap = snapshot if snapshot is not None else self._snap
        ids = [np.empty((len(queries), 0), dtype=np.int64)]
        # Result distances follow the SearchResult contract, not storage.
        distances = [np.empty((len(queries), 0), dtype=np.float64)]  # repro: noqa[REP102]
        for key in snap.select(partitions):
            part = snap.parts[key]
            local = part.index.search(queries, k, snapshot=part.snap)
            ids.append(self._remap(local.ids, part.ids))
            distances.append(local.distances)
        run_ids, run_d = _rank_topk(
            np.concatenate(ids, axis=1), np.concatenate(distances, axis=1), k
        )
        run_ids, run_d = _pad_topk(run_ids, run_d, k)
        return SearchResult(ids=run_ids, distances=run_d)

    @staticmethod
    def _remap(local_ids: np.ndarray, global_ids: np.ndarray) -> np.ndarray:
        """Map a partition's local result ids into the global id space."""
        # np.where evaluates both branches, so pad ids (-1) index the
        # column too — legal (negative wrap) and discarded by the mask.
        remapped = np.where(
            local_ids >= 0, global_ids[local_ids], np.int64(-1)
        )
        return remapped.astype(np.int64, copy=False)

    # -- maintenance -----------------------------------------------------------

    def memory_bytes(self) -> int:
        payload = sum(
            p.index.memory_bytes() for p in self._snap.parts.values()
        )
        ids = sum(buf.nbytes() for buf in self._ids.values())
        return payload + ids

    def close(self) -> None:
        """Release partition resources (worker pools of sharded partitions)."""
        for part in self._snap.parts.values():
            close = getattr(part.index, "close", None)
            if callable(close):
                close()
