"""Exact brute-force index (FAISS ``IndexFlatL2`` equivalent).

This is the "EmbLookup without compression" (EL-NC) index of the paper and
the ground truth for the Figure 4 recall experiments.  Since the serving
PR the scan is *blockwise*: distances are computed one
:data:`~repro.index.topk.DEFAULT_BLOCK_SIZE`-row block at a time and folded
into a running top-k, so peak memory is O(n_queries x block) instead of the
full O(n_queries x ntotal) matrix, and storage grows through an amortized
doubling buffer instead of a per-``add`` ``np.concatenate``.

The index is *mutable under live traffic*: it is a
:class:`~repro.index.mutation.RowStore`, which owns ``add`` / ``remove`` /
``update`` / ``compact`` / ``search`` and publishes one immutable
:class:`~repro.index.mutation.IndexSnapshot` per mutation; a search scans
the snapshot it pinned.  Row ids are stable until a compaction, which
returns an old-to-new id remap.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.index.kmeans import _squared_distances
from repro.index.mutation import IndexSnapshot, RowStore
from repro.utils.contracts import array_contract

__all__ = ["FlatIndex"]


class FlatIndex(RowStore):
    """Stores vectors verbatim; search is an exact blockwise distance scan.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    metric:
        ``"l2"`` (squared Euclidean) or ``"ip"`` (inner product, returned as
        a *distance*, i.e. negated similarity).
    block_size:
        Default scan granularity (rows scored per block); overridable per
        :meth:`search` call.  ``None`` (the default) derives the block
        from the batch size via :func:`repro.index.topk.auto_block_size`
        so one-query probes and 256-query benches each get a
        cache-friendly tile.
    """

    def __init__(self, dim: int, metric: str = "l2", block_size: int | None = None):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if metric not in ("l2", "ip"):
            raise ValueError(f"metric must be 'l2' or 'ip', got {metric!r}")
        super().__init__(dim, np.float32)
        self.dim = dim
        self.metric = metric
        self.block_size = block_size

    @property
    def vectors(self) -> np.ndarray:
        """The stored matrix (read-only view; re-fetch after ``add``)."""
        return self._snap.data

    def to_shared(self, share: Callable) -> dict:
        """Constructor arguments plus the stored matrix passed through
        ``share`` — what a shard worker needs to serve this index
        zero-copy (see :mod:`repro.index.pool`)."""
        return {
            "dim": self.dim,
            "metric": self.metric,
            "block_size": self.block_size,
            "vectors": share(self.vectors),
        }

    @classmethod
    def from_shared(cls, state: dict, attach: Callable) -> "FlatIndex":
        """Rebuild over the matrix ``attach`` maps (inverse of
        :meth:`to_shared`)."""
        index = cls(
            state["dim"], metric=state["metric"], block_size=state["block_size"]
        )
        index._wrap(attach(state["vectors"]))
        return index

    def _scorer(
        self, queries: np.ndarray, snap: IndexSnapshot
    ) -> Callable[[np.ndarray], np.ndarray]:
        if self.metric == "l2":
            return lambda block: _squared_distances(queries, block)
        # Inner products accumulate over dim float32 terms; float64
        # accumulation keeps ties stable (storage stays float32).
        q64 = queries.astype(np.float64)  # repro: noqa[REP102]
        return lambda block: -(q64 @ block.astype(np.float64).T)  # repro: noqa[REP102]

    @array_contract("idx: int -> (d,) f32")
    def reconstruct(self, idx: int) -> np.ndarray:
        """Return the stored vector for row ``idx``."""
        return self.vectors[idx].copy()
