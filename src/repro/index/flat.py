"""Exact brute-force index (FAISS ``IndexFlatL2`` equivalent).

This is the "EmbLookup without compression" (EL-NC) index of the paper and
the ground truth for the Figure 4 recall experiments.  The scan is
*blockwise* and *two-stage*: the block loop is
:meth:`~repro.index.mutation.RowStore.search`, shared with the PQ index,
and this module supplies its two kernels.  Per block of stored rows:

1. **coarse, float32** — ``||x||^2 - 2 q.x`` (``-q.x`` for ``"ip"``) for
   every row, as one sgemm plus the block's float32 row norms;
2. **conservative cut** — a row is dropped only when its coarse score lies
   beyond the k-th smallest one by more than twice a forward-error bound of
   step 1 (:func:`_survivors`), so no true neighbour is lost to float32
   rounding, overflow or NaN;
3. **exact, float64, survivors only** — the few rows left (``k`` plus a
   handful on real stores) are re-scored with a *pair-pure* kernel: the
   distance of ``(q, x)`` is a fixed-order sum over those two vectors
   alone (:func:`_exact_distances`), so it is bit-identical whatever the
   block size, shard count, batch composition or row position.

Survivors are ranked by ``(pad-last, distance, id)`` and folded into the
running top-k, so peak memory is O(n_queries x block) float32 and no
float64 copy of the store is ever made.  Row norms are recomputed per
search, not stored: the index stays 256 bytes per 64-d row (DESIGN.md §9,
"Flat scan: coarse + re-score").

The index is *mutable under live traffic*: it is a
:class:`~repro.index.mutation.RowStore`, which owns ``add`` / ``remove`` /
``update`` / ``compact`` and publishes one immutable
:class:`~repro.index.mutation.IndexSnapshot` per mutation; a search scans
the snapshot it pinned.  Row ids are stable until a compaction, which
returns an old-to-new id remap.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.index.mutation import IndexSnapshot, RowStore
from repro.index.topk import DEFAULT_BLOCK_BUDGET_BYTES

__all__ = ["FlatIndex"]

_EPS32 = np.finfo(np.float32).eps
_TINY32 = np.finfo(np.float32).tiny


def _survivors(
    queries: np.ndarray,
    block: np.ndarray,
    dead: np.ndarray | None,
    k: int,
    metric: str,
) -> np.ndarray:
    """Rows of ``block`` not *provably* outside each query's top ``k``: an
    ``(nq, b)`` bool keep-mask for float32 ``(nq, d)`` queries against a
    float32 ``(b, d)`` block.

    ``coarse = ||x||^2 - 2 q.x`` (``-q.x`` for ``"ip"``) in float32, with
    the ``dead`` (tombstoned) columns masked out.  Every float32 operation
    rounds by at most ``u = eps32 / 2`` relative (plus ``tiny32`` on
    underflow), so with ``S = (||q|| + max ||x||)^2``::

        |coarse - exact| <= (d + 1) u S  <  bound / 2,
        bound = (d + 4) (eps32 S + tiny32)

    for both metrics, in any summation order BLAS picks.  The ``k`` rows
    with the smallest coarse scores are truly below ``kth + bound / 2``
    and a row whose coarse score exceeds ``cut = kth + 2 bound`` is truly
    above ``kth + 3 bound / 2``: at least ``k`` rows beat it, by a margin
    (``> bound``) far above the float64 rounding of the re-score and the
    float32 rounding of ``S`` and ``cut`` themselves.  Only those rows are
    dropped — ``~(coarse > cut)`` keeps NaN scores, and an overflowing
    ``S`` makes the bound infinite, which keeps everything.
    """
    nq, width = len(queries), len(block)
    if width <= k:
        keep = np.ones((nq, width), dtype=bool)
    else:
        # Overflow to inf / NaN is a handled outcome here, not an error.
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.einsum("ij,ij->i", block, block)
            coarse = queries @ block.T
            if metric == "l2":
                coarse *= -2.0
                coarse += norms
            else:
                np.negative(coarse, out=coarse)
            if dead is not None:
                coarse[:, dead] = np.inf
                norms = np.delete(norms, dead)
            kth = np.partition(coarse, k - 1, axis=1)[:, k - 1 : k]
            reach = np.sqrt(np.einsum("ij,ij->i", queries, queries))
            reach += np.sqrt(norms.max(initial=0.0))
            # (d + 4) S is formed first, in float32: it overflows (bound
            # inf) before any intermediate of ``coarse`` (all <= S) can.
            terms = queries.shape[1] + 4
            bound = _EPS32 * (terms * (reach * reach)) + terms * _TINY32
            keep = ~(coarse > kth + 2.0 * bound[:, None])
    if dead is not None:
        keep[:, dead] = False
    return keep


def _exact_distances(
    q64: np.ndarray, block: np.ndarray, cand: np.ndarray, metric: str
) -> np.ndarray:
    """Float64 distance of every ``(query, candidate row)`` pair: ``(nq,
    s)`` for float64 ``(nq, d)`` queries, a float32 ``(b, d)`` block and
    ``(nq, s)`` int64 ``cand``.

    *Pair-pure*: each output is ``sum_j (q_j - x_j)^2`` (``-sum_j q_j x_j``
    for ``"ip"``) accumulated by einsum's fixed-order loop over the ``d``
    axis of that one pair, so it does not depend on which other queries or
    rows share the call.  The ``(nq, s, d)`` gather is chunked over ``s`` to
    stay inside the block budget even when every row survived.  ``cand``
    entries of ``-1`` (padding) come back as ``inf``.
    """
    nq, dim = q64.shape
    out = np.empty(cand.shape, dtype=q64.dtype)
    step = max(1, DEFAULT_BLOCK_BUDGET_BYTES // (max(1, nq) * dim * 8))
    for lo in range(0, cand.shape[1], step):
        rows = block[cand[:, lo : lo + step]]
        if metric == "l2":
            diff = q64[:, None, :] - rows
            np.einsum("qsd,qsd->qs", diff, diff, out=out[:, lo : lo + step])
        else:
            # Survivors only: the store itself is never widened.
            rows = rows.astype(np.float64)  # repro: noqa[REP102]
            np.einsum("qd,qsd->qs", q64, rows, out=out[:, lo : lo + step])
    if metric == "ip":
        np.negative(out, out=out)
    out[cand < 0] = np.inf  # the gather scored padding against the last row
    return out


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

    # One float32 tile: the sgemm output, cut in place.
    _bytes_per_score = 4

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

    def _scan_kernels(
        self, queries: np.ndarray, snap: IndexSnapshot, k: int
    ) -> tuple[Callable, Callable]:
        """:func:`_survivors` and :func:`_exact_distances` bound to this
        batch (see :meth:`RowStore._scan_kernels`)."""
        metric = self.metric
        # Exact re-score accumulates in float64 (storage stays float32).
        q64 = queries.astype(np.float64)  # repro: noqa[REP102]
        return (
            lambda block, dead: _survivors(queries, block, dead, k, metric),
            lambda block, cand: _exact_distances(q64, block, cand, metric),
        )

    def reconstruct(self, idx: int) -> np.ndarray:
        """Return the stored vector for row ``idx``."""
        return self.vectors[idx].copy()
