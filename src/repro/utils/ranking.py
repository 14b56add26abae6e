"""The one ranker: bounded best-k row selection, then rows -> entities.

Every lookup service is a row table plus a scorer; what turns scored rows
into the answer lives here, once.  The order is ``(score desc, row asc)``
everywhere — at the k-th score the lowest row wins — the same convention
as the index layer's ``(distance, id)``, so no result depends on the order
a ``set`` or ``dict`` happened to be filled in.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Collection, Iterable, Sequence
from typing import Any

import numpy as np

__all__ = ["BestRows", "best_rows", "fetch_size", "resolve_hits", "resolve_rows"]


class BestRows:
    """The best ``k`` of the ``(score, row)`` pairs offered so far."""

    __slots__ = ("k", "floor", "_heap")

    def __init__(self, k: int) -> None:
        self.k = k
        #: The k-th best score so far (``-inf`` until ``k`` rows are kept).
        #: A lower-scoring row cannot enter any more, so a scorer may skip
        #: it — or stop computing its score — without offering it.
        self.floor = -math.inf
        # (score, -row): the root is the worst pair kept under the final
        # order, so a tie at the cut evicts the highest row.
        self._heap: list[tuple[float, int]] = []

    def offer(self, score: float, row: int) -> None:
        """Keep ``(score, row)`` if it is among the best ``k`` so far."""
        heap = self._heap
        item = (score, -row)
        if len(heap) < self.k:
            heapq.heappush(heap, item)
        elif item > heap[0]:
            heapq.heapreplace(heap, item)
        if len(heap) == self.k:
            self.floor = heap[0][0]

    def ranked(self) -> list[tuple[float, int]]:
        """The kept pairs, best first."""
        return [(score, -neg) for score, neg in sorted(self._heap, reverse=True)]


def best_rows(scores, rows, k: int) -> list[tuple[float, int]]:
    """:class:`BestRows` for a scorer that has every pair at once.

    ``scores[i]`` (an ``(n,)`` float64 array) belongs to ``rows[i]`` (an
    ``(n,)`` integer array of distinct rows, any order); returns what
    ``k`` offers followed by ``ranked()`` would: the best ``k`` pairs,
    best first.
    """
    cut = len(scores) - k
    if cut > 0:
        # Everything tied with the k-th score survives the partition; the
        # sort below is what picks the lowest rows among the ties.
        keep = scores >= np.partition(scores, cut)[cut]
        scores, rows = scores[keep], rows[keep]
    order = np.lexsort((rows, -scores))[:k]
    return list(zip(scores[order].tolist(), rows[order].tolist()))


def resolve_rows(
    ranked: Iterable[tuple[float, int]],
    entity_of: Sequence[str | None],
    k: int,
    make: Callable[[str, float], Any],
    allowed: Collection[str] | None = None,
) -> list:
    """``make(entity id, value)`` for the first ``k`` distinct entities.

    ``ranked`` is ``(value, row)`` best first.  Skipped: padding rows
    (negative), rows whose entity was dropped (``None``), rows of an
    entity already taken (its best row came first) and entities outside
    ``allowed``.
    """
    out: list = []
    seen: set[str] = set()
    for value, row in ranked:
        if row < 0:
            continue
        entity_id = entity_of[row]
        if entity_id is None or entity_id in seen:
            continue
        if allowed is not None and entity_id not in allowed:
            continue
        seen.add(entity_id)
        out.append(make(entity_id, value))
        if len(out) == k:
            break
    return out


def fetch_size(k: int, has_alias_rows: bool, available: int, extra: int = 0) -> int:
    """Rows to ask an index for so that resolution still yields ``k``.

    Several rows resolve to one entity when aliases are indexed, so the
    scan over-fetches 3x; ``extra`` is the caller's count of rows it knows
    resolution will reject.  Never more than the ``available`` rows, and
    ``k`` for an empty scan (the index pads instead of raising).
    """
    return min((k * 3 if has_alias_rows else k) + extra, available) or k


def resolve_hits(
    ids,
    values,
    entity_of: Sequence[str | None],
    k: int,
    make: Callable[[str, float], Any],
    allowed: Collection[str] | None = None,
) -> list[list]:
    """:func:`resolve_rows` per query of an index search.

    ``ids`` / ``values`` are the ``(nq, fetched)`` int64 / numeric arrays
    of a ``SearchResult``, already best first; pass ``-distances`` as
    ``values`` for a relevance score.
    """
    return [
        resolve_rows(zip(row_values, row_ids), entity_of, k, make, allowed)
        for row_ids, row_values in zip(ids.tolist(), values.tolist())
    ]
