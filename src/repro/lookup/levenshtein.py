"""Levenshtein scan lookup: exact edit-distance ranking over all labels.

The "optimized Levenshtein module" baseline: a full scan with length-bound
pruning and an early-exit distance cut-off, returning the ``k`` labels with
the smallest edit distance (score = negated distance).
"""

from __future__ import annotations

import math

from repro.lookup.rows import RowTableLookup
from repro.text.distance import levenshtein
from repro.utils.ranking import BestRows

__all__ = ["LevenshteinLookup"]


class LevenshteinLookup(RowTableLookup):
    """Full edit-distance scan over the row table."""

    name = "levenshtein"

    def _score(self, query: str, best: BestRows) -> None:
        for row, (label, owner) in enumerate(
            zip(self.rows.labels, self.rows.entity_ids)
        ):
            if owner is None:
                continue
            # Once k rows are kept, a row further than the current worst
            # cannot enter: let the distance computation exit early.
            bound = None if best.floor == -math.inf else int(-best.floor)
            best.offer(float(-levenshtein(query, label, max_distance=bound)), row)
