"""FuzzyWuzzy-style lookup: normalised Levenshtein ratio over a full scan.

Reimplements the FuzzyWuzzy package's behaviour: ``ratio`` (normalised edit
similarity) blended with ``token_sort_ratio`` (ratio after sorting word
tokens) so that token reorderings ("gates bill") still match.
"""

from __future__ import annotations

from repro.lookup.rows import RowTableLookup
from repro.text.distance import levenshtein_ratio
from repro.text.tokenize import word_tokens
from repro.utils.ranking import BestRows

__all__ = ["FuzzyWuzzyLookup"]


class FuzzyWuzzyLookup(RowTableLookup):
    name = "fuzzywuzzy"

    def __init__(self, include_aliases: bool = False):
        super().__init__(include_aliases)
        self._sorted_labels: list[str] = []

    def _index_row(self, row: int, label: str) -> None:
        self._sorted_labels.append(" ".join(sorted(word_tokens(label))))

    def _score(self, query: str, best: BestRows) -> None:
        sorted_query = " ".join(sorted(word_tokens(query)))
        # ``_sorted_labels`` is appended last, so zip stops at complete rows.
        for row, (sorted_label, label, owner) in enumerate(
            zip(self._sorted_labels, self.rows.labels, self.rows.entity_ids)
        ):
            if owner is not None:
                best.offer(
                    max(
                        levenshtein_ratio(query, label),
                        levenshtein_ratio(sorted_query, sorted_label),
                    ),
                    row,
                )
