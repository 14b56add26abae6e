"""q-gram lookup: inverted index over character trigrams.

Candidates are gathered from the posting lists of the query's q-grams and
ranked by Jaccard similarity of gram sets — the classical signature-based
approximate string matcher.
"""

from __future__ import annotations

from collections import defaultdict

from repro.lookup.rows import RowTableLookup
from repro.text.distance import qgrams
from repro.utils.ranking import BestRows

__all__ = ["QGramLookup"]


class QGramLookup(RowTableLookup):
    """Inverted q-gram index over the row table.

    Lock-free readers see a row only once its gram set is in place, and a
    posting list is replaced, never edited, when it loses a row.
    """

    name = "qgram"

    def __init__(self, q: int = 3, include_aliases: bool = False):
        super().__init__(include_aliases)
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = q
        self._postings: dict[str, list[int]] = defaultdict(list)
        self._gram_sets: list[frozenset[str]] = []

    def _index_row(self, row: int, label: str) -> None:
        grams = frozenset(qgrams(label, self.q))
        self._gram_sets.append(grams)
        for gram in grams:
            self._postings[gram].append(row)

    def _unindex_rows(self, rows: list[int]) -> None:
        gone = set(rows)
        for gram in set().union(*(self._gram_sets[row] for row in rows)):
            remaining = [r for r in self._postings[gram] if r not in gone]
            if remaining:
                self._postings[gram] = remaining
            else:
                del self._postings[gram]

    def _score(self, query: str, best: BestRows) -> None:
        query_grams = set(qgrams(query, self.q))
        overlap: dict[int, int] = defaultdict(int)
        for gram in query_grams:
            for row in self._postings.get(gram, ()):
                overlap[row] += 1
        for row, shared in overlap.items():
            union = len(query_grams) + len(self._gram_sets[row]) - shared
            score = shared / union if union else 1.0
            if score >= best.floor:
                best.offer(score, row)

    def index_bytes(self) -> int:
        return sum(
            len(gram.encode()) + 8 * len(rows)
            for gram, rows in self._postings.items()
        )
