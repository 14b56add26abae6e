"""q-gram lookup: inverted index over character trigrams.

Candidates are gathered from the posting lists of the query's q-grams and
ranked by Jaccard similarity of gram sets — the classical signature-based
approximate string matcher.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.lookup.rows import RowTableLookup
from repro.text.distance import qgrams
from repro.utils.ranking import best_rows

__all__ = ["QGramLookup"]


class QGramLookup(RowTableLookup):
    """Inverted q-gram index over the row table, held as integer arrays.

    ``_postings`` maps a gram to the int32 rows containing it, ascending
    because rows only grow; ``_columns`` is the pair ``(gram_count,
    live)`` over all rows — distinct grams of the row's label, and
    whether its entity is still indexed.  A lookup is one ``bincount``
    over the concatenated postings of the query's grams.

    Lock-free readers rely on two rules.  A posting array is replaced,
    never edited, and a dropped row stays in its postings with ``live``
    cleared (rows are never renumbered, so nothing is ever rewritten for
    a drop).  The writer fills a row's columns before it publishes the
    row's postings and a reader takes postings before columns, so every
    row a reader finds in a posting has its columns.
    """

    name = "qgram"

    def __init__(self, q: int = 3, include_aliases: bool = False):
        super().__init__(include_aliases)
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = q
        self._postings: dict[str, np.ndarray] = {}
        self._columns: tuple[np.ndarray, np.ndarray] = (
            np.zeros(0, dtype=np.int32),
            np.zeros(0, dtype=bool),
        )

    def _index_rows(self, start: int, stop: int) -> None:
        gram_count, live = self._columns
        if stop > len(live):
            pad = max(stop, 2 * len(live)) - len(live)
            # Capacity doubles; one assignment publishes both columns, so
            # no reader pairs an old one with a new one.
            self._columns = gram_count, live = (
                np.concatenate((gram_count, np.zeros(pad, dtype=np.int32))),
                np.concatenate((live, np.zeros(pad, dtype=bool))),
            )
        rows_of: dict[str, list[int]] = {}
        for row in range(start, stop):
            grams = self.grams(self.rows.labels[row])
            gram_count[row] = len(grams)
            live[row] = True
            for gram in grams:
                rows_of.setdefault(gram, []).append(row)
        postings = self._postings
        for gram, rows in rows_of.items():
            new = np.array(rows, dtype=np.int32)
            old = postings.get(gram)
            postings[gram] = new if old is None else np.concatenate((old, new))

    def _unindex_rows(self, rows: list[int]) -> None:
        self._columns[1][rows] = False

    def grams(self, text: str) -> frozenset[str]:
        """The gram set a (normalized) label is indexed and queried by."""
        return frozenset(qgrams(text, self.q))

    @staticmethod
    def best_pair_scores(
        queries: Sequence[frozenset[str]], labels: Sequence[frozenset[str]]
    ) -> list[float]:
        """Per query gram set, the best score any of ``labels`` (gram
        sets of rows) reaches against it — each the value :meth:`_ranker`
        gives that (query, row) pair, from the same integer arithmetic.
        0.0 where no label shares a gram: such a row is never offered."""
        out = []
        for grams in queries:
            best = 0.0
            for label in labels:
                if not grams.isdisjoint(label):
                    shared = len(grams & label)
                    score = shared / (len(grams) + len(label) - shared)
                    if score > best:
                        best = score
            out.append(best)
        return out

    def _ranker(self, query: str) -> Callable[[int], list[tuple[float, int]]]:
        """Scores every candidate row of ``query`` once; each call ranks
        the best ``fetch`` of them."""
        grams = self.grams(query)
        postings = self._postings
        hit = [rows for rows in map(postings.get, grams) if rows is not None]
        if not hit:
            return lambda fetch: []
        gram_count, live = self._columns
        shared = np.bincount(np.concatenate(hit))
        rows = np.flatnonzero((shared > 0) & live[: len(shared)])
        shared = shared[rows]
        # Small ints divide exactly like Python's ``int / int``.
        scores = shared / (len(grams) + gram_count[rows] - shared)
        return lambda fetch: best_rows(scores, rows, fetch)

    def index_bytes(self) -> int:
        """Gram keys, 4 B per posting entry, and the two per-row columns."""
        gram_count, live = self._columns
        return (
            sum(
                len(gram.encode()) + rows.nbytes
                for gram, rows in self._postings.items()
            )
            + gram_count.nbytes
            + live.nbytes
        )
