"""ElasticSearch-style lookup: BM25 over words blended with trigram BM25.

Reproduces the paper's description of ElasticSearch's fuzzy matching — "a
weighted combination of word and trigram based BM25 score".  Two inverted
indexes (word tokens and character trigrams) are scored with BM25 and
combined; the trigram channel provides the typo tolerance.
"""

from __future__ import annotations

import math
from collections import defaultdict

from repro.lookup.rows import RowTableLookup
from repro.text.distance import levenshtein, qgrams
from repro.text.tokenize import word_tokens
from repro.utils.ranking import BestRows

__all__ = ["ElasticLookup"]


class _BM25Index:
    """One BM25-scored inverted index over string terms."""

    def __init__(self, k1: float = 1.2, b: float = 0.75):
        self.k1 = k1
        self.b = b
        self.postings: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self.doc_lengths: list[int] = []
        self.total_length = 0

    def add(self, terms: list[str]) -> int:
        doc_id = len(self.doc_lengths)
        counts: dict[str, int] = defaultdict(int)
        for term in terms:
            counts[term] += 1
        # Length before postings: a reader that finds the doc can score it.
        self.doc_lengths.append(len(terms))
        self.total_length += len(terms)
        for term, tf in counts.items():
            self.postings[term].append((doc_id, tf))
        return doc_id

    def score(self, terms: list[str]) -> dict[int, float]:
        n_docs = len(self.doc_lengths)
        if n_docs == 0:
            return {}
        avg_len = self.total_length / n_docs
        scores: dict[int, float] = defaultdict(float)
        # Distinct terms in query order, not set order: the float sums
        # below must not follow str hashing.
        for term in dict.fromkeys(terms):
            plist = self.postings.get(term)
            if not plist:
                continue
            df = len(plist)
            idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            for doc_id, tf in plist:
                denom = tf + self.k1 * (
                    1 - self.b + self.b * self.doc_lengths[doc_id] / avg_len
                )
                scores[doc_id] += idf * tf * (self.k1 + 1) / denom
        return scores

    def nbytes(self) -> int:
        return sum(
            len(term.encode()) + 12 * len(plist)
            for term, plist in self.postings.items()
        )


class ElasticLookup(RowTableLookup):
    name = "elastic"

    def __init__(
        self,
        word_weight: float = 0.5,
        trigram_weight: float = 0.5,
        fuzziness: int = 2,
        include_aliases: bool = False,
    ):
        super().__init__(include_aliases)
        if word_weight < 0 or trigram_weight < 0:
            raise ValueError("BM25 channel weights must be non-negative")
        if fuzziness < 0:
            raise ValueError("fuzziness must be >= 0")
        self.word_weight = word_weight
        self.trigram_weight = trigram_weight
        self.fuzziness = fuzziness
        self._words = _BM25Index()
        self._trigrams = _BM25Index()

    def _index_row(self, row: int, label: str) -> None:
        # BM25 doc ids are the table's row ids: both count appends.
        self._words.add(word_tokens(label))
        self._trigrams.add(qgrams(label, 3))

    def _expand_fuzzy(self, tokens: list[str]) -> list[str]:
        """ElasticSearch-style fuzzy term expansion.

        Each query token is matched against the indexed vocabulary within
        ``fuzziness`` edits (length pruning + early-exit Levenshtein) —
        the cost profile of ES's fuzzy queries, which expand terms through
        a Levenshtein automaton over the term dictionary.
        """
        if self.fuzziness == 0:
            return tokens
        expanded: list[str] = []
        vocabulary = self._words.postings
        for token in tokens:
            if token in vocabulary:
                expanded.append(token)
                continue
            for term in vocabulary:
                if abs(len(term) - len(token)) > self.fuzziness:
                    continue
                if levenshtein(token, term, max_distance=self.fuzziness) <= self.fuzziness:
                    expanded.append(term)
        return expanded

    def _score(self, query: str, best: BestRows) -> None:
        combined: dict[int, float] = defaultdict(float)
        if self.word_weight > 0:
            word_scores = self._words.score(
                self._expand_fuzzy(word_tokens(query))
            )
            for doc_id, score in word_scores.items():
                combined[doc_id] += self.word_weight * score
        if self.trigram_weight > 0:
            trigram_scores = self._trigrams.score(qgrams(query, 3))
            for doc_id, score in trigram_scores.items():
                combined[doc_id] += self.trigram_weight * score
        for doc_id, score in combined.items():
            if self.rows.entity_ids[doc_id] is not None:
                best.offer(score, doc_id)

    def index_bytes(self) -> int:
        return self._words.nbytes() + self._trigrams.nbytes()
