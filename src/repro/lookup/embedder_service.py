"""Lookup service over an arbitrary embedder (the Table VII harness).

Wraps any :class:`repro.embedding.base.Embedder` — word2vec, fastText,
the wordpiece BERT stand-in, the char-LSTM — behind the same index-and-
query pipeline EmbLookup uses, so the embedding algorithm is the only
variable in the comparison.  An optional :class:`QueryCache` memoizes the
embedding of repeated (normalized) queries.
"""

from __future__ import annotations

import numpy as np

from repro.embedding.base import Embedder
from repro.index.flat import FlatIndex
from repro.kg.graph import KnowledgeGraph
from repro.lookup.base import Candidate, LookupService
from repro.lookup.cache import QueryCache
from repro.text.tokenize import normalize
from repro.utils.ranking import fetch_size, resolve_hits

__all__ = ["EmbedderLookupService"]


class EmbedderLookupService(LookupService):
    """Flat (uncompressed) k-NN lookup over any embedder's vectors."""

    def __init__(
        self,
        embedder: Embedder,
        name: str = "embedder",
        cache: QueryCache | None = None,
    ):
        super().__init__()
        self.embedder = embedder
        self.name = name
        self.cache = cache
        self._index = FlatIndex(embedder.dim)
        self._row_to_entity: list[str] = []

    @classmethod
    def build(
        cls,
        kg: KnowledgeGraph,
        embedder: Embedder | None = None,
        name: str = "embedder",
        cache_size: int = 0,
    ) -> "EmbedderLookupService":
        """Index every entity label of ``kg`` under ``embedder``'s vectors.

        ``cache_size > 0`` enables an LRU embedding cache of that capacity.
        """
        if embedder is None:
            raise ValueError("EmbedderLookupService.build requires an embedder")
        cache = QueryCache(cache_size) if cache_size > 0 else None
        service = cls(embedder, name=name, cache=cache)
        rows = list(kg.mention_rows(include_aliases=False))
        if rows:
            service._index.add(embedder.embed([label for label, _ in rows]))
            service._row_to_entity = [entity_id for _, entity_id in rows]
        return service

    def _embed(self, normalized: list[str]) -> np.ndarray:
        """Embed queries, serving repeats from the cache when enabled."""
        if self.cache is None:
            return self.embedder.embed(normalized)
        return self.cache.get_embeddings(normalized, self.embedder.embed)

    def _lookup_batch(self, queries: list[str], k: int) -> list[list[Candidate]]:
        vectors = self._embed([normalize(q) for q in queries])
        fetch = fetch_size(k, False, self._index.ntotal)
        result = self._index.search(vectors, fetch)
        return resolve_hits(
            result.ids, -result.distances, self._row_to_entity, k, Candidate
        )

    def index_bytes(self) -> int:
        return self._index.memory_bytes()
