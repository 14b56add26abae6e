"""Random-hyperplane (signed) locality-sensitive hashing index.

The Table V baseline family: vectors are hashed into ``nbits``-bit
signatures via random hyperplanes; candidates sharing a bucket in any of
``ntables`` hash tables are re-ranked by exact distance.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.index.base import SearchResult, VectorIndex
from repro.index.buffer import GrowBuffer
from repro.index.kmeans import _squared_distances
from repro.utils.rng import as_rng

__all__ = ["LSHIndex"]


class LSHIndex(VectorIndex):
    """Multi-table signed random-projection LSH with exact re-ranking."""

    def __init__(
        self,
        dim: int,
        nbits: int = 16,
        ntables: int = 8,
        seed: int | np.random.Generator | None = None,
    ):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if nbits <= 0 or nbits > 62:
            raise ValueError(f"nbits must be in [1, 62], got {nbits}")
        if ntables <= 0:
            raise ValueError(f"ntables must be positive, got {ntables}")
        self.dim = dim
        self.nbits = nbits
        self.ntables = ntables
        rng = as_rng(seed)
        # (ntables, nbits, dim) hyperplane normals.
        self._planes = rng.normal(size=(ntables, nbits, dim)).astype(np.float32)
        self._tables: list[dict[int, list[int]]] = [
            defaultdict(list) for _ in range(ntables)
        ]
        self._store = GrowBuffer(dim, np.float32)
        self._bit_weights = 1 << np.arange(nbits, dtype=np.int64)

    @property
    def ntotal(self) -> int:
        return len(self._store)

    @property
    def _vectors(self) -> np.ndarray:
        return self._store.view

    def _signatures(self, vectors: np.ndarray) -> np.ndarray:
        """Bucket key per (vector, table): ``(n, ntables)`` int64."""
        sigs = np.empty((len(vectors), self.ntables), dtype=np.int64)
        for t in range(self.ntables):
            projections = vectors @ self._planes[t].T  # (n, nbits)
            bits = (projections > 0).astype(np.int64)
            sigs[:, t] = bits @ self._bit_weights
        return sigs

    def add(self, vectors: np.ndarray) -> None:
        vectors = self._check_vectors(vectors, "vectors")
        start = self.ntotal
        sigs = self._signatures(vectors)
        for offset in range(len(vectors)):
            for t in range(self.ntables):
                self._tables[t][int(sigs[offset, t])].append(start + offset)
        self._store.append(vectors)

    def search(self, queries: np.ndarray, k: int) -> SearchResult:
        queries = self._check_vectors(queries, "queries")
        self._check_k(k)
        ids = np.full((len(queries), k), -1, dtype=np.int64)
        # Distance accumulator in the SearchResult contract, not storage.
        distances = np.full((len(queries), k), np.inf, dtype=np.float64)  # repro: noqa[REP102]
        if self.ntotal == 0:
            return SearchResult(ids=ids, distances=distances)

        sigs = self._signatures(queries)
        for qi in range(len(queries)):
            candidates: set[int] = set()
            for t in range(self.ntables):
                candidates.update(self._tables[t].get(int(sigs[qi, t]), ()))
            if not candidates:
                continue
            cand_ids = np.fromiter(candidates, dtype=np.int64)
            d = _squared_distances(
                queries[qi : qi + 1], self._vectors[cand_ids]
            ).ravel()
            take = min(k, len(cand_ids))
            order = np.argsort(d, kind="stable")[:take]
            ids[qi, :take] = cand_ids[order]
            distances[qi, :take] = d[order]
        return SearchResult(ids=ids, distances=distances)

    def memory_bytes(self) -> int:
        bucket_entries = sum(
            len(bucket) for table in self._tables for bucket in table.values()
        )
        return self._store.nbytes() + self._planes.nbytes + bucket_entries * 8
