"""Inverted-file index with flat (uncompressed) posting lists.

FAISS ``IndexIVFFlat`` equivalent: a coarse k-means quantizer partitions the
space into ``nlist`` cells; queries probe only the ``nprobe`` nearest cells.
"""

from __future__ import annotations

import numpy as np

from repro.index.base import SearchResult, VectorIndex
from repro.index.buffer import GrowBuffer
from repro.index.kmeans import KMeans, _squared_distances
from repro.utils.rng import as_rng

__all__ = ["IVFFlatIndex"]


class IVFFlatIndex(VectorIndex):
    """Coarse-quantized exact search over probed cells.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    nlist:
        Number of coarse cells.
    nprobe:
        Default number of cells scanned per query (overridable per search).
    """

    def __init__(
        self,
        dim: int,
        nlist: int = 64,
        nprobe: int = 8,
        seed: int | np.random.Generator | None = None,
    ):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if nlist <= 0:
            raise ValueError(f"nlist must be positive, got {nlist}")
        if not 1 <= nprobe <= nlist:
            raise ValueError(f"nprobe must be in [1, {nlist}], got {nprobe}")
        self.dim = dim
        self.nlist = nlist
        self.nprobe = nprobe
        self.rng = as_rng(seed)
        self._quantizer: KMeans | None = None
        self._lists: list[list[int]] = [[] for _ in range(nlist)]
        self._store = GrowBuffer(dim, np.float32)

    @property
    def is_trained(self) -> bool:
        return self._quantizer is not None

    @property
    def ntotal(self) -> int:
        return len(self._store)

    @property
    def _vectors(self) -> np.ndarray:
        return self._store.view

    def train(self, vectors: np.ndarray) -> None:
        vectors = self._check_vectors(vectors, "training vectors")
        self._quantizer = KMeans(self.nlist, seed=self.rng).fit(vectors)

    def add(self, vectors: np.ndarray) -> None:
        if self._quantizer is None:
            raise RuntimeError("IVFFlatIndex.add called before train()")
        vectors = self._check_vectors(vectors, "vectors")
        start = self.ntotal
        cells = self._quantizer.predict(vectors)
        for offset, cell in enumerate(cells):
            self._lists[int(cell)].append(start + offset)
        self._store.append(vectors)

    def search(
        self, queries: np.ndarray, k: int, nprobe: int | None = None
    ) -> SearchResult:
        if self._quantizer is None:
            raise RuntimeError("IVFFlatIndex.search called before train()")
        queries = self._check_vectors(queries, "queries")
        self._check_k(k)
        nprobe = nprobe if nprobe is not None else self.nprobe
        if not 1 <= nprobe <= self.nlist:
            raise ValueError(f"nprobe must be in [1, {self.nlist}], got {nprobe}")

        ids = np.full((len(queries), k), -1, dtype=np.int64)
        # Distance accumulator in the SearchResult contract, not storage.
        distances = np.full((len(queries), k), np.inf, dtype=np.float64)  # repro: noqa[REP102]
        if self.ntotal == 0:
            return SearchResult(ids=ids, distances=distances)

        cell_d = self._quantizer.transform(queries)  # (nq, nlist)
        probe_cells = np.argsort(cell_d, axis=1)[:, :nprobe]
        for qi in range(len(queries)):
            candidates: list[int] = []
            for cell in probe_cells[qi].tolist():
                candidates.extend(self._lists[cell])
            if not candidates:
                continue
            cand_ids = np.asarray(candidates, dtype=np.int64)
            d = _squared_distances(
                queries[qi : qi + 1], self._vectors[cand_ids]
            ).ravel()
            take = min(k, len(cand_ids))
            order = np.argsort(d, kind="stable")[:take]
            ids[qi, :take] = cand_ids[order]
            distances[qi, :take] = d[order]
        return SearchResult(ids=ids, distances=distances)

    def memory_bytes(self) -> int:
        centroid_bytes = (
            self._quantizer.centroids.nbytes if self._quantizer else 0
        )
        list_bytes = sum(len(lst) for lst in self._lists) * 8
        return self._store.nbytes() + centroid_bytes + list_bytes
