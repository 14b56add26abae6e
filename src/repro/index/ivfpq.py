"""Inverted-file index over PQ-compressed residuals (FAISS ``IndexIVFPQ``).

Vectors are assigned to a coarse cell; the residual (vector minus cell
centroid) is PQ-encoded.  Search probes ``nprobe`` cells and ranks with
asymmetric distances computed on the query residual per probed cell.
"""

from __future__ import annotations

import numpy as np

from repro.index.base import SearchResult, VectorIndex
from repro.index.kmeans import KMeans
from repro.index.pq import ProductQuantizer
from repro.utils.rng import as_rng

__all__ = ["IVFPQIndex"]


class IVFPQIndex(VectorIndex):
    """Coarse quantizer + PQ-compressed residual codes."""

    def __init__(
        self,
        dim: int,
        nlist: int = 64,
        m: int = 8,
        nbits: int = 8,
        nprobe: int = 8,
        seed: int | np.random.Generator | None = None,
    ):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if not 1 <= nprobe <= nlist:
            raise ValueError(f"nprobe must be in [1, {nlist}], got {nprobe}")
        self.dim = dim
        self.nlist = nlist
        self.nprobe = nprobe
        self.rng = as_rng(seed)
        self.pq = ProductQuantizer(dim, m=m, nbits=nbits, seed=self.rng)
        self._quantizer: KMeans | None = None
        self._list_ids: list[list[int]] = [[] for _ in range(nlist)]
        self._list_codes: list[list[np.ndarray]] = [[] for _ in range(nlist)]
        self._ntotal = 0

    @property
    def is_trained(self) -> bool:
        return self._quantizer is not None and self.pq.is_trained

    @property
    def ntotal(self) -> int:
        return self._ntotal

    def train(self, vectors: np.ndarray) -> None:
        vectors = self._check_vectors(vectors, "training vectors")
        self._quantizer = KMeans(self.nlist, seed=self.rng).fit(vectors)
        cells = self._quantizer.predict(vectors)
        residuals = vectors - self._quantizer.centroids[cells]
        pq = self.pq.fresh()
        pq.train(residuals)
        self.pq = pq

    def add(self, vectors: np.ndarray) -> None:
        if not self.is_trained:
            raise RuntimeError("IVFPQIndex.add called before train()")
        vectors = self._check_vectors(vectors, "vectors")
        assert self._quantizer is not None
        cells = self._quantizer.predict(vectors)
        residuals = vectors - self._quantizer.centroids[cells]
        codes = self.pq.encode(residuals)
        for offset, cell in enumerate(cells):
            cell = int(cell)
            self._list_ids[cell].append(self._ntotal + offset)
            self._list_codes[cell].append(codes[offset])
        self._ntotal += len(vectors)

    def search(
        self, queries: np.ndarray, k: int, nprobe: int | None = None
    ) -> SearchResult:
        if not self.is_trained:
            raise RuntimeError("IVFPQIndex.search called before train()")
        queries = self._check_vectors(queries, "queries")
        self._check_k(k)
        nprobe = nprobe if nprobe is not None else self.nprobe
        assert self._quantizer is not None

        ids = np.full((len(queries), k), -1, dtype=np.int64)
        # Distance accumulator in the SearchResult contract, not storage.
        distances = np.full((len(queries), k), np.inf, dtype=np.float64)  # repro: noqa[REP102]
        if self._ntotal == 0:
            return SearchResult(ids=ids, distances=distances)

        cell_d = self._quantizer.transform(queries)
        probe_cells = np.argsort(cell_d, axis=1)[:, :nprobe]
        centroids = self._quantizer.centroids
        for qi in range(len(queries)):
            all_ids: list[int] = []
            all_d: list[np.ndarray] = []
            for cell in probe_cells[qi].tolist():
                if not self._list_ids[cell]:
                    continue
                # Cells hold ragged per-vector code rows; one stack per
                # probed cell is the gather, not iterative growth.
                codes = np.stack(self._list_codes[cell])  # repro: noqa[REP501]
                residual_q = (queries[qi] - centroids[cell])[None, :]
                d = self.pq.adc_distances(residual_q, codes).ravel()
                all_ids.extend(self._list_ids[cell])
                all_d.append(d)
            if not all_ids:
                continue
            cand_ids = np.asarray(all_ids, dtype=np.int64)
            # One concatenate per query over the ragged probe results.
            cand_d = np.concatenate(all_d)  # repro: noqa[REP501]
            take = min(k, len(cand_ids))
            order = np.argsort(cand_d, kind="stable")[:take]
            ids[qi, :take] = cand_ids[order]
            distances[qi, :take] = cand_d[order]
        return SearchResult(ids=ids, distances=distances)

    def memory_bytes(self) -> int:
        code_bytes = self._ntotal * self.pq.m
        centroid_bytes = self._quantizer.centroids.nbytes if self._quantizer else 0
        codebook_bytes = (
            self.pq.codebooks.nbytes if self.pq.codebooks is not None else 0
        )
        return code_bytes + centroid_bytes + codebook_bytes + self._ntotal * 8
