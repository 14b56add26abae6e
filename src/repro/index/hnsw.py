"""HNSW: hierarchical navigable small-world graph index (Malkov & Yashunin).

The paper's Section III-C shortlists FAISS, nmslib, and annoy as
approximate-similarity-search libraries; nmslib's flagship index is HNSW.
This is a from-scratch implementation of the algorithm:

- every vector is inserted with a geometrically-sampled maximum layer;
- each layer holds a navigable small-world graph with at most ``m``
  neighbours per node (``m0 = 2m`` on the ground layer);
- search greedily descends from the top layer's entry point, then runs a
  best-first beam of width ``ef`` on the ground layer.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.index.base import SearchResult, VectorIndex
from repro.index.buffer import GrowBuffer
from repro.utils.rng import as_rng

__all__ = ["HNSWIndex"]


class HNSWIndex(VectorIndex):
    """Graph-based approximate nearest-neighbour index.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    m:
        Max neighbours per node on upper layers (ground layer keeps 2m).
    ef_construction:
        Beam width while inserting.
    ef_search:
        Default beam width while querying (>= k for good recall).
    """

    def __init__(
        self,
        dim: int,
        m: int = 16,
        ef_construction: int = 64,
        ef_search: int = 32,
        seed: int | np.random.Generator | None = None,
    ):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if m < 2:
            raise ValueError(f"m must be >= 2, got {m}")
        if ef_construction < 1 or ef_search < 1:
            raise ValueError("ef_construction and ef_search must be >= 1")
        self.dim = dim
        self.m = m
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self.rng = as_rng(seed)
        self._level_scale = 1.0 / np.log(m)
        self._store = GrowBuffer(dim, np.float32)
        #: per node: list of neighbour lists, one per layer (0 = ground).
        self._neighbours: list[list[list[int]]] = []
        self._entry_point: int | None = None
        self._max_layer = -1

    @property
    def ntotal(self) -> int:
        return len(self._store)

    @property
    def _vectors(self) -> np.ndarray:
        return self._store.view

    # -- distance helpers ---------------------------------------------------------

    def _distance(self, a: np.ndarray, node: int) -> float:
        diff = self._vectors[node].astype(np.float64) - a  # repro: noqa[REP102] f64 distance keeps graph ties platform-stable
        return float((diff * diff).sum())

    # -- insertion -----------------------------------------------------------------

    def add(self, vectors: np.ndarray) -> None:
        vectors = self._check_vectors(vectors, "vectors")
        if len(vectors) == 0:
            return
        start = self.ntotal
        # Amortized doubling buffer: O(n) total copying across any add
        # pattern, versus O(n^2) for a per-call np.concatenate.
        self._store.append(vectors)
        for node in range(start, self.ntotal):
            self._insert(node)

    def _sample_level(self) -> int:
        return int(-np.log(max(self.rng.random(), 1e-12)) * self._level_scale)

    def _insert(self, node: int) -> None:
        vector = self._vectors[node]
        level = self._sample_level()
        self._neighbours.append([[] for _ in range(level + 1)])

        if self._entry_point is None:
            self._entry_point = node
            self._max_layer = level
            return

        query = vector.astype(np.float64)  # repro: noqa[REP102] f64 distance keeps graph ties platform-stable
        current = self._entry_point
        # Greedy descent through layers above the new node's level.
        for layer in range(self._max_layer, level, -1):
            current = self._greedy_step(query, current, layer)

        # Insert with beam search on each shared layer.
        for layer in range(min(level, self._max_layer), -1, -1):
            candidates = self._search_layer(
                query, [current], layer, self.ef_construction
            )
            limit = self.m * 2 if layer == 0 else self.m
            chosen = self._select_heuristic(sorted(candidates), limit)
            self._neighbours[node][layer] = list(chosen)
            for other in chosen:
                links = self._neighbours[other][layer]
                links.append(node)
                if len(links) > limit:
                    other_vec = self._vectors[other].astype(np.float64)  # repro: noqa[REP102] f64 distance keeps graph ties platform-stable
                    ranked = sorted(
                        (self._distance(other_vec, x), x) for x in links
                    )
                    # Heuristic re-selection, but never evict the link to
                    # the brand-new node — dropping it is what disconnects
                    # dense clusters from the rest of the graph.
                    kept = self._select_heuristic(ranked, limit)
                    if node not in kept:
                        kept[-1] = node
                    self._neighbours[other][layer] = kept
            current = chosen[0] if chosen else current

        if level > self._max_layer:
            self._max_layer = level
            self._entry_point = node

    def _select_heuristic(
        self, ranked: list[tuple[float, int]], limit: int
    ) -> list[int]:
        """Malkov & Yashunin's neighbour-selection heuristic.

        A candidate is kept only when it is closer to the base point than
        to every already-selected neighbour — preferring *diverse*
        directions over a clique of mutual near-duplicates, which is what
        keeps distant clusters navigable.
        """
        selected: list[int] = []
        for d_base, candidate in ranked:
            if len(selected) == limit:
                break
            cand_vec = self._vectors[candidate].astype(np.float64)  # repro: noqa[REP102] f64 distance keeps graph ties platform-stable
            dominated = any(
                self._distance(cand_vec, kept) < d_base for kept in selected
            )
            if not dominated:
                selected.append(candidate)
        if len(selected) < limit:
            # Back-fill with the nearest skipped candidates.
            chosen = set(selected)
            for _, candidate in ranked:
                if len(selected) == limit:
                    break
                if candidate not in chosen:
                    selected.append(candidate)
                    chosen.add(candidate)
        return selected

    def _greedy_step(self, query: np.ndarray, start: int, layer: int) -> int:
        current = start
        current_d = self._distance(query, current)
        improved = True
        while improved:
            improved = False
            for neighbour in self._neighbours[current][layer] if layer < len(
                self._neighbours[current]
            ) else []:
                d = self._distance(query, neighbour)
                if d < current_d:
                    current, current_d = neighbour, d
                    improved = True
        return current

    def _search_layer(
        self, query: np.ndarray, entry_points: list[int], layer: int, ef: int
    ) -> list[tuple[float, int]]:
        """Best-first beam search; returns (distance, node) pairs."""
        visited: set[int] = set(entry_points)
        candidates: list[tuple[float, int]] = []
        results: list[tuple[float, int]] = []  # max-heap via negation
        for point in entry_points:
            d = self._distance(query, point)
            heapq.heappush(candidates, (d, point))
            heapq.heappush(results, (-d, point))
        while candidates:
            d, node = heapq.heappop(candidates)
            worst = -results[0][0]
            if d > worst and len(results) >= ef:
                break
            node_layers = self._neighbours[node]
            neighbours = node_layers[layer] if layer < len(node_layers) else []
            for neighbour in neighbours:
                if neighbour in visited:
                    continue
                visited.add(neighbour)
                nd = self._distance(query, neighbour)
                worst = -results[0][0]
                if len(results) < ef or nd < worst:
                    heapq.heappush(candidates, (nd, neighbour))
                    heapq.heappush(results, (-nd, neighbour))
                    if len(results) > ef:
                        heapq.heappop(results)
        return [(-negd, node) for negd, node in results]

    # -- query -----------------------------------------------------------------------

    def search(
        self, queries: np.ndarray, k: int, ef: int | None = None
    ) -> SearchResult:
        queries = self._check_vectors(queries, "queries")
        self._check_k(k)
        ef = max(ef if ef is not None else self.ef_search, k)
        ids = np.full((len(queries), k), -1, dtype=np.int64)
        # Distance accumulator in the SearchResult contract, not storage.
        distances = np.full((len(queries), k), np.inf, dtype=np.float64)  # repro: noqa[REP102]
        if self._entry_point is None:
            return SearchResult(ids=ids, distances=distances)

        for qi in range(len(queries)):
            query = queries[qi].astype(np.float64)  # repro: noqa[REP102] f64 distance keeps graph ties platform-stable
            current = self._entry_point
            for layer in range(self._max_layer, 0, -1):
                current = self._greedy_step(query, current, layer)
            found = self._search_layer(query, [current], 0, ef)
            found.sort()
            take = min(k, len(found))
            for slot in range(take):
                distances[qi, slot], ids[qi, slot] = found[slot]
        return SearchResult(ids=ids, distances=distances)

    def memory_bytes(self) -> int:
        link_bytes = sum(
            8 * len(layer) for node in self._neighbours for layer in node
        )
        return self._store.nbytes() + link_bytes
