"""Common interface for vector indexes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SearchResult", "VectorIndex"]


@dataclass(frozen=True)
class SearchResult:
    """k-NN result for a batch of queries.

    Attributes
    ----------
    ids:
        ``(num_queries, k)`` integer row ids into the indexed matrix;
        ``-1`` pads queries with fewer than ``k`` reachable neighbours.
    distances:
        ``(num_queries, k)`` distances aligned with ``ids`` (same padding
        convention, padded entries hold ``inf``).
    partial:
        ``True`` when the result covers only part of the store — a
        sharded search degraded gracefully because one or more shards
        failed or timed out.  Exhaustive single-index scans always
        return ``False``.
    failed_shards:
        Shard numbers whose contribution is missing from a ``partial``
        result (empty for complete results).
    """

    ids: np.ndarray
    distances: np.ndarray
    partial: bool = False
    failed_shards: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.ids.shape != self.distances.shape:
            raise ValueError(
                f"ids shape {self.ids.shape} != distances shape "
                f"{self.distances.shape}"
            )


class VectorIndex:
    """Abstract k-NN index over float vectors.

    Lifecycle: construct -> :meth:`train` (optional for some indexes) ->
    :meth:`add` -> :meth:`search`.  Implementations must be deterministic
    given the same seed.
    """

    dim: int

    @property
    def is_trained(self) -> bool:
        return True

    @property
    def ntotal(self) -> int:
        """Number of indexed vectors."""
        raise NotImplementedError

    # The doors take any numeric (..., d) array: every implementation
    # funnels through _check_vectors, which promotes 1-D inputs, coerces
    # to float32 C-contiguous exactly once and rejects a wrong width, so
    # the kernels behind the door see only (n, d) float32 C rows.
    def train(self, vectors: np.ndarray) -> None:
        """Learn index parameters (codebooks, coarse centroids) from data."""
        # Default: training-free index.

    def add(self, vectors: np.ndarray) -> None:
        """Append vectors; their ids are assigned sequentially."""
        raise NotImplementedError

    def search(self, queries: np.ndarray, k: int) -> SearchResult:
        """Return the ``k`` nearest indexed vectors for each query row."""
        raise NotImplementedError

    def memory_bytes(self) -> int:
        """Approximate resident size of the vector payload (for Table V-style
        storage comparisons)."""
        raise NotImplementedError

    # -- shared validation ------------------------------------------------------

    def _check_vectors(self, vectors: np.ndarray, what: str) -> np.ndarray:
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(
                f"{what} must have shape (n, {self.dim}), got {vectors.shape}"
            )
        return vectors

    @staticmethod
    def _check_k(k: int) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
