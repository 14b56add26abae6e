"""Lloyd's k-means with k-means++ seeding.

Used as the codebook learner for product quantization and as the coarse
quantizer of the IVF indexes.  Empty clusters are re-seeded from the points
farthest from their assigned centroid, matching FAISS's behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_rng

__all__ = ["KMeans"]


class KMeans:
    """Lloyd iteration k-means.

    Parameters
    ----------
    n_clusters:
        Number of centroids ``k``.
    max_iters:
        Upper bound on Lloyd iterations.
    tol:
        Relative improvement threshold for early stopping.
    seed:
        Seed or generator for k-means++ initialisation.
    """

    def __init__(
        self,
        n_clusters: int,
        max_iters: int = 25,
        tol: float = 1e-4,
        seed: int | np.random.Generator | None = None,
    ):
        if n_clusters <= 0:
            raise ValueError(f"n_clusters must be positive, got {n_clusters}")
        self.n_clusters = n_clusters
        self.max_iters = max_iters
        self.tol = tol
        self.rng = as_rng(seed)
        self.centroids: np.ndarray | None = None
        self.inertia: float = float("inf")

    def fit(self, points: np.ndarray) -> "KMeans":
        """Fit centroids to ``points`` of shape ``(n, d)``."""
        points = np.asarray(points, dtype=np.float32)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        n = len(points)
        if n == 0:
            raise ValueError("cannot fit k-means on zero points")
        if n <= self.n_clusters:
            # Degenerate case: every point is its own centroid; pad by
            # repeating points so downstream code always sees k centroids.
            reps = int(np.ceil(self.n_clusters / n))
            self.centroids = np.tile(points, (reps, 1))[: self.n_clusters].copy()
            self.inertia = 0.0
            return self

        centroids = self._init_plus_plus(points)
        previous_inertia = float("inf")
        for _ in range(self.max_iters):
            assignments, distances = self._assign(points, centroids)
            inertia = float(distances.sum())
            centroids = self._update(points, assignments, centroids)
            if previous_inertia - inertia <= self.tol * max(previous_inertia, 1e-12):
                previous_inertia = inertia
                break
            previous_inertia = inertia
        self.centroids = centroids
        self.inertia = previous_inertia
        return self

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Nearest-centroid id for each point, ``(n,)`` int64."""
        if self.centroids is None:
            raise RuntimeError("KMeans.predict called before fit")
        assignments, _ = self._assign(
            np.asarray(points, dtype=np.float32), self.centroids
        )
        return assignments

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Squared distance from each point to every centroid, ``(n, k)``
        float64."""
        if self.centroids is None:
            raise RuntimeError("KMeans.transform called before fit")
        return _squared_distances(
            np.asarray(points, dtype=np.float32), self.centroids
        )

    # -- internals ----------------------------------------------------------------

    def _init_plus_plus(self, points: np.ndarray) -> np.ndarray:
        n = len(points)
        centroids = np.empty((self.n_clusters, points.shape[1]), dtype=np.float32)
        first = int(self.rng.integers(0, n))
        centroids[0] = points[first]
        closest = _squared_distances(points, centroids[:1]).ravel()
        for c in range(1, self.n_clusters):
            total = closest.sum()
            if total <= 0:
                # All points coincide with chosen centroids; sample uniformly.
                pick = int(self.rng.integers(0, n))
            else:
                probs = closest / total
                pick = int(self.rng.choice(n, p=probs))
            centroids[c] = points[pick]
            new_d = _squared_distances(points, centroids[c : c + 1]).ravel()
            np.minimum(closest, new_d, out=closest)
        return centroids

    @staticmethod
    def _assign(
        points: np.ndarray, centroids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        d = _squared_distances(points, centroids)
        assignments = d.argmin(axis=1)
        return assignments, d[np.arange(len(points), dtype=np.int64), assignments]

    def _update(
        self, points: np.ndarray, assignments: np.ndarray, centroids: np.ndarray
    ) -> np.ndarray:
        k, d = centroids.shape
        # Centroid updates accumulate n float32 terms; f64 keeps them exact.
        sums = np.zeros((k, d), dtype=np.float64)  # repro: noqa[REP102]
        counts = np.bincount(assignments, minlength=k).astype(np.float64)  # repro: noqa[REP102] f64 accumulation
        np.add.at(sums, assignments, points)
        new_centroids = centroids.astype(np.float64).copy()  # repro: noqa[REP102] f64 accumulation
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        # Re-seed empty clusters from the farthest points.
        empties = np.flatnonzero(~nonempty)
        if empties.size:
            distances = _squared_distances(points, new_centroids.astype(np.float32))
            farthest = distances.min(axis=1).argsort()[::-1]
            for slot, point_idx in zip(empties, farthest):
                new_centroids[slot] = points[point_idx]
        return new_centroids.astype(np.float32)


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared L2 distances, ``(len(a), len(b))``, clipped at 0."""
    # ||a||^2+||b||^2-2ab cancels catastrophically in f32; storage stays f32.
    a64 = a.astype(np.float64, copy=False)  # repro: noqa[REP102]
    b64 = b.astype(np.float64, copy=False)  # repro: noqa[REP102]
    cross = a64 @ b64.T
    a_norms = (a64 * a64).sum(axis=1)[:, None]
    b_norms = (b64 * b64).sum(axis=1)[None, :]
    d = a_norms + b_norms - 2.0 * cross
    np.maximum(d, 0.0, out=d)
    return d
