"""Lloyd's k-means with k-means++ seeding.

Used as the codebook learner for product quantization and as the coarse
quantizer of the IVF indexes.  Empty clusters are re-seeded from the points
farthest from their assigned centroid, matching FAISS's behaviour.

A fit costs its arithmetic once: the float64 copy of the points and their
squared norms are made once per fit, not per k-means++ step or Lloyd
iteration, and above ``MAX_POINTS_PER_CENTROID * n_clusters`` points the fit
runs on a seeded sample of that many (DESIGN.md §9, "PQ training").
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_rng

__all__ = ["KMeans", "MAX_POINTS_PER_CENTROID"]

#: FAISS's ``max_points_per_centroid``: a fit on more points than this
#: many per centroid trains on a seeded sample of that size.
MAX_POINTS_PER_CENTROID = 256


class KMeans:
    """Lloyd iteration k-means.

    Parameters
    ----------
    n_clusters:
        Number of centroids ``k``.
    max_iters:
        Upper bound on Lloyd iterations.
    tol:
        Lloyd stops once an iteration lowers the inertia by less than this
        fraction of the previous iteration's.
    seed:
        Seed or generator for k-means++ initialisation (and the sample
        drawn above the per-centroid cap).
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
        #: Lloyd iterations the last fit ran.
        self.n_iter: int = 0

    def fit(self, points: np.ndarray) -> "KMeans":
        """Fit centroids to ``points`` of shape ``(n, d)``."""
        points = np.asarray(points, dtype=np.float32)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        n = len(points)
        if n == 0:
            raise ValueError("cannot fit k-means on zero points")
        self.n_iter = 0
        if n <= self.n_clusters:
            # Degenerate case: every point is its own centroid; pad by
            # repeating points so downstream code always sees k centroids.
            reps = int(np.ceil(self.n_clusters / n))
            self.centroids = np.tile(points, (reps, 1))[: self.n_clusters].copy()
            self.inertia = 0.0
            return self
        cap = MAX_POINTS_PER_CENTROID * self.n_clusters
        if n > cap:
            points = points[self.rng.choice(n, size=cap, replace=False)]

        # ||p||^2 + ||c||^2 - 2p.c cancels catastrophically in f32; the
        # widened points and their norms are made once per fit.
        p64 = points.astype(np.float64)  # repro: noqa[REP102]
        p_norms = (p64 * p64).sum(axis=1)
        centroids = self._init_plus_plus(p64, p_norms)
        previous_inertia = float("inf")
        for _ in range(self.max_iters):
            assignments, distances = _nearest(p64, p_norms, centroids)
            inertia = float(distances.sum())
            centroids = self._update(p64, p_norms, assignments, centroids)
            self.n_iter += 1
            converged = inertia >= (1.0 - self.tol) * previous_inertia
            previous_inertia = inertia
            if converged:
                break
        self.centroids = centroids
        self.inertia = previous_inertia
        return self

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Nearest-centroid id for each point, ``(n,)`` int64."""
        if self.centroids is None:
            raise RuntimeError("KMeans.predict called before fit")
        p64 = np.asarray(points, dtype=np.float32).astype(np.float64)  # repro: noqa[REP102]
        return _nearest(p64, (p64 * p64).sum(axis=1), self.centroids)[0]

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Squared distance from each point to every centroid, ``(n, k)``
        float64."""
        if self.centroids is None:
            raise RuntimeError("KMeans.transform called before fit")
        return _squared_distances(
            np.asarray(points, dtype=np.float32), self.centroids
        )

    # -- internals ----------------------------------------------------------------

    def _init_plus_plus(self, p64: np.ndarray, p_norms: np.ndarray) -> np.ndarray:
        n = len(p64)
        centroids = np.empty((self.n_clusters, p64.shape[1]), dtype=np.float32)
        first = int(self.rng.integers(0, n))
        centroids[0] = p64[first]
        closest = _distances_from(p64, p_norms, centroids[:1]).ravel()
        for c in range(1, self.n_clusters):
            total = closest.sum()
            if total <= 0:
                # All points coincide with chosen centroids; sample uniformly.
                pick = int(self.rng.integers(0, n))
            else:
                probs = closest / total
                pick = int(self.rng.choice(n, p=probs))
            centroids[c] = p64[pick]
            new_d = _distances_from(p64, p_norms, centroids[c : c + 1]).ravel()
            np.minimum(closest, new_d, out=closest)
        return centroids

    @staticmethod
    def _update(
        p64: np.ndarray,
        p_norms: np.ndarray,
        assignments: np.ndarray,
        centroids: np.ndarray,
    ) -> np.ndarray:
        k, d = centroids.shape
        # Centroid updates accumulate n float32 terms; f64 keeps them exact.
        # A weighted bincount per column adds in point order: the sums of
        # np.add.at, bit for bit, at a twentieth of its cost.
        counts = np.bincount(assignments, minlength=k).astype(np.float64)  # repro: noqa[REP102] f64 accumulation
        sums = np.stack(
            [np.bincount(assignments, weights=p64[:, j], minlength=k) for j in range(d)],
            axis=1,
        )
        new_centroids = centroids.astype(np.float64).copy()  # repro: noqa[REP102] f64 accumulation
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        # Re-seed empty clusters from the farthest points.
        empties = np.flatnonzero(~nonempty)
        if empties.size:
            distances = _nearest(p64, p_norms, new_centroids.astype(np.float32))[1]
            farthest = distances.argsort()[::-1]
            for slot, point_idx in zip(empties, farthest):
                new_centroids[slot] = p64[point_idx]
        return new_centroids.astype(np.float32)


def _nearest(
    p64: np.ndarray, p_norms: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid id, ``(n,)`` int64, and its squared distance,
    ``(n,)`` float64, for float64 points with norms ``p_norms``.

    The argmin runs over ``||c||^2 - 2 p.c`` in one ``(n, k)`` float64
    temporary; the point's own norm, the same in every column, is added
    back to the chosen entry only (clipped at 0).
    """
    c64 = centroids.astype(np.float64)  # repro: noqa[REP102]
    scores = p64 @ c64.T
    scores *= -2.0
    scores += (c64 * c64).sum(axis=1)
    assignments = scores.argmin(axis=1)
    best = scores[np.arange(len(scores), dtype=np.int64), assignments]
    best += p_norms
    np.maximum(best, 0.0, out=best)
    return assignments, best


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared L2 distances, ``(len(a), len(b))``, clipped at 0."""
    # ||a||^2+||b||^2-2ab cancels catastrophically in f32; storage stays f32.
    a64 = a.astype(np.float64, copy=False)  # repro: noqa[REP102]
    return _distances_from(a64, (a64 * a64).sum(axis=1), b)


def _distances_from(
    p64: np.ndarray, p_norms: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """:func:`_squared_distances` from points already widened to float64,
    with their squared norms ``p_norms``."""
    b64 = b.astype(np.float64, copy=False)  # repro: noqa[REP102]
    d = p_norms[:, None] + (b64 * b64).sum(axis=1)[None, :] - 2.0 * (p64 @ b64.T)
    np.maximum(d, 0.0, out=d)
    return d
