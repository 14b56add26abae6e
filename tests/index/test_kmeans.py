"""Tests for repro.index.kmeans."""

import numpy as np
import pytest

from repro.index import kmeans
from repro.index.kmeans import KMeans, _squared_distances


def blobs(n_per=50, centers=((0, 0), (10, 10), (-10, 10)), seed=0):
    rng = np.random.default_rng(seed)
    points = [
        rng.normal(size=(n_per, 2)) + np.asarray(c) for c in centers
    ]
    return np.concatenate(points).astype(np.float32)


# -- frozen references: the k-means++ seeding and centroid update as they
# were before the float64 points and their norms were hoisted out of the
# loops.  The library must keep reproducing them bit for bit.


def _frozen_squared_distances(a, b):
    a64 = a.astype(np.float64, copy=False)
    b64 = b.astype(np.float64, copy=False)
    cross = a64 @ b64.T
    a_norms = (a64 * a64).sum(axis=1)[:, None]
    b_norms = (b64 * b64).sum(axis=1)[None, :]
    d = a_norms + b_norms - 2.0 * cross
    np.maximum(d, 0.0, out=d)
    return d


def _frozen_init_plus_plus(rng, points, n_clusters):
    n = len(points)
    centroids = np.empty((n_clusters, points.shape[1]), dtype=np.float32)
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    closest = _frozen_squared_distances(points, centroids[:1]).ravel()
    for c in range(1, n_clusters):
        total = closest.sum()
        if total <= 0:
            pick = int(rng.integers(0, n))
        else:
            probs = closest / total
            pick = int(rng.choice(n, p=probs))
        centroids[c] = points[pick]
        new_d = _frozen_squared_distances(points, centroids[c : c + 1]).ravel()
        np.minimum(closest, new_d, out=closest)
    return centroids


def _frozen_update_sums(points, assignments, k):
    """The ``np.add.at`` centroid means of every non-empty cluster."""
    sums = np.zeros((k, points.shape[1]), dtype=np.float64)
    counts = np.bincount(assignments, minlength=k).astype(np.float64)
    np.add.at(sums, assignments, points)
    nonempty = counts > 0
    return (sums[nonempty] / counts[nonempty, None]).astype(np.float32), nonempty


def _seeds(points, n_clusters, seed):
    """What a fit seeds with: ``max_iters=0`` returns the k-means++ pick."""
    return KMeans(n_clusters, max_iters=0, seed=seed).fit(points).centroids


class TestSeedingIsFrozen:
    """k-means++ seeding is bit-identical to the frozen reference above."""

    def test_pq_subspace(self):
        points = np.random.default_rng(4).normal(size=(6000, 8)).astype(np.float32)
        want = _frozen_init_plus_plus(np.random.default_rng(3), points, 256)
        assert _seeds(points, 256, 3).tobytes() == want.tobytes()

    def test_one_more_point_than_clusters(self):
        points = np.random.default_rng(5).normal(size=(17, 4)).astype(np.float32)
        want = _frozen_init_plus_plus(np.random.default_rng(9), points, 16)
        assert _seeds(points, 16, 9).tobytes() == want.tobytes()

    def test_coincident_points_take_the_uniform_branch(self):
        points = np.ones((50, 3), dtype=np.float32)
        want = _frozen_init_plus_plus(np.random.default_rng(0), points, 4)
        assert _seeds(points, 4, 0).tobytes() == want.tobytes()

    def test_float64_input(self):
        points = np.random.default_rng(6).normal(size=(600, 8))
        want = _frozen_init_plus_plus(
            np.random.default_rng(2), points.astype(np.float32), 32
        )
        assert _seeds(points, 32, 2).tobytes() == want.tobytes()


class TestCentroidUpdate:
    def test_bincount_sums_equal_add_at_sums(self):
        rng = np.random.default_rng(8)
        points = rng.normal(size=(6000, 8)).astype(np.float32)
        assignments = rng.integers(0, 256, size=6000)
        centroids = rng.normal(size=(256, 8)).astype(np.float32)
        p64 = points.astype(np.float64)
        got = KMeans._update(p64, (p64 * p64).sum(axis=1), assignments, centroids)
        want, nonempty = _frozen_update_sums(points, assignments, 256)
        assert nonempty.all()
        assert got.tobytes() == want.tobytes()

    def test_empty_cluster_reseeded_from_farthest_point(self):
        """Cluster 1 gets no point: it is re-seeded with the point farthest
        from its nearest updated centroid, and cluster 0 is the mean."""
        points = np.asarray([[0, 0], [0.1, 0], [10, 0]], dtype=np.float32)
        centroids = np.asarray([[1, 0], [0, 0]], dtype=np.float32)
        p64 = points.astype(np.float64)
        got = KMeans._update(
            p64, (p64 * p64).sum(axis=1), np.zeros(3, dtype=np.int64), centroids
        )
        np.testing.assert_array_equal(got[1], points[2])
        np.testing.assert_allclose(got[0], points.mean(axis=0), rtol=1e-6)


class TestLloydStopRule:
    """Lloyd runs until an iteration improves the inertia by less than
    ``tol``, or ``max_iters``; its first iteration never stops it."""

    def test_runs_past_the_first_iteration(self):
        points = blobs()
        km = KMeans(8, seed=1).fit(points)
        one = KMeans(8, seed=1, max_iters=1).fit(points)
        assert not np.array_equal(km.centroids, one.centroids)
        assert km.inertia < one.inertia
        assert km.n_iter > 1 and one.n_iter == 1

    def test_inertia_never_rises_between_iterations(self):
        points = blobs()
        n_iter = KMeans(8, seed=1).fit(points).n_iter
        # Same seed, same seeds: max_iters=t replays the first t iterations.
        trajectory = [
            KMeans(8, seed=1, max_iters=t).fit(points).inertia
            for t in range(1, n_iter + 1)
        ]
        assert all(b <= a for a, b in zip(trajectory, trajectory[1:]))

    def test_stops_by_tol_before_max_iters(self):
        points = blobs()
        km = KMeans(8, seed=1, max_iters=1000).fit(points)
        assert 1 < km.n_iter < 1000
        again = KMeans(8, seed=1, max_iters=km.n_iter).fit(points)
        assert again.centroids.tobytes() == km.centroids.tobytes()
        loose = KMeans(8, seed=1, max_iters=1000, tol=0.5).fit(points)
        assert loose.n_iter < km.n_iter


class TestSampleCap:
    def test_fit_above_the_cap_runs_on_a_seeded_sample(self, monkeypatch):
        monkeypatch.setattr(kmeans, "MAX_POINTS_PER_CENTROID", 20)
        points = blobs(n_per=100)  # 300 points > 20 x 4
        rng = np.random.default_rng(7)
        sample = points[rng.choice(len(points), size=80, replace=False)]
        want = KMeans(4, seed=rng).fit(sample).centroids
        assert KMeans(4, seed=7).fit(points).centroids.tobytes() == want.tobytes()

    def test_at_the_cap_nothing_is_sampled(self, monkeypatch):
        points = blobs(n_per=100)
        want = KMeans(4, seed=7).fit(points).centroids  # 300 points < 256 x 4
        monkeypatch.setattr(kmeans, "MAX_POINTS_PER_CENTROID", 75)  # 300 = 75 x 4
        assert KMeans(4, seed=7).fit(points).centroids.tobytes() == want.tobytes()


class TestSquaredDistances:
    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 3)).astype(np.float32)
        b = rng.normal(size=(4, 3)).astype(np.float32)
        d = _squared_distances(a, b)
        for i in range(5):
            for j in range(4):
                expected = ((a[i].astype(np.float64) - b[j]) ** 2).sum()
                assert d[i, j] == pytest.approx(expected, rel=1e-5)

    def test_non_negative(self):
        a = np.random.default_rng(2).normal(size=(10, 4)).astype(np.float32)
        assert (_squared_distances(a, a) >= 0).all()

    def test_self_distance_zero(self):
        a = np.random.default_rng(3).normal(size=(6, 4)).astype(np.float32)
        d = _squared_distances(a, a)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-4)


class TestKMeans:
    def test_recovers_separated_blobs(self):
        points = blobs()
        km = KMeans(3, seed=0).fit(points)
        # Each true centre should have a centroid nearby.
        for centre in [(0, 0), (10, 10), (-10, 10)]:
            d = ((km.centroids - np.asarray(centre)) ** 2).sum(axis=1)
            assert d.min() < 2.0

    def test_predict_consistent_with_centroids(self):
        points = blobs()
        km = KMeans(3, seed=0).fit(points)
        labels = km.predict(points)
        d = km.transform(points)
        np.testing.assert_array_equal(labels, d.argmin(axis=1))

    def test_inertia_decreases_with_more_clusters(self):
        points = blobs()
        inertia2 = KMeans(2, seed=0).fit(points).inertia
        inertia6 = KMeans(6, seed=0).fit(points).inertia
        assert inertia6 < inertia2

    def test_deterministic_given_seed(self):
        points = blobs()
        a = KMeans(3, seed=5).fit(points).centroids
        b = KMeans(3, seed=5).fit(points).centroids
        np.testing.assert_array_equal(a, b)

    def test_fewer_points_than_clusters(self):
        points = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
        km = KMeans(8, seed=0).fit(points)
        assert km.centroids.shape == (8, 4)

    def test_duplicate_points_handled(self):
        points = np.ones((50, 3), dtype=np.float32)
        km = KMeans(4, seed=0).fit(points)
        assert km.centroids.shape == (4, 3)
        assert np.isfinite(km.centroids).all()

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KMeans(2).predict(np.zeros((3, 2)))

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            KMeans(2).fit(np.zeros((0, 2)))

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            KMeans(0)

    def test_all_centroids_retained(self):
        """Empty-cluster re-seeding keeps exactly k distinct slots."""
        points = blobs(n_per=30)
        km = KMeans(10, seed=1).fit(points)
        assert km.centroids.shape[0] == 10
