"""PCA dimensionality reduction — the Figure 5 compression alternative.

The paper compares PQ against PCA at matched storage budgets: a vector
compressed to ``b`` bytes keeps ``b / 4`` float32 principal components.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PCATransform"]


class PCATransform:
    """Learns a mean-centred orthogonal projection to ``n_components`` dims."""

    def __init__(self, n_components: int):
        if n_components <= 0:
            raise ValueError(
                f"n_components must be positive, got {n_components}"
            )
        self.n_components = n_components
        self.mean: np.ndarray | None = None
        self.components: np.ndarray | None = None  # (n_components, dim)
        self.explained_variance: np.ndarray | None = None

    @property
    def is_trained(self) -> bool:
        return self.components is not None

    def train(self, vectors: np.ndarray) -> "PCATransform":
        """Fit on ``(n, d)`` data via SVD of the centred matrix.

        Fitting runs in float64 on purpose: the SVD of a centred matrix
        loses orthogonality in float32 accumulation, and training is a
        one-time cost.  Everything stored for serving is cast back to
        float32 by the callers of :meth:`apply`/:meth:`inverse`.
        """
        vectors = np.asarray(vectors, dtype=np.float64)  # repro: noqa[REP102] f64 SVD numerics by design
        if vectors.ndim != 2:
            raise ValueError(f"expected 2-D matrix, got shape {vectors.shape}")
        n, d = vectors.shape
        if self.n_components > d:
            raise ValueError(
                f"n_components {self.n_components} exceeds dimensionality {d}"
            )
        if n < 2:
            raise ValueError("PCA needs at least two training vectors")
        self.mean = vectors.mean(axis=0)
        centred = vectors - self.mean
        _, singular_values, vt = np.linalg.svd(centred, full_matrices=False)
        self.components = vt[: self.n_components]
        self.explained_variance = (singular_values[: self.n_components] ** 2) / (
            n - 1
        )
        return self

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Project ``(n, d)`` vectors to ``(n, n_components)`` float32."""
        if self.components is None or self.mean is None:
            raise RuntimeError("PCATransform.apply called before train()")
        # Project in float64 to match the training numerics, return f32.
        vectors = np.asarray(vectors, dtype=np.float64)  # repro: noqa[REP102] f64 projection, f32 output
        return ((vectors - self.mean) @ self.components.T).astype(np.float32)

    def inverse(self, projected: np.ndarray) -> np.ndarray:
        """Best-effort reconstruction back to the original space:
        ``(n, n_components)`` in, ``(n, d)`` float32 out."""
        if self.components is None or self.mean is None:
            raise RuntimeError("PCATransform.inverse called before train()")
        # Reconstruct in float64 to match the training numerics, return f32.
        projected = np.asarray(projected, dtype=np.float64)  # repro: noqa[REP102] f64 reconstruction, f32 output
        return (projected @ self.components + self.mean).astype(np.float32)

    def bytes_per_vector(self) -> int:
        """Storage cost: 4 bytes per retained component."""
        return 4 * self.n_components
