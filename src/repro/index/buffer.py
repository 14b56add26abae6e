"""Amortized-growth row buffer shared by the incremental indexes.

Every index family appends vectors (or codes) one batch at a time.  A
per-call ``np.concatenate`` copies the whole store on every ``add``, which
is O(n²) across many small adds — the pattern that throttled ``HNSWIndex``
until PR 3 batched its growth.  :class:`GrowBuffer` keeps a capacity array
that doubles geometrically, so a sequence of adds totalling ``n`` rows
copies O(n) elements overall, like ``list.append`` or FAISS's own
``std::vector``-backed storage.

Prefix stability: an :attr:`GrowBuffer.view` fetched when the buffer held
``n`` rows keeps describing exactly those ``n`` rows forever — appends
only write *beyond* the published length, and a reallocation copies the
prefix verbatim into the new backing array while the old array (and any
view onto it) stays alive and unmodified.  The online-mutation snapshot
protocol (:mod:`repro.index.mutation`) leans on this: a search that
pinned ``(rows, tombstones)`` may keep scanning its view while writers
append concurrently.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GrowBuffer"]


class GrowBuffer:
    """Append-only 2-D row store with geometric capacity doubling.

    Parameters
    ----------
    cols:
        Number of columns of every row (vector dim or code width).
    dtype:
        Element dtype of the store (float32 vectors, uint8 codes, ...).

    Notes
    -----
    :attr:`view` returns a zero-copy window onto the first ``len(self)``
    rows.  The window is invalidated by the next growth (the backing
    allocation may move); callers that hold it across ``append`` calls
    must re-fetch it.
    """

    def __init__(self, cols: int, dtype: np.dtype | type) -> None:
        if cols <= 0:
            raise ValueError(f"cols must be positive, got {cols}")
        self._data = np.empty((0, cols), dtype=dtype)
        self._len = 0

    @classmethod
    def wrap(cls, rows: np.ndarray) -> "GrowBuffer":
        """Zero-copy buffer over an existing ``(n, cols)`` matrix.

        Used by shard worker processes to serve scans straight out of a
        parent-owned shared-memory segment: ``view`` aliases ``rows``
        without copying.  The wrapped array may be read-only; the first
        ``append`` grows into a fresh private allocation (copying the
        rows out of the segment), so workers that never add pay nothing.
        """
        if rows.ndim != 2 or rows.shape[1] == 0:
            raise ValueError(
                f"expected a (n, cols>=1) matrix, got shape {rows.shape}"
            )
        buffer = cls(rows.shape[1], rows.dtype)
        buffer._data = rows
        buffer._len = len(rows)
        return buffer

    def __len__(self) -> int:
        """Number of appended rows (not the reserved capacity)."""
        return self._len

    @property
    def capacity(self) -> int:
        """Currently reserved rows (always >= ``len(self)``)."""
        return len(self._data)

    @property
    def view(self) -> np.ndarray:
        """Zero-copy view of the appended rows, ``(len(self), cols)``."""
        return self._data[: self._len]

    def append(self, rows: np.ndarray) -> None:
        """Append ``(n, cols)`` rows, doubling capacity when exhausted."""
        if rows.ndim != 2 or rows.shape[1] != self._data.shape[1]:
            raise ValueError(
                f"expected (n, {self._data.shape[1]}) rows, got {rows.shape}"
            )
        needed = self._len + len(rows)
        if needed > len(self._data):
            new_cap = max(needed, 2 * len(self._data), 8)
            grown = np.empty(
                (new_cap, self._data.shape[1]), dtype=self._data.dtype
            )
            grown[: self._len] = self._data[: self._len]
            self._data = grown
        self._data[self._len : needed] = rows
        self._len = needed

    def nbytes(self) -> int:
        """Bytes of the *logical* payload (excludes reserved slack)."""
        return self._len * self._data.shape[1] * self._data.itemsize
