"""String LSH lookup: MinHash over q-gram sets, banded for candidates.

The paper's Table V "LSH" baseline — a locality-sensitive-hashing variant
optimised for edit-distance-like similarity.  MinHash signatures of the
label's trigram set are split into bands; labels colliding with the query
in any band are re-ranked by exact Levenshtein distance.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.lookup.rows import RowTableLookup
from repro.text.distance import levenshtein, qgrams
from repro.utils.ranking import BestRows
from repro.utils.rng import as_rng

__all__ = ["LSHStringLookup"]

_HASH_PRIME = (1 << 61) - 1


class LSHStringLookup(RowTableLookup):
    name = "lsh"

    def __init__(
        self,
        num_hashes: int = 32,
        bands: int = 8,
        q: int = 3,
        include_aliases: bool = False,
        seed: int | np.random.Generator | None = 0,
    ):
        super().__init__(include_aliases)
        if num_hashes % bands != 0:
            raise ValueError(
                f"num_hashes {num_hashes} must be divisible by bands {bands}"
            )
        self.num_hashes = num_hashes
        self.bands = bands
        self.rows_per_band = num_hashes // bands
        self.q = q
        rng = as_rng(seed)
        self._a = rng.integers(1, _HASH_PRIME, size=num_hashes, dtype=np.int64)
        self._b = rng.integers(0, _HASH_PRIME, size=num_hashes, dtype=np.int64)
        self._buckets: list[dict[int, list[int]]] = [
            defaultdict(list) for _ in range(bands)
        ]

    def _index_row(self, row: int, label: str) -> None:
        for band, key in enumerate(self._band_keys(self._minhash(label))):
            self._buckets[band][key].append(row)

    def _minhash(self, label: str) -> np.ndarray:
        grams = qgrams(label, self.q)
        if not grams:
            return np.zeros(self.num_hashes, dtype=np.int64)
        gram_hashes = np.asarray(
            [hash_gram(gram) for gram in set(grams)], dtype=np.int64
        )
        # (num_hashes, n_grams) universal hashing, min over grams.
        mixed = (
            self._a[:, None] * gram_hashes[None, :] + self._b[:, None]
        ) % _HASH_PRIME
        return mixed.min(axis=1)

    def _band_keys(self, signature: np.ndarray) -> list[int]:
        keys = []
        for band in range(self.bands):
            chunk = signature[
                band * self.rows_per_band : (band + 1) * self.rows_per_band
            ]
            keys.append(hash(tuple(int(v) for v in chunk)))
        return keys

    def _score(self, query: str, best: BestRows) -> None:
        candidate_rows: set[int] = set()
        for band, key in enumerate(self._band_keys(self._minhash(query))):
            candidate_rows.update(self._buckets[band].get(key, ()))
        for row in candidate_rows:
            if self.rows.entity_ids[row] is not None:
                best.offer(float(-levenshtein(query, self.rows.labels[row])), row)

    def index_bytes(self) -> int:
        bucket_entries = sum(
            len(rows) for table in self._buckets for rows in table.values()
        )
        label_bytes = sum(len(label.encode()) for label in self.rows.labels)
        return bucket_entries * 8 + label_bytes


def hash_gram(gram: str) -> int:
    """Stable 61-bit hash of a q-gram (FNV-1a folded into the prime field)."""
    value = 0xCBF29CE484222325
    for byte in gram.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value % _HASH_PRIME
