"""Product quantization (Jégou, Douze, Schmid — TPAMI 2011).

The paper's Section III-D: a 64-d float32 embedding (256 bytes) is split
into ``m`` sub-vectors, each quantized against a 256-entry codebook learned
with k-means, so each vector is stored as ``m`` one-byte codes (8 bytes with
the default ``m = 8``).  Queries use asymmetric distance computation (ADC):
the query stays uncompressed and per-subspace distance tables turn the scan
into table lookups.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.index.kmeans import KMeans
from repro.index.mutation import IndexSnapshot, RowStore
from repro.utils.contracts import array_contract
from repro.utils.rng import as_rng

__all__ = ["PQIndex", "ProductQuantizer"]


class ProductQuantizer:
    """Encodes vectors into ``m`` byte codes against learned codebooks.

    Parameters
    ----------
    dim:
        Input dimensionality; must be divisible by ``m``.
    m:
        Number of sub-quantizers (= bytes per compressed vector with the
        default 8-bit codes).
    nbits:
        Bits per code; ``2**nbits`` centroids per sub-quantizer (max 8 so a
        code fits one byte).
    """

    def __init__(
        self,
        dim: int,
        m: int = 8,
        nbits: int = 8,
        seed: int | np.random.Generator | None = None,
        kmeans_iters: int = 25,
    ):
        if dim <= 0 or m <= 0:
            raise ValueError(f"dim and m must be positive, got {dim}, {m}")
        if dim % m != 0:
            raise ValueError(f"dim {dim} must be divisible by m {m}")
        if not 1 <= nbits <= 8:
            raise ValueError(f"nbits must be in [1, 8], got {nbits}")
        self.dim = dim
        self.m = m
        self.nbits = nbits
        self.ksub = 2**nbits
        self.dsub = dim // m
        self.kmeans_iters = kmeans_iters
        self.rng = as_rng(seed)
        # codebooks: (m, ksub, dsub) once trained.
        self.codebooks: np.ndarray | None = None

    @property
    def is_trained(self) -> bool:
        return self.codebooks is not None

    @property
    def code_bytes(self) -> int:
        """Bytes per encoded vector (one byte per sub-code)."""
        return self.m

    @array_contract("vectors: (n, d) num::any -> None")
    def train(self, vectors: np.ndarray) -> None:
        """Learn one k-means codebook per sub-space."""
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) training matrix")
        if len(vectors) == 0:
            raise ValueError("cannot train PQ on zero vectors")
        codebooks = np.empty((self.m, self.ksub, self.dsub), dtype=np.float32)
        for j in range(self.m):
            sub = vectors[:, j * self.dsub : (j + 1) * self.dsub]
            km = KMeans(
                self.ksub,
                max_iters=self.kmeans_iters,
                seed=self.rng,
            ).fit(sub)
            codebooks[j] = km.centroids
        self.codebooks = codebooks

    @array_contract("vectors: (n, d) num::any -> (n, m) u8")
    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Quantize ``(n, dim)`` vectors into ``(n, m)`` uint8 codes."""
        self._require_trained()
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) matrix")
        codes = np.empty((len(vectors), self.m), dtype=np.uint8)
        for j in range(self.m):
            sub = vectors[:, j * self.dsub : (j + 1) * self.dsub]
            codes[:, j] = _nearest_codes(sub, self.codebooks[j])
        return codes

    @array_contract("codes: (n, m) int::any -> (n, d) f32")
    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes."""
        self._require_trained()
        codes = np.asarray(codes)  # repro: noqa[REP101] -- keep caller's integer code dtype
        if codes.ndim != 2 or codes.shape[1] != self.m:
            raise ValueError(f"expected (n, {self.m}) code matrix")
        out = np.empty((len(codes), self.dim), dtype=np.float32)
        for j in range(self.m):
            out[:, j * self.dsub : (j + 1) * self.dsub] = self.codebooks[j][
                codes[:, j]
            ]
        return out

    @array_contract("queries: (nq, d) num::any -> (nq, m, ksub) f64")
    def distance_tables(self, queries: np.ndarray) -> np.ndarray:
        """ADC lookup tables: ``(n_queries, m, ksub)`` squared distances."""
        self._require_trained()
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) queries")
        # ADC tables use the ||q||^2 + ||c||^2 - 2q.c expansion, which
        # cancels catastrophically in float32; accumulate in float64
        # (tables are per-query scratch, never stored).
        tables = np.empty((len(queries), self.m, self.ksub), dtype=np.float64)  # repro: noqa[REP102]
        for j in range(self.m):
            sub_q = queries[:, j * self.dsub : (j + 1) * self.dsub].astype(
                np.float64  # repro: noqa[REP102] -- cancellation-safe accumulation
            )
            cb = self.codebooks[j].astype(np.float64)  # repro: noqa[REP102] -- cancellation-safe accumulation
            cross = sub_q @ cb.T
            q_norm = (sub_q * sub_q).sum(axis=1)[:, None]
            c_norm = (cb * cb).sum(axis=1)[None, :]
            tables[:, j, :] = np.maximum(q_norm + c_norm - 2.0 * cross, 0.0)
        return tables

    @array_contract("queries: (nq, d) num::any -> (m, ksub, nq) f64")
    def scan_tables(self, queries: np.ndarray) -> np.ndarray:
        """ADC tables in scan orientation: contiguous ``(m, ksub, nq)``.

        Same numbers as :meth:`distance_tables`, transposed once per query
        batch so the hot block scan (:meth:`scan_codes`) gathers *rows* of
        ``(ksub, nq)`` sub-tables — contiguous ``nq``-wide copies the CPU
        streams — instead of one scattered element per (query, code) pair.
        """
        # ADC tables are float64 by contract (precision of the m-sum).
        return np.ascontiguousarray(
            self.distance_tables(queries).transpose(1, 2, 0),
            dtype=np.float64,  # repro: noqa[REP102]
        )

    @array_contract(
        "queries: (nq, d) num::any, codes: (n, m) int::any -> (nq, n) f64::any"
    )
    def adc_distances(self, queries: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Asymmetric squared distances queries x codes, ``(nq, n)``."""
        return self.scan_codes(self.scan_tables(queries), codes)

    @staticmethod
    @array_contract(
        "tables_t: (m, ksub, nq) f64, codes: (n, m) int::any -> (nq, n) f64::any"
    )
    def scan_codes(tables_t: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """ADC block scan: gather + reduce over sub-quantizers, ``(nq, n)``.

        ``tables_t`` is the :meth:`scan_tables` layout ``(m, ksub, nq)``.
        For each sub-quantizer ``j`` the block's codes select whole rows of
        the ``(ksub, nq)`` sub-table in one vectorised ``np.take`` (each
        gathered row is a contiguous ``nq``-vector, so the gather runs at
        memcpy speed), and the ``m`` gathered ``(n, nq)`` planes fold into
        the accumulator with BLAS-shaped full-array adds.

        The fold runs in fixed ``j = 0..m-1`` order with elementwise adds,
        so every distance is a pure function of its (query, code row) pair
        — bit-identical across any block size, shard count, or executor,
        which is what keeps ``results_identical_across_variants`` exact.
        (A literal matmul/einsum reduction over ``m`` was measured slower
        here — it must materialise the full ``(m, n, nq)`` gather — and
        GEMM kernels may re-associate the ``m``-sum differently per block
        width, which would break that bit-exactness.)
        """
        m, _, nq = tables_t.shape
        n = len(codes)
        # Accumulates m float64 table entries per code; keep their precision.
        out = np.zeros((n, nq), dtype=np.float64)  # repro: noqa[REP102]
        gathered = np.empty((n, nq), dtype=np.float64)  # repro: noqa[REP102]
        for j in range(m):
            np.take(tables_t[j], codes[:, j], axis=0, out=gathered)
            out += gathered
        return out.T

    def _require_trained(self) -> None:
        if self.codebooks is None:
            raise RuntimeError("ProductQuantizer used before train()")


def _retrain(
    codes: np.ndarray, pq: ProductQuantizer
) -> tuple[np.ndarray, ProductQuantizer]:
    """Compaction hook: fit a fresh quantizer on the decoded live
    ``codes`` and re-encode with it."""
    vectors = pq.decode(codes)
    fresh = ProductQuantizer(
        pq.dim, m=pq.m, nbits=pq.nbits, seed=pq.rng, kmeans_iters=pq.kmeans_iters
    )
    fresh.train(vectors)
    return fresh.encode(vectors), fresh


class PQIndex(RowStore):
    """Flat index over PQ codes with blockwise ADC search.

    The compressed storage is ``m`` bytes/vector versus ``4 * dim`` for
    :class:`FlatIndex`, the 256 B -> 8 B reduction the paper reports.  The
    ADC tables are computed once per query batch; the table *lookups* then
    stream over the code store one block at a time with a running top-k,
    never materialising the full ``(n_queries, ntotal)`` distance matrix.

    Mutation is the :class:`~repro.index.mutation.RowStore` protocol with
    the quantizer as the store's codec: every published snapshot holds
    the codes *and* the quantizer that encoded them.  :meth:`compact`
    additionally *re-trains* the codebooks on the decoded live set (the
    k-means runs while other *mutators* wait) and publishes fresh codes
    with the fresh quantizer in the same snapshot, so a search can never
    mix old codes with new codebooks.
    """

    # The ADC fold keeps an output tile plus a same-shape gathered LUT
    # tile alive per block: 16 working-set bytes per score.
    _bytes_per_score = 16
    _rebuild = staticmethod(_retrain)

    def __init__(
        self,
        dim: int,
        m: int = 8,
        nbits: int = 8,
        seed: int | np.random.Generator | None = None,
        kmeans_iters: int = 25,
        block_size: int | None = None,
    ):
        super().__init__(
            m,
            np.uint8,
            ProductQuantizer(
                dim, m=m, nbits=nbits, seed=seed, kmeans_iters=kmeans_iters
            ),
        )
        self.dim = dim
        self.block_size = block_size

    @property
    def pq(self) -> ProductQuantizer:
        """The quantizer the currently published codes were encoded with."""
        return self._snap.codec

    @property
    def is_trained(self) -> bool:
        return self.pq.is_trained

    @property
    def codes(self) -> np.ndarray:
        """The stored code matrix (read-only view; re-fetch after ``add``)."""
        return self._snap.data

    @array_contract("vectors: (..., d) num::any -> None")
    def train(self, vectors: np.ndarray) -> None:
        self.pq.train(self._check_vectors(vectors, "training vectors"))

    def to_shared(self, share: Callable) -> dict:
        """Constructor arguments plus codes and codebooks passed through
        ``share`` (see :meth:`FlatIndex.to_shared`)."""
        if not self.is_trained:
            raise RuntimeError("cannot export an untrained PQ shard")
        snap = self._snap
        return {
            "dim": self.dim,
            "m": snap.codec.m,
            "nbits": snap.codec.nbits,
            "block_size": self.block_size,
            "codes": share(snap.data),
            "codebooks": share(snap.codec.codebooks),
        }

    @classmethod
    def from_shared(cls, state: dict, attach: Callable) -> "PQIndex":
        """Rebuild over the arrays ``attach`` maps (inverse of
        :meth:`to_shared`)."""
        index = cls(
            state["dim"],
            m=state["m"],
            nbits=state["nbits"],
            block_size=state["block_size"],
        )
        index.pq.codebooks = attach(state["codebooks"])
        index._wrap(attach(state["codes"]))
        return index

    def _scorer(
        self, queries: np.ndarray, snap: IndexSnapshot
    ) -> Callable[[np.ndarray], np.ndarray]:
        pq = snap.codec
        # (m, ksub, nq), built once per batch.
        tables_t = pq.scan_tables(queries) if snap.rows else None
        return lambda codes: pq.scan_codes(tables_t, codes)

    @array_contract("idx: int -> (d,) f32")
    def reconstruct(self, idx: int) -> np.ndarray:
        """Approximate stored vector for row ``idx`` (decoded from codes)."""
        snap = self._snap
        return snap.codec.decode(snap.data[idx : idx + 1])[0]

    def memory_bytes(self) -> int:
        codebooks = self.pq.codebooks
        return super().memory_bytes() + (
            codebooks.nbytes if codebooks is not None else 0
        )


def _nearest_codes(sub_vectors: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Nearest centroid id in ``codebook`` for each sub-vector row."""
    # Same cancellation-prone expansion as distance_tables: float64 keeps
    # argmin ties deterministic across platforms.
    a = sub_vectors.astype(np.float64)  # repro: noqa[REP102]
    b = codebook.astype(np.float64)  # repro: noqa[REP102]
    d = (
        (a * a).sum(axis=1)[:, None]
        + (b * b).sum(axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    return d.argmin(axis=1).astype(np.uint8)
