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
from repro.utils.rng import as_rng

__all__ = ["PQIndex", "ProductQuantizer"]

_EPS32 = np.finfo(np.float32).eps
_TINY32 = np.finfo(np.float32).tiny


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

    @property
    def nbytes(self) -> int:
        """Bytes of the codebooks (0 before :meth:`train`)."""
        return self.codebooks.nbytes if self.codebooks is not None else 0

    def fresh(self) -> "ProductQuantizer":
        """An untrained quantizer of this shape, drawing from the same
        generator: what a re-fit trains, since trained codebooks never
        change (several stores, and pinned snapshots, may hold them)."""
        return ProductQuantizer(
            self.dim,
            m=self.m,
            nbits=self.nbits,
            seed=self.rng,
            kmeans_iters=self.kmeans_iters,
        )

    def train(self, vectors: np.ndarray) -> None:
        """Learn one k-means codebook per sub-space, once: training a
        trained quantizer is a ``RuntimeError`` (train a :meth:`fresh`
        one)."""
        if self.codebooks is not None:
            raise RuntimeError(
                "ProductQuantizer is already trained; its codebooks may be "
                "shared, so train a fresh() quantizer instead"
            )
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

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes: ``(n, m)`` integer
        codes in, ``(n, dim)`` float32 out."""
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

    def distance_tables(self, queries: np.ndarray) -> np.ndarray:
        """ADC lookup tables: ``(n_queries, m, ksub)`` float64 squared
        distances (:meth:`scan_tables`, query-major)."""
        # ADC tables are float64 by contract (precision of the m-sum).
        return np.ascontiguousarray(
            self.scan_tables(queries).transpose(2, 0, 1),
            dtype=np.float64,  # repro: noqa[REP102]
        )

    def scan_tables(self, queries: np.ndarray) -> np.ndarray:
        """ADC tables in scan orientation: float64 ``(m, ksub, nq)``, C order.

        Entry ``[j, c, q]`` is the squared distance of query ``q``'s
        ``j``-th sub-vector to centroid ``c`` of sub-quantizer ``j``, never
        negative.  All ``m`` sub-quantizers are one batched matmul over the
        ``(m, ksub, dsub)`` codebooks, laid out so the block scan gathers
        *rows* of the ``(ksub, nq)`` sub-tables — contiguous ``nq``-wide
        copies the CPU streams — instead of one scattered element per
        (query, code) pair.
        """
        self._require_trained()
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) queries")
        # ADC tables use the ||q||^2 + ||c||^2 - 2q.c expansion, which
        # cancels catastrophically in float32; accumulate in float64.  Both
        # widened operands are per-search scratch: a float64 codebook kept
        # on the quantizer would more than double its footprint.
        cb = self.codebooks.astype(np.float64)  # repro: noqa[REP102] -- cancellation-safe accumulation
        sub_q = np.ascontiguousarray(
            queries.reshape(len(queries), self.m, self.dsub).transpose(1, 0, 2),
            dtype=np.float64,  # repro: noqa[REP102] -- cancellation-safe accumulation
        )
        tables = cb @ sub_q.transpose(0, 2, 1)
        tables *= -2.0
        tables += (
            (sub_q * sub_q).sum(axis=2)[:, None, :]
            + (cb * cb).sum(axis=2)[:, :, None]
        )
        return np.maximum(tables, 0.0, out=tables)

    def adc_distances(self, queries: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Asymmetric squared distances queries x codes, ``(nq, n)``
        float64 for ``(nq, dim)`` queries and ``(n, m)`` codes."""
        return self.scan_codes(self.scan_tables(queries), codes)

    @staticmethod
    def scan_codes(tables_t: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """ADC distances of a block of codes, ``(nq, n)``, accumulated in
        the dtype of ``tables_t``.

        On the float64 :meth:`scan_tables` this is the reference
        :class:`PQIndex`'s two-stage scan is bit-equal to, and what scans
        without a top-k cut (:class:`IVFPQIndex`) rank; on their float32
        cast it is that scan's coarse pass, at half the bytes.

        ``tables_t`` is the :meth:`scan_tables` layout ``(m, ksub, nq)``.
        For each sub-quantizer ``j`` the block's codes select whole rows of
        the ``(ksub, nq)`` sub-table in one vectorised ``np.take`` (each
        gathered row is a contiguous ``nq``-vector, so the gather runs at
        memcpy speed), and the ``m`` gathered ``(n, nq)`` planes fold into
        the accumulator with BLAS-shaped full-array adds.

        The fold runs in fixed ``j = 0..m-1`` order with elementwise adds,
        so every distance is a pure function of its (query, code row) pair
        — bit-identical across any block size, shard count, or executor.
        (A literal matmul/einsum reduction over ``m`` was measured slower
        here — it must materialise the full ``(m, n, nq)`` gather — and
        GEMM kernels may re-associate the ``m``-sum differently per block
        width, which would break that bit-exactness.)
        """
        m, _, nq = tables_t.shape
        n = len(codes)
        # Accumulates m table entries per code at the tables' precision.
        out = np.zeros((n, nq), dtype=tables_t.dtype)
        gathered = np.empty((n, nq), dtype=tables_t.dtype)
        for j in range(m):
            # mode="clip" skips take's bounds-checked staging buffer (half
            # the gather's time); a byte code cannot exceed a 256-row table,
            # and a shorter table's codes come from encode's argmin over it.
            np.take(tables_t[j], codes[:, j], axis=0, out=gathered, mode="clip")
            out += gathered
        return out.T

    def _require_trained(self) -> None:
        if self.codebooks is None:
            raise RuntimeError("ProductQuantizer used before train()")


def _adc_survivors(
    tables32: np.ndarray, codes: np.ndarray, dead: np.ndarray | None, k: int
) -> np.ndarray:
    """Rows of ``codes`` not *provably* outside each query's top ``k``: an
    ``(nq, b)`` bool keep-mask over the ``(b, m)`` block, from float32
    ``(m, ksub, nq)`` tables.

    ``coarse`` is :meth:`ProductQuantizer.scan_codes` — the fixed-order
    gather and add — on the float32 cast of the tables, half the bytes of
    the float64 fold, with the ``dead`` (tombstoned) columns masked out.  Every
    ADC term is ``>= 0``, so nothing cancels and the float32 error is
    *relative* to the exact sum ``S`` of the row's ``m`` float64 entries:
    one rounding for the cast and ``m - 1`` for the adds, each at most
    ``u = eps32 / 2``, plus ``u tiny32`` per entry that casts to a
    subnormal, give::

        |coarse - S| <= g S + m u tiny32,    g = m u / (1 - m u)

    The ``k`` rows with the smallest coarse scores have ``S <= (kth +
    m u tiny32) / (1 - g)``; a row is *dropped* when its coarse score
    exceeds ::

        cut = kth (1 + 4 m eps32) + m tiny32

    and then has ``S > (cut - m u tiny32) / (1 + g)``.  ``(1 + g) / (1 -
    g) = 1 / (1 - 2 m u) ~ 1 + m eps32``, and ``cut`` itself is formed in
    float32 (``1 + 4 m eps32`` is exact, the multiply and the add round
    once each, so at least ``kth (1 + (4 m - 1) eps32)`` is left): the
    dropped row's ``S`` exceeds each of those ``k`` by a factor of at
    least ``1 + m eps32`` — ``2**30`` times the ``m 2**-53`` rounding of
    the float64 fold that ranks the survivors — and at ``kth = 0`` by
    ``m tiny32 / 2`` against entries that cast to zero, i.e. lie below
    ``u tiny32``.  So at least ``k`` live rows strictly beat a dropped
    one.  (The constant is 4, not the minimal 1, so that ``4 m - 1``
    still clears ``m`` at ``m = 1``.)  A sum or a table
    entry that overflows float32 reads ``inf``, which only ever overstates
    a score whose true value is already beyond every finite ``cut``;
    ``~(coarse > cut)`` keeps NaN scores, and a NaN or infinite ``kth`` —
    fewer than ``k`` finite live scores — keeps every live row.
    """
    m, _, nq = tables32.shape
    width = len(codes)
    if width <= k:
        keep = np.ones((nq, width), dtype=bool)
    else:
        # inf + inf and NaN terms are handled outcomes here, not errors.
        with np.errstate(over="ignore", invalid="ignore"):
            coarse = np.ascontiguousarray(
                ProductQuantizer.scan_codes(tables32, codes), dtype=np.float32
            )
            # C-order scratch: the in-place partition walks contiguous rows.
            scratch = coarse.copy()
            if dead is not None:
                scratch[:, dead] = np.inf
            scratch.partition(k - 1, axis=1)
            cut = scratch[:, k - 1 : k]
            cut *= np.float32(1.0 + 4 * m * _EPS32)
            cut += np.float32(m * _TINY32)
            keep = np.greater(coarse, cut, out=np.empty(coarse.shape, dtype=bool))
        np.logical_not(keep, out=keep)
    if dead is not None:
        keep[:, dead] = False
    return keep


def _adc_exact(
    tables_t: np.ndarray, codes: np.ndarray, cand: np.ndarray
) -> np.ndarray:
    """Float64 ADC distance of every ``(query, candidate row)`` pair:
    ``(nq, s)`` for float64 ``(m, ksub, nq)`` tables and ``(nq, s)`` int64
    ``cand``.

    The same fold as :meth:`ProductQuantizer.scan_codes` — float64 table
    entries added in ``j = 0..m-1`` order onto zero — for the candidates
    only, so each output is bit-equal to that pair's ``scan_codes`` entry:
    *pair-pure*.  ``cand`` entries of ``-1`` (padding) come back as ``inf``.
    """
    rows = codes[cand]  # (nq, s, m); padding gathers the last row
    query = np.arange(len(cand), dtype=np.int64)[:, None]
    # Accumulates m float64 table entries per pair; keep their precision.
    out = np.zeros(cand.shape, dtype=np.float64)  # repro: noqa[REP102]
    for j in range(tables_t.shape[0]):
        out += tables_t[j][rows[:, :, j], query]
    out[cand < 0] = np.inf
    return out


def _retrain(
    codes: np.ndarray, pq: ProductQuantizer
) -> tuple[np.ndarray, ProductQuantizer]:
    """Compaction hook: fit a fresh quantizer on the decoded live
    ``codes`` and re-encode with it."""
    vectors = pq.decode(codes)
    fresh = pq.fresh()
    fresh.train(vectors)
    return fresh.encode(vectors), fresh


class PQIndex(RowStore):
    """Flat index over PQ codes with blockwise, two-stage ADC search.

    The compressed storage is ``m`` bytes/vector versus ``4 * dim`` for
    :class:`FlatIndex`, the 256 B -> 8 B reduction the paper reports.  The
    ADC tables are computed once per query batch, in float64, and cast
    once to float32.  The block loop is :meth:`~repro.index.mutation.
    RowStore.search`, shared with the flat index: per block the float32
    tables rank every code and cut at the ``k``-th smallest score
    (:func:`_adc_survivors`), and only the rows the cut could not rule
    out — ``k`` plus the exact-duplicate codes — are re-scored from the
    float64 tables (:func:`_adc_exact`).  Ids *and* distances equal
    ranking :meth:`ProductQuantizer.adc_distances` by ``(distance, id)``,
    bit for bit (DESIGN.md §9, "PQ scan: coarse + re-score").

    Mutation is the :class:`~repro.index.mutation.RowStore` protocol with
    the quantizer as the store's codec: every published snapshot holds
    the codes *and* the quantizer that encoded them.  :meth:`compact`
    additionally *re-trains* the codebooks on the decoded live set (the
    k-means runs while other *mutators* wait) and publishes fresh codes
    with the fresh quantizer in the same snapshot, so a search can never
    mix old codes with new codebooks.
    """

    # Two float32 tiles: the running sum and the gathered table plane.
    _bytes_per_score = 8
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

    def train(self, vectors: np.ndarray) -> None:
        """Fit a :meth:`~ProductQuantizer.fresh` quantizer on ``vectors``
        and publish it (:meth:`~repro.index.mutation.RowStore.use_codec`).
        The one it replaces is never re-fit in place: other shards of a
        sharded index, or a pinned snapshot, may still hold it."""
        fresh = self.pq.fresh()
        fresh.train(self._check_vectors(vectors, "training vectors"))
        self.use_codec(fresh)

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

    def _scan_kernels(
        self, queries: np.ndarray, snap: IndexSnapshot, k: int
    ) -> tuple[Callable, Callable]:
        """:func:`_adc_survivors` and :func:`_adc_exact` bound to this
        batch's ADC tables (see :meth:`RowStore._scan_kernels`): built once
        per search in float64, cast once to float32 for the coarse pass."""
        tables_t = snap.codec.scan_tables(queries)
        # A table entry beyond float32's range reads inf: a handled outcome.
        with np.errstate(over="ignore"):
            tables32 = tables_t.astype(np.float32)
        return (
            lambda block, dead: _adc_survivors(tables32, block, dead, k),
            lambda block, cand: _adc_exact(tables_t, block, cand),
        )

    def reconstruct(self, idx: int) -> np.ndarray:
        """Approximate stored vector for row ``idx`` (decoded from codes)."""
        snap = self._snap
        return snap.codec.decode(snap.data[idx : idx + 1])[0]


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
