"""Vector similarity-search library (the reproduction's FAISS substitute).

**Served families** — what a :class:`ShardedIndex` and the serving
engine accept: each publishes immutable snapshots, supports ``add`` /
``remove`` / ``update`` / ``compact`` under live searches and scores
``(query, row)`` pairs with its exact kernel (the contract is
:func:`repro.index.mutation.served_snapshot`).

- :class:`FlatIndex` — exact brute-force L2 / inner-product search
  (``IndexFlatL2`` in FAISS); the paper's EL-NC and the ground truth for
  recall experiments.
- :class:`PQIndex` — product quantization (Jégou et al.), the paper's
  default 256 B -> 8 B compression (Section III-D).
- :class:`ShardedIndex` — serving-scale fan-out striping a flat or PQ
  store across N shards (scanned inline or by worker processes).

**Offline baselines** — build-once :class:`VectorIndex` families for the
index-family benchmark and the differential suite; the served containers
refuse them (``TypeError``).

- :class:`IVFFlatIndex` / :class:`IVFPQIndex` — inverted-file coarse
  quantization with optional PQ-compressed residual codes.
- :class:`LSHIndex` — random-hyperplane signed LSH, used as the Table V
  baseline family.
- :class:`HNSWIndex` — hierarchical navigable small-world graphs (the
  algorithm behind nmslib, the paper's runner-up library).

:class:`PCATransform` is the dimensionality-reduction alternative the
paper compares against PQ in Figure 5.

The scanning families (flat, PQ) stream their stores through one two-stage
block loop (:meth:`repro.index.mutation.RowStore.search`: float32 coarse
cut, float64 re-score of the survivors, ``merge_topk``), so peak search
memory is bounded by the block size rather than ``ntotal``.
"""

from repro.index.base import SearchResult, VectorIndex
from repro.index.buffer import GrowBuffer
from repro.index.flat import FlatIndex
from repro.index.hnsw import HNSWIndex
from repro.index.ivf import IVFFlatIndex
from repro.index.ivfpq import IVFPQIndex
from repro.index.kmeans import KMeans
from repro.index.lsh import LSHIndex
from repro.index.pca import PCATransform
from repro.index.pq import PQIndex, ProductQuantizer
from repro.index.sharded import ShardedIndex
from repro.index.topk import auto_block_size, merge_topk

__all__ = [
    "FlatIndex",
    "GrowBuffer",
    "HNSWIndex",
    "IVFFlatIndex",
    "IVFPQIndex",
    "KMeans",
    "LSHIndex",
    "PCATransform",
    "PQIndex",
    "ProductQuantizer",
    "SearchResult",
    "ShardedIndex",
    "VectorIndex",
    "auto_block_size",
    "merge_topk",
]
