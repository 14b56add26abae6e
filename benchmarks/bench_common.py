"""Shared helpers for the table/figure benchmarks.

Pairs each application system with the lookup service the original used
(paper Section IV: bbw queried the SearX metasearch endpoint, MantisTable
its ElasticSearch-backed LamAPI service, JenTab the Wikidata API, DoSeR a
local fuzzy matcher, Katara an edit-distance module), and provides runners
that swap in EmbLookup and report speedup + F-score.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from repro.annotation.bbw import BbwAnnotator
from repro.annotation.doser import DoSeRDisambiguator
from repro.annotation.jentab import JenTabAnnotator
from repro.annotation.katara import KataraRepairer
from repro.annotation.mantistable import MantisTableAnnotator
from repro.core.pipeline import EmbLookup
from repro.evaluation.harness import (
    AnnotationRun,
    run_cea_system,
    run_cta_system,
    run_disambiguation,
    run_repair,
)
from repro.kg.graph import KnowledgeGraph
from repro.lookup.base import LookupService
from repro.lookup.elastic import ElasticLookup
from repro.lookup.emblookup_service import EmbLookupService
from repro.lookup.fuzzy import FuzzyWuzzyLookup
from repro.lookup.levenshtein import LevenshteinLookup
from repro.lookup.remote import RemoteServiceModel, SimulatedRemoteLookup
from repro.tables.dataset import TabularDataset

__all__ = [
    "SYSTEM_ROWS",
    "SystemSpec",
    "lamapi_model",
    "original_service",
    "run_system",
]


def lamapi_model() -> RemoteServiceModel:
    """MantisTable's LamAPI: a *local* HTTP service (ES-backed) — small
    per-request overhead, generous parallelism."""
    return RemoteServiceModel(
        latency_seconds=0.004, max_parallel=8, requests_per_second=500.0
    )


@dataclass(frozen=True)
class SystemSpec:
    """One row of Tables II/III: task + system + its original lookup."""

    task: str
    system_name: str
    make_runner: Callable  # (lookup_service) -> runner object
    run: Callable          # (runner, dataset, kg) -> AnnotationRun
    make_original: Callable  # (kg) -> LookupService


def _bbw(lookup):
    return BbwAnnotator(lookup)


def _mantis(lookup):
    return MantisTableAnnotator(lookup)


def _jentab(lookup):
    return JenTabAnnotator(lookup)


SYSTEM_ROWS: list[SystemSpec] = [
    SystemSpec(
        "CEA", "bbw", _bbw, run_cea_system,
        lambda kg: SimulatedRemoteLookup.build(
            kg, RemoteServiceModel.searx(), name="searx"
        ),
    ),
    SystemSpec(
        "CEA", "MantisTable", _mantis, run_cea_system,
        lambda kg: SimulatedRemoteLookup(
            ElasticLookup.build(kg, include_aliases=True),
            lamapi_model(),
            name="lamapi",
        ),
    ),
    SystemSpec(
        "CEA", "JenTab", _jentab, run_cea_system,
        lambda kg: SimulatedRemoteLookup.build(
            kg, RemoteServiceModel.wikidata(), name="wikidata_api"
        ),
    ),
    SystemSpec(
        "CTA", "bbw", _bbw, run_cta_system,
        lambda kg: SimulatedRemoteLookup.build(
            kg, RemoteServiceModel.searx(), name="searx"
        ),
    ),
    SystemSpec(
        "CTA", "MantisTable", _mantis, run_cta_system,
        lambda kg: SimulatedRemoteLookup(
            ElasticLookup.build(kg, include_aliases=True),
            lamapi_model(),
            name="lamapi",
        ),
    ),
    SystemSpec(
        "CTA", "JenTab", _jentab, run_cta_system,
        lambda kg: SimulatedRemoteLookup.build(
            kg, RemoteServiceModel.wikidata(), name="wikidata_api"
        ),
    ),
    SystemSpec(
        "EA", "DoSeR",
        lambda lookup: DoSeRDisambiguator(lookup),
        run_disambiguation,
        lambda kg: FuzzyWuzzyLookup.build(kg),
    ),
    SystemSpec(
        "DR", "Katara",
        lambda lookup: KataraRepairer(lookup),
        run_repair,
        lambda kg: LevenshteinLookup.build(kg),
    ),
]


def original_service(spec: SystemSpec, kg: KnowledgeGraph) -> LookupService:
    return spec.make_original(kg)


def run_system(
    spec: SystemSpec,
    lookup: LookupService,
    dataset: TabularDataset,
    kg: KnowledgeGraph,
) -> AnnotationRun:
    """Run one (system, lookup) pair on a dataset."""
    runner = spec.make_runner(lookup)
    return spec.run(runner, dataset, kg)


def emblookup_services(pipeline: EmbLookup, pipeline_nc: EmbLookup):
    """The four EmbLookup variants of Tables II/III:
    (EL cpu, EL-NC cpu, EL gpu-modelled, EL-NC gpu-modelled)."""
    return (
        EmbLookupService(pipeline),
        EmbLookupService(pipeline_nc),
        EmbLookupService(pipeline, gpu_mode=True),
        EmbLookupService(pipeline_nc, gpu_mode=True),
    )


def per_query_times(engine, queries: list[str], k: int) -> np.ndarray:
    """Serve one query at a time, recording each wall time."""
    times = np.empty(len(queries))
    for i, query in enumerate(queries):
        start = time.perf_counter()
        engine.lookup_batch([query], k)
        times[i] = time.perf_counter() - start
    return times


def percentiles(times: np.ndarray) -> dict[str, float]:
    """p50/p90/p99/mean of per-query seconds, in microseconds."""
    return {
        "p50_us": float(np.percentile(times, 50) * 1e6),
        "p90_us": float(np.percentile(times, 90) * 1e6),
        "p99_us": float(np.percentile(times, 99) * 1e6),
        "mean_us": float(times.mean() * 1e6),
    }
