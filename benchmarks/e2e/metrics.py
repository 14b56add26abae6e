"""The benchmark's vocabulary: every metric name, its unit and its bound.

``BENCHMARK.json`` at the repo root lists the same names; a self-test
keeps the two in step.  The driver's contract makes every run print every
name in its table, so each name is defined on all four workloads; a layer
a workload does not exercise reports 0 (README, "Reading a zero").
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass

import numpy as np

import harness
from tracing import layer_metrics


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # lower | higher
    bound: float | None = None  # end-to-end only: allowed worsening (share)


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("lookups_per_s", "1/s", "higher", 0.25),
    Metric("latency_p50_us", "us", "lower", 0.20),
    Metric("latency_p95_us", "us", "lower", 0.25),
    Metric("recall_at_10", "ratio", "higher", 0.06),
    Metric("index_bytes_per_row", "B/row", "lower", 0.01),
)

#: Metrics that are counts of the generated workload: equal seeds must
#: give equal values (closed loops; see README for ``trace_open``).
COUNT_METRICS = (
    "recall_at_10", "router.exact_share", "router.fuzzy_share",
    "router.ann_share", "cache.evictions", "cache.generation_bumps",
    "ingest.applied", "ingest.watermark",
)


def _layer(prefix: str, rows: str) -> tuple[Metric, ...]:
    out = []
    for row in rows.split():
        name, unit, better = row.split(":")
        out.append(Metric(f"{prefix}{name}", unit, better))
    return tuple(out)


PER_LAYER = (
    # repro.core.pipeline / repro.kg -> setup_s, every workload
    _layer("setup.", "kg_s:s:lower fit_s:s:lower build_index_s:s:lower "
           "engine_build_s:s:lower warmup_s:s:lower peak_rss_mb:MB:lower")
    # repro.lookup.normalize -> latency_p50_us on churn_closed
    + _layer("normalize.", "us_per_query:us:lower share:ratio:lower")
    # repro.lookup.cache -> latency_p50_us on trace_open and churn_closed
    + _layer("cache.", "self_us_per_query:us:lower share:ratio:lower "
             "result_hit_rate:ratio:higher evictions:count:lower "
             "generation_bumps:count:lower")
    # repro.lookup.router -> latency_p95_us on trace_open and churn_closed
    + _layer("router.", "self_us_per_query:us:lower fuzzy_us_per_routed:us:lower "
             "share:ratio:lower exact_share:ratio:higher "
             "fuzzy_share:ratio:lower ann_share:ratio:lower")
    # repro.embedding + repro.nn -> latency_p50_us on single_ann_small
    + _layer("embed.", "us_per_query:us:lower us_per_call:us:lower "
             "batch_mean:count:higher share:ratio:lower")
    # repro.index -> lookups_per_s on bulk_pq_sharded
    + _layer("index.", "search_us_per_query:us:lower search_us_per_call:us:lower "
             "batch_mean:count:higher share:ratio:lower rows_per_query:count:lower "
             "shard_scan_us_per_call:us:lower ipc_us_per_call:us:lower "
             "worker_respawns:count:lower partial_searches:count:lower "
             "tombstone_fraction:ratio:lower mutate_us_p50:us:lower "
             "compact_ms:ms:lower")
    # repro.serving.engine -> latency_p50_us on trace_open and churn_closed
    + _layer("engine.", "self_us_per_query:us:lower share:ratio:lower "
             "flushes:count:lower flush_batch_mean:count:higher "
             "batch_wait_us_p50:us:lower queue_depth_mean:count:lower "
             "queue_depth_max:count:lower sojourn_max_us:us:lower "
             "deadline_hits:count:lower isolation_retries:count:lower "
             "failed_queries:count:lower")
    # repro.serving.ingest -> lookups_per_s and latency_p95_us on churn_closed
    + _layer("ingest.", "apply_us_p50:us:lower apply_us_p90:us:lower "
             "add_us_p50:us:lower update_us_p50:us:lower remove_us_p50:us:lower "
             "share:ratio:lower applied:count:higher retried:count:lower "
             "dead_letters:count:lower watermark:count:higher "
             "compactions:count:higher compact_ms:ms:lower")
    # the open loop's phases and limit (trace_open)
    + _layer("", "sojourn_p50_us.r200:us:lower sojourn_p95_us.r200:us:lower "
             "slo_share.r200:ratio:higher sojourn_p50_us.r400:us:lower "
             "sojourn_p95_us.r400:us:lower slo_share.r400:ratio:higher")
    # the harness itself
    + _layer("", "gen.late_p99_us:us:lower trace.overhead_ratio:ratio:lower "
             "host.calib_ms_start:ms:lower host.calib_ms_end:ms:lower "
             "host.factor_min:ratio:higher host.factor_max:ratio:higher "
             "raw.lookups_per_s:1/s:higher raw.latency_p50_us:us:lower "
             "raw.latency_p95_us:us:lower")
)


def _percentile_us(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e6 if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def count_values(measured) -> dict[str, float]:
    """Counts a run's record keeps so equal seeds can be checked equal."""
    stats = measured.stats
    routed = sum(
        stats.get(key, 0) for key in ("exact_hits", "fuzzy_routed", "ann_routed")
    )
    out = {
        f"router.{tier}_share": stats.get(key, 0) / routed if routed else 0.0
        for tier, key in (
            ("exact", "exact_hits"), ("fuzzy", "fuzzy_routed"), ("ann", "ann_routed"),
        )
    }
    out.update({
        "recall_at_10": stats["recall_at_10"],
        "cache.evictions": stats.get("cache.evictions", 0),
        "cache.generation_bumps": stats.get("cache.generation", 0),
        "ingest.applied": stats["ingest.applied"],
        "ingest.watermark": max(0, stats["ingest.watermark"]),
    })
    return out


def per_layer_values(
    plan, measured, traced, recorder, setup: dict, summary: dict
) -> dict[str, float]:
    """Every PER_LAYER value of a traced run.

    Span-derived values and public-stats counts come from the traced pass
    (counts do not feel the proxies); anything that is a wall-clock
    observation of the driver -- queueing, lateness, the open loop's
    phases -- comes from the untraced pass over the same plan.
    """
    from repro.lookup.normalize import normalize

    strings = [q for op in plan.ops for q in op.queries]
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for query in strings:
            normalize(query)
        best = min(best, time.perf_counter() - start)
    out = dict.fromkeys((m.name for m in PER_LAYER), 0.0)
    out.update(setup)
    out["setup.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    out.update(layer_metrics(recorder.spans, len(strings), best / len(strings)))
    out.update(count_values(traced))
    del out["recall_at_10"]

    stats = traced.stats
    shards = [
        stats[f"shard{i}.seconds"] / stats[f"shard{i}.searches"]
        for i in range(8)
        if stats.get(f"shard{i}.searches")
    ]
    if shards:
        out["index.shard_scan_us_per_call"] = max(shards) * 1e6
        out["index.ipc_us_per_call"] = (
            out["index.search_us_per_call"] - max(shards) * 1e6
        )
    out["index.worker_respawns"] = stats.get("worker_respawns", 0)
    out["index.partial_searches"] = stats.get("partial_searches", 0)
    out["index.tombstone_fraction"] = stats["tombstone_fraction"]
    for key in ("deadline_hits", "isolation_retries", "failed_queries"):
        out[f"engine.{key}"] = stats.get(key, 0)
    out["ingest.retried"] = stats["ingest.retries"]
    out["ingest.dead_letters"] = stats["ingest.dead_letters"]
    out["ingest.compactions"] = stats.get("compactions", 0)

    applies = [s for _, kind, s in measured.others if kind == "mutate"]
    out["ingest.apply_us_p50"] = _percentile_us(applies, 50)
    out["ingest.apply_us_p90"] = _percentile_us(applies, 90)
    windows = measured.windows
    out["engine.sojourn_max_us"] = max(
        float(w.latencies(scaled=False).max()) for w in windows
    ) * 1e6
    if measured.open is not None:
        run = measured.open
        out["engine.flushes"] = len(run.flush_sizes)
        out["engine.flush_batch_mean"] = _mean(run.flush_sizes)
        out["engine.batch_wait_us_p50"] = _percentile_us(
            np.concatenate([w.waits for w in windows]), 50
        )
        out["engine.queue_depth_mean"] = _mean(run.depths)
        out["engine.queue_depth_max"] = max(run.depths)
        out["gen.late_p99_us"] = _percentile_us(run.late, 99)
        for phase, span in plan.phases:
            part = [w for w in windows if w.phase == phase]
            failed = sum(run.handles[i].exception is not None for i in span)
            out[f"sojourn_p50_us.{phase}"] = (
                harness.latency_percentile(part, 50.0, scaled=False) * 1e6
            )
            out[f"sojourn_p95_us.{phase}"] = (
                harness.latency_percentile(part, harness.TAIL, scaled=False) * 1e6
            )
            out[f"slo_share.{phase}"] = harness.slo_share(part, failed)
    for key in (
        "host.factor_min", "host.factor_max", "raw.lookups_per_s",
        "raw.latency_p50_us", "raw.latency_p95_us",
    ):
        out[key] = summary[key]
    out["trace.overhead_ratio"] = (
        harness.summarize(traced.windows)["latency_p50_us"]
        / summary["latency_p50_us"]
    )
    # A percentile the (halved) traced run cannot support is reported as 0.
    return {k: 0.0 if v != v else float(v) for k, v in out.items()}
