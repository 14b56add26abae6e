"""Tiered-router benchmark: mixed-workload latency, tier costs, accuracy.

Writes ``BENCH_router.json`` at the repo root (override with ``--out``).
Measurement families, matching the router's design levers:

1. **Mixed-workload latency** — per-query wall times over a realistic
   annotation mix (exact label hits, short/symbolic strings, typo'd
   and shuffled labels) served one query at a time, for the
   pure-embedding engine and the routed engine.  The headline number is the p50: the router's
   exact tier answers the head of the mix in hash-probe time, so its p50
   must sit *strictly below* the pure-embedding baseline (asserted).
2. **Per-tier costs** — seconds per query for the exact probe, the fuzzy
   tier, and the full embed+search+rank ANN path, from the router's tier
   stopwatches and the engine's stage stopwatches.  The exact tier must
   be >= 10x cheaper per query than the ANN path (asserted).
3. **Accuracy** — top-10 recall of both engines on the ground-truthed
   part of the mix; the router must not lose accuracy (asserted).

``--smoke`` shrinks the workload to CI scale; the checked-in
``BENCH_router.json`` comes from a full run.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from repro.core.config import EmbLookupConfig  # noqa: E402
from repro.core.pipeline import EmbLookup  # noqa: E402
from repro.evaluation.metrics import candidate_recall_at_k  # noqa: E402
from repro.kg import SyntheticKGConfig, generate_kg  # noqa: E402
from repro.serving.engine import LookupEngine  # noqa: E402
from repro.text.noise import NoiseModel  # noqa: E402
from bench_common import per_query_times, percentiles  # noqa: E402
from tools.bench_json import write_bench_json  # noqa: E402

K = 10


def build_workload(kg, num_queries: int, seed: int):
    """A heavy-tailed annotation mix over ``kg``'s entities.

    Returns ``(queries, truth, kinds)``: 50% verbatim labels/aliases
    (exact-tier food), 20% typo'd labels and 20% short prefixes (fuzzy-tier
    food: the q-gram tier is confident on a typo), 10% labels with their
    letters shuffled (ANN-tier food: they share few grams with any label).
    Every query keeps its source entity as ground truth so both engines
    are scored on the same workload.
    """
    rng = np.random.default_rng(seed)
    entities = list(kg.entities())
    noise = NoiseModel(max_edits=2, seed=seed + 1)
    queries, truth, kinds = [], [], []
    for _ in range(num_queries):
        entity = entities[int(rng.integers(0, len(entities)))]
        roll = rng.random()
        if roll < 0.5:
            mentions = entity.mentions
            queries.append(mentions[int(rng.integers(0, len(mentions)))])
            kinds.append("exact")
        elif roll < 0.7:
            queries.append(noise.corrupt(entity.label))
            kinds.append("typo")
        elif roll < 0.9:
            queries.append(entity.label[:3])
            kinds.append("short")
        else:
            queries.append("".join(rng.permutation(list(entity.label))))
            kinds.append("shuffled")
        truth.append(entity.entity_id)
    return queries, truth, kinds


def bench_latency(baseline, routed, queries, truth):
    """Mixed-workload per-query latency plus top-10 recall, both engines."""
    out = {}
    for name, engine in (("pure_embedding", baseline), ("router", routed)):
        engine.reset_timers()
        times = per_query_times(engine, queries, K)
        rows = engine.lookup_batch(queries, K)
        recall = candidate_recall_at_k(
            [[c.entity_id for c in row] for row in rows], truth, K
        )
        out[name] = {**percentiles(times), "recall_at_10": recall}
    speedup = out["pure_embedding"]["p50_us"] / out["router"]["p50_us"]
    out["p50_speedup"] = speedup
    assert out["router"]["p50_us"] < out["pure_embedding"]["p50_us"], (
        "router p50 must be strictly below the pure-embedding baseline"
    )
    assert out["router"]["recall_at_10"] >= out["pure_embedding"][
        "recall_at_10"
    ], "router must not lose accuracy on the mixed workload"
    return out


def bench_tiers(routed, queries):
    """Per-tier seconds/query from the tier and stage stopwatches."""
    routed.reset_timers()
    for query in queries:
        routed.lookup_batch([query], K)
    stats = routed.serving_stats()
    tiers = routed.router.tier_seconds()
    stages = routed.stage_seconds()
    total = len(queries)
    exact_per_probe = tiers["exact"] / total  # every query is probed
    fuzzy_per_query = (
        tiers["fuzzy"] / stats["fuzzy_routed"] if stats["fuzzy_routed"] else 0.0
    )
    ann_seconds = stages["embed"] + stages["search"] + stages["rank"]
    ann_per_query = (
        ann_seconds / stats["ann_routed"] if stats["ann_routed"] else 0.0
    )
    assert stats["ann_routed"], "workload never reached the ANN tier"
    assert ann_per_query >= 10 * exact_per_probe, (
        f"exact probe ({exact_per_probe * 1e6:.2f}us) must be >=10x cheaper "
        f"than the ANN path ({ann_per_query * 1e6:.2f}us)"
    )
    return {
        "queries": total,
        "routed": {
            "exact_hits": stats["exact_hits"],
            "fuzzy_routed": stats["fuzzy_routed"],
            "ann_routed": stats["ann_routed"],
        },
        "exact_probe_us_per_query": exact_per_probe * 1e6,
        "fuzzy_us_per_query": fuzzy_per_query * 1e6,
        "ann_us_per_query": ann_per_query * 1e6,
        "ann_over_exact": ann_per_query / exact_per_probe,
    }


def main(argv=None) -> int:
    """Run the router benchmark and write BENCH_router.json."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload for CI (seconds instead of minutes)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=ROOT / "BENCH_router.json",
        help="output JSON path",
    )
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)

    if args.smoke:
        num_entities, num_queries = 300, 400
        config = EmbLookupConfig(
            epochs=4, triplets_per_entity=10, fasttext_epochs=6,
            batch_size=64, seed=2,
        )
    else:
        num_entities, num_queries = 2000, 3000
        config = EmbLookupConfig(
            epochs=8, triplets_per_entity=20, fasttext_epochs=8,
            batch_size=128, seed=2,
        )

    kg = generate_kg(SyntheticKGConfig(num_entities=num_entities, seed=args.seed))
    pipeline = EmbLookup(config)
    pipeline.fit(kg)
    queries, truth, kinds = build_workload(kg, num_queries, args.seed)
    mix = {kind: kinds.count(kind) for kind in dict.fromkeys(kinds)}
    print(
        f"workload: {len(queries)} queries over {num_entities} entities "
        f"(mix={mix})"
    )

    baseline = LookupEngine.from_pipeline(pipeline)
    routed = LookupEngine.from_pipeline(pipeline, router=True)

    # Warm both engines (first call pays numpy/BLAS one-time costs).
    baseline.lookup_batch(queries[:8], K)
    routed.lookup_batch(queries[:8], K)

    latency = bench_latency(baseline, routed, queries, truth)
    for name in ("pure_embedding", "router"):
        row = latency[name]
        print(
            f"  {name:15s} p50={row['p50_us']:8.1f}us "
            f"p99={row['p99_us']:9.1f}us recall@10={row['recall_at_10']:.3f}"
        )
    print(f"  p50 speedup: {latency['p50_speedup']:.1f}x")

    tiers = bench_tiers(routed, queries)
    print(
        f"  tiers: exact={tiers['exact_probe_us_per_query']:.2f}us "
        f"fuzzy={tiers['fuzzy_us_per_query']:.1f}us "
        f"ann={tiers['ann_us_per_query']:.1f}us "
        f"(ann/exact={tiers['ann_over_exact']:.0f}x)"
    )

    metrics = {
        "smoke": args.smoke,
        "workload": {
            "num_entities": num_entities,
            "num_queries": num_queries,
            "k": K,
            "seed": args.seed,
            "mix": mix,
        },
        "cpu_count": os.cpu_count() or 1,
        "latency": latency,
        "tier_costs": tiers,
    }
    path = write_bench_json(args.out, "router", metrics)
    print(f"wrote {path}")
    routed.close()
    baseline.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
