"""Online-mutation benchmark: lookup latency under sustained index churn.

Writes ``BENCH_mutation.json`` at the repo root (override with ``--out``).
Measurement families, matching the online-mutation design levers:

1. **Latency under churn** — per-query p50/p99 for a frozen-index
   baseline engine versus an identical engine whose index receives a
   sustained change-feed (add/remove via a background
   :class:`~repro.serving.ingest.ChangeFeedConsumer`) while the queries
   are served.  Mutations must not break serving: every query answers,
   and entities untouched by the feed are still found (asserted).
2. **Mutation throughput** — synchronously applied mutations per second
   (embed + index publish + router/cache bookkeeping), per kind.
3. **Tombstone drag and compaction** — p50 with an accumulated tombstone
   fraction versus p50 after :meth:`LookupEngine.compact` reclaims the
   rows; compaction must restore ``ntotal`` to the live count
   (asserted) so the scan cost tracks the live set, not history.

``--smoke`` shrinks the workload to CI scale; the checked-in
``BENCH_mutation.json`` comes from a smoke run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
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
from repro.kg import SyntheticKGConfig, generate_kg  # noqa: E402
from repro.serving.engine import LookupEngine  # noqa: E402
from repro.serving.ingest import ChangeFeedConsumer, IndexMutation  # noqa: E402
from bench_common import per_query_times, percentiles  # noqa: E402
from tools.bench_json import write_bench_json  # noqa: E402

K = 10


def build_feed(num_mutations: int, seed: int) -> list[IndexMutation]:
    """An add-then-remove churn feed of synthetic entities.

    The feed only ever touches entities it created itself, so the
    original KG entities stay servable throughout — which is what lets
    the benchmark assert accuracy under churn.
    """
    rng = np.random.default_rng(seed)
    feed: list[IndexMutation] = []
    seq = 0
    live: list[str] = []
    for i in range(num_mutations):
        if live and rng.random() < 0.4:
            eid = live.pop(int(rng.integers(0, len(live))))
            feed.append(IndexMutation(seq, "remove", eid))
        else:
            eid = f"churn-{i}"
            mentions = tuple(
                f"churn entity {i} form {j}"
                for j in range(int(rng.integers(1, 3)))
            )
            feed.append(IndexMutation(seq, "add", eid, mentions=mentions))
            live.append(eid)
        seq += 1
    return feed


def bench_latency_under_churn(pipeline, queries, truth, feed):
    """Frozen-index p50 vs p50 while a background feed mutates the index."""
    frozen = LookupEngine.from_pipeline(pipeline)
    churned = LookupEngine.from_pipeline(pipeline)
    try:
        frozen.lookup_batch(queries[:8], K)  # warm numpy/BLAS one-time costs
        churned.lookup_batch(queries[:8], K)
        frozen_times = per_query_times(frozen, queries, K)
        with ChangeFeedConsumer(churned) as consumer:
            for record in feed:
                consumer.publish(record)
            churn_times = per_query_times(churned, queries, K)
            consumer.drain()
            assert consumer.dead_letters == (), "churn feed dead-lettered"
            assert consumer.watermark == feed[-1].seq
        # Accuracy must survive the churn: the feed never touches the
        # original entities, so they are all still found.
        rows = churned.lookup_batch(queries, K)
        hits = sum(
            any(c.entity_id == want for c in row)
            for row, want in zip(rows, truth)
        )
        frozen_rows = frozen.lookup_batch(queries, K)
        frozen_hits = sum(
            any(c.entity_id == want for c in row)
            for row, want in zip(frozen_rows, truth)
        )
        assert hits >= frozen_hits * 0.95, (
            f"churn lost accuracy: {hits}/{len(queries)} vs frozen "
            f"{frozen_hits}/{len(queries)}"
        )
        stats = churned.serving_stats()
        assert stats["mutations_applied"] == len(feed)
        return {
            "frozen": percentiles(frozen_times),
            "under_churn": percentiles(churn_times),
            "churn_overhead_p50": float(
                np.percentile(churn_times, 50)
                / np.percentile(frozen_times, 50)
            ),
            "mutations_interleaved": len(feed),
            "hit_rate_frozen": frozen_hits / len(queries),
            "hit_rate_under_churn": hits / len(queries),
        }
    finally:
        frozen.close()
        churned.close()


def bench_mutation_throughput(pipeline, num_mutations: int, seed: int):
    """Synchronous mutations/second through the full engine path."""
    engine = LookupEngine.from_pipeline(pipeline)
    consumer = ChangeFeedConsumer(engine)
    feed = build_feed(num_mutations, seed + 7)
    by_kind: dict[str, list[float]] = {"add": [], "remove": []}
    try:
        for record in feed:
            start = time.perf_counter()
            assert consumer.apply(record)
            by_kind[record.kind].append(time.perf_counter() - start)
        out = {}
        for kind, times in by_kind.items():
            if not times:
                continue
            arr = np.asarray(times)
            out[kind] = {
                "count": len(times),
                "mean_us": float(arr.mean() * 1e6),
                "per_second": float(1.0 / arr.mean()),
            }
        return out
    finally:
        engine.close()


def bench_compaction(pipeline, queries, num_removed: int):
    """Tombstone drag on p50, then the post-compaction recovery."""
    engine = LookupEngine.from_pipeline(pipeline)
    try:
        # Bury a slab of synthetic rows to accumulate tombstones.
        adds = [
            IndexMutation(i, "add", f"pad-{i}", mentions=(f"pad row {i}",))
            for i in range(num_removed)
        ]
        consumer = ChangeFeedConsumer(engine)
        consumer.consume(adds)
        consumer.consume(
            IndexMutation(num_removed + i, "remove", f"pad-{i}")
            for i in range(num_removed)
        )
        index = engine.index
        fraction = index.tombstone_count / index.ntotal
        engine.lookup_batch(queries[:8], K)
        tombstoned_times = per_query_times(engine, queries, K)
        live = index.nlive
        assert engine.compact() is True
        assert index.ntotal == live, "compaction must shrink to the live set"
        assert index.tombstone_count == 0
        compacted_times = per_query_times(engine, queries, K)
        return {
            "tombstone_fraction": fraction,
            "with_tombstones": percentiles(tombstoned_times),
            "after_compaction": percentiles(compacted_times),
            "rows_reclaimed": num_removed,
        }
    finally:
        engine.close()


def main(argv=None) -> int:
    """Run the mutation benchmark and write BENCH_mutation.json."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload for CI (seconds instead of minutes)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=ROOT / "BENCH_mutation.json",
        help="output JSON path",
    )
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)

    if args.smoke:
        num_entities, num_queries, num_mutations = 300, 250, 60
        config = EmbLookupConfig(
            epochs=4, triplets_per_entity=10, fasttext_epochs=6,
            batch_size=64, seed=2,
        )
    else:
        num_entities, num_queries, num_mutations = 2000, 2000, 400
        config = EmbLookupConfig(
            epochs=8, triplets_per_entity=20, fasttext_epochs=8,
            batch_size=128, seed=2,
        )

    kg = generate_kg(
        SyntheticKGConfig(num_entities=num_entities, seed=args.seed)
    )
    pipeline = EmbLookup(config)
    pipeline.fit(kg)
    rng = np.random.default_rng(args.seed)
    entities = list(kg.entities())
    picks = [
        entities[int(rng.integers(0, len(entities)))]
        for _ in range(num_queries)
    ]
    queries = [e.label for e in picks]
    truth = [e.entity_id for e in picks]
    feed = build_feed(num_mutations, args.seed)
    print(
        f"workload: {num_queries} queries over {num_entities} entities, "
        f"{num_mutations} interleaved mutations"
    )

    latency = bench_latency_under_churn(pipeline, queries, truth, feed)
    print(
        f"  frozen     p50={latency['frozen']['p50_us']:8.1f}us "
        f"p99={latency['frozen']['p99_us']:9.1f}us"
    )
    print(
        f"  churned    p50={latency['under_churn']['p50_us']:8.1f}us "
        f"p99={latency['under_churn']['p99_us']:9.1f}us "
        f"(x{latency['churn_overhead_p50']:.2f} p50 overhead)"
    )

    throughput = bench_mutation_throughput(pipeline, num_mutations, args.seed)
    for kind, row in throughput.items():
        print(
            f"  {kind:7s} {row['per_second']:8.0f} mutations/s "
            f"({row['mean_us']:.0f}us each, n={row['count']})"
        )

    compaction = bench_compaction(
        pipeline, queries[: max(64, num_queries // 8)], num_mutations
    )
    print(
        f"  compaction: {compaction['tombstone_fraction']:.1%} tombstones "
        f"p50={compaction['with_tombstones']['p50_us']:.1f}us -> "
        f"{compaction['after_compaction']['p50_us']:.1f}us after reclaim"
    )

    metrics = {
        "smoke": args.smoke,
        "workload": {
            "num_entities": num_entities,
            "num_queries": num_queries,
            "num_mutations": num_mutations,
            "k": K,
            "seed": args.seed,
        },
        "cpu_count": os.cpu_count() or 1,
        "latency": latency,
        "mutation_throughput": throughput,
        "compaction": compaction,
    }
    path = write_bench_json(args.out, "mutation", metrics)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
