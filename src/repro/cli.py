"""Command-line interface.

Subcommands cover the full lifecycle a downstream user needs:

- ``generate-kg``   — write a synthetic knowledge graph to JSON.
- ``train``         — train an EmbLookup model over a KG and save it.
- ``lookup``        — query a saved model interactively or one-shot.
- ``evaluate``      — score the model's lookup success on noisy queries.
- ``selftest``      — run seeded property diagnostics over the lookup stack.

Example::

    python -m repro generate-kg --entities 2000 --out kg.json
    python -m repro train --kg kg.json --out model/ --epochs 10
    python -m repro lookup --kg kg.json --model model/ germany germoney
    python -m repro evaluate --kg kg.json --model model/ --noise 0.5
    python -m repro selftest --cases 25 --seed 1
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence

import numpy as np

from repro.core import EmbLookup, EmbLookupConfig
from repro.evaluation.reporting import format_table
from repro.kg import SyntheticKGConfig, generate_kg, load_kg_json, save_kg_json
from repro.text.noise import NoiseModel

__all__ = ["main"]


def _cmd_generate_kg(args: argparse.Namespace) -> int:
    kg = generate_kg(
        SyntheticKGConfig(
            num_entities=args.entities, flavour=args.flavour, seed=args.seed
        )
    )
    save_kg_json(kg, args.out)
    print(f"wrote {kg.num_entities} entities / {kg.num_facts} facts to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    kg = load_kg_json(args.kg)
    config = EmbLookupConfig(
        epochs=args.epochs,
        triplets_per_entity=args.triplets,
        embedding_dim=args.dim,
        compression=args.compression,
        seed=args.seed,
    )
    service = EmbLookup(config)
    print(
        f"training on {kg.num_entities} entities "
        f"({args.triplets} triplets/entity, {args.epochs} epochs)..."
    )
    service.fit(kg)
    service.save(args.out)
    final_loss = service.training_history[-1] if service.training_history else 0.0
    print(f"saved model to {args.out} (final epoch loss {final_loss:.4f})")
    return 0


def _cmd_lookup(args: argparse.Namespace) -> int:
    kg = load_kg_json(args.kg)
    service = EmbLookup.load(args.model, kg)
    queries = args.queries or _read_stdin_queries()
    if not queries:
        print("no queries given", file=sys.stderr)
        return 1
    for query, results in zip(queries, service.lookup_batch(queries, args.k)):
        print(f"{query}:")
        for result in results:
            entity = kg.entity(result.entity_id)
            print(
                f"  {entity.entity_id:12s} {entity.label:32s} "
                f"d={result.distance:.4f}"
            )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    kg = load_kg_json(args.kg)
    service = EmbLookup.load(args.model, kg)
    entities = list(kg.entities())[: args.sample]
    noise = NoiseModel(seed=args.seed)
    rows = []
    for label_kind, queries in (
        ("clean", [e.label for e in entities]),
        ("noisy", [noise.corrupt(e.label) for e in entities]),
    ):
        if label_kind == "noisy" and args.noise <= 0:
            continue
        results = service.lookup_batch(queries, args.k)
        hits = sum(
            1
            for entity, row in zip(entities, results)
            if entity.entity_id in [r.entity_id for r in row]
        )
        rows.append([label_kind, len(queries), hits / len(queries)])
    print(
        format_table(
            ["workload", "queries", f"success@{args.k}"],
            rows,
            title="EmbLookup evaluation",
        )
    )
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    """Run the embedded property-based diagnostics over the lookup stack.

    Three properties, each over ``--cases`` seeded adversarial stores:
    the blockwise flat scan agrees with the brute-force oracle, a
    sharded index with one dead shard degrades to the exact survivor
    merge with ``partial=True``, and an injected result corruption is
    flagged by the differential comparator (the detectors detect).
    Exit codes: 0 = all properties hold; 1 = a failure (the report
    carries the ``REPRO_SEED``/``REPRO_CASE`` replay line).
    """
    # Lazy import: repro.testing may import every layer it exercises, so
    # the CLI only pays for (and depends on) it when selftest runs.
    from repro import testing
    from repro.index.flat import FlatIndex
    from repro.index.sharded import ShardedIndex

    num_shards = 4
    k = 5
    strategy = testing.VectorStoreStrategy(conditioned=True)

    def survivor_fanin(case, dead):
        """Oracle for the degraded search: flat scan over the surviving
        rows, with local ids mapped back to the striped global ids."""
        surviving = np.flatnonzero(
            np.arange(len(case.vectors)) % num_shards != dead
        )
        reference = FlatIndex(case.dim)
        reference.add(case.vectors[surviving])
        result = reference.search(case.queries, k)
        return (
            np.where(
                result.ids >= 0, surviving[np.maximum(result.ids, 0)], -1
            ),
            result.distances,
        )

    def flat_matches_oracle(case):
        index = FlatIndex(case.dim)
        index.add(case.vectors)
        got = index.search(case.queries, k)
        want = testing.brute_force_topk(case.vectors, case.queries, k)
        testing.assert_valid_topk(got, len(case.vectors), k)
        testing.assert_topk_agrees(got, want, rtol=1e-6, atol=1e-9)

    def dead_shard_degrades_gracefully(case):
        dead = len(case.vectors) % num_shards
        index = ShardedIndex(
            case.dim,
            num_shards,
            factory=FlatIndex,
            fault_hook=testing.FaultPlan.parse(f"s{dead}:c0:drop"),
        )
        try:
            index.add(case.vectors)
            result = index.search(case.queries, k)
        finally:
            index.close()
        assert result.partial and result.failed_shards == (dead,)
        testing.assert_topk_agrees(
            result, survivor_fanin(case, dead), rtol=1e-6, atol=1e-9
        )

    def corruption_is_detected(case):
        index = ShardedIndex(
            case.dim,
            num_shards,
            factory=FlatIndex,
            fault_hook=testing.FaultPlan.parse("s0:*:corrupt"),
        )
        try:
            index.add(case.vectors)
            got = index.search(case.queries, k)
        finally:
            index.close()
        if len(case.vectors) < 2 or k < 2:
            return  # single candidate: mirror-rank mispairing is a no-op
        want = testing.brute_force_topk(case.vectors, case.queries, k)
        try:
            testing.assert_topk_agrees(got, want, rtol=1e-6, atol=1e-9)
        except AssertionError:
            return  # corruption flagged, as required
        # Degenerate stores (all ties) can survive mispairing; accept
        # only when the honest and corrupted scans truly coincide.
        np.testing.assert_allclose(
            got.distances, want[1], rtol=1e-6, atol=1e-9
        )

    properties = [
        flat_matches_oracle,
        dead_shard_degrades_gracefully,
        corruption_is_detected,
    ]
    for prop in properties:
        started = time.monotonic()
        try:
            executed = testing.run_cases(
                prop, strategy, cases=args.cases, seed=args.seed
            )
        except testing.PropertyFailure as failure:
            print(f"selftest FAILED: {failure}", file=sys.stderr)
            return 1
        elapsed = time.monotonic() - started
        print(f"{prop.__name__}: {executed} cases OK ({elapsed:.2f}s)")
    print(f"selftest OK ({len(properties)} properties)")
    return 0


def _read_stdin_queries() -> list[str]:
    if sys.stdin.isatty():
        return []
    return [line.strip() for line in sys.stdin if line.strip()]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="EmbLookup reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-kg", help="generate a synthetic knowledge graph")
    p.add_argument("--entities", type=int, default=2000)
    p.add_argument("--flavour", choices=["wikidata", "dbpedia"], default="wikidata")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate_kg)

    p = sub.add_parser("train", help="train an EmbLookup model")
    p.add_argument("--kg", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--triplets", type=int, default=20)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--compression", choices=["pq", "none"], default="pq")
    p.add_argument("--seed", type=int, default=41)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("lookup", help="query a trained model")
    p.add_argument("--kg", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("queries", nargs="*")
    p.set_defaults(func=_cmd_lookup)

    p = sub.add_parser("evaluate", help="measure lookup success rates")
    p.add_argument("--kg", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--sample", type=int, default=300)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser(
        "selftest",
        help="run seeded property diagnostics over the lookup stack",
    )
    p.add_argument(
        "--cases",
        type=int,
        default=25,
        help="generated cases per property (default 25)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed (the REPRO_SEED environment variable wins)",
    )
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
