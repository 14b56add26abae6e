"""Command-line interface.

Subcommands cover the full lifecycle a downstream user needs:

- ``generate-kg``   — write a synthetic knowledge graph to JSON.
- ``train``         — train an EmbLookup model over a KG and save it.
- ``lookup``        — query a saved model interactively or one-shot.
- ``evaluate``      — score the model's lookup success on noisy queries.

Example::

    python -m repro generate-kg --entities 2000 --out kg.json
    python -m repro train --kg kg.json --out model/ --epochs 10
    python -m repro lookup --kg kg.json --model model/ germany germoney
    python -m repro evaluate --kg kg.json --model model/ --noise 0.5
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

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

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
