"""Command-line interface.

Subcommands cover the full lifecycle a downstream user needs:

- ``generate-kg``   — write a synthetic knowledge graph to JSON.
- ``train``         — train an EmbLookup model over a KG and save it.
- ``lookup``        — query a saved model interactively or one-shot.
- ``evaluate``      — score the model's lookup success on noisy queries.
- ``lint``          — run the repo's static-analysis rules over source trees.
- ``archcheck``     — enforce the declared architecture contract on imports.
- ``shapecheck``    — statically verify a dual-tower config's shapes/dtypes.
- ``selftest``      — run seeded property diagnostics over the lookup stack.

Example::

    python -m repro generate-kg --entities 2000 --out kg.json
    python -m repro train --kg kg.json --out model/ --epochs 10
    python -m repro lookup --kg kg.json --model model/ germany germoney
    python -m repro evaluate --kg kg.json --model model/ --noise 0.5
    python -m repro lint src/repro --baseline tools/lint_baseline.json
    python -m repro lint src/repro --profile perf
    python -m repro archcheck src/repro --contract tools/arch_contract.toml
    python -m repro shapecheck --dim 64 --max-length 32
    python -m repro selftest --cases 25 --seed 1
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence
from pathlib import Path

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


#: ``--profile`` shortcuts onto rule-id prefixes (``all`` = no filter).
_LINT_PROFILES: dict[str, list[str] | None] = {
    "all": None,
    "perf": ["REP5"],
    "grad": ["REP6"],
}


def _cmd_lint(args: argparse.Namespace) -> int:
    """Lint source trees; exit non-zero when new (non-baselined) findings exist."""
    # Lazy import: only the static-analysis verbs pay for repro.analysis.
    from repro import analysis

    if args.profile and args.select:
        print("--profile and --select are mutually exclusive", file=sys.stderr)
        return 2
    select = args.select.split(",") if args.select else None
    if args.profile:
        select = _LINT_PROFILES[args.profile]
    try:
        findings = analysis.lint_paths(args.paths, select=select)
    except (FileNotFoundError, KeyError) as exc:
        # str(KeyError) wraps the message in quotes; print the bare text.
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    if args.write_baseline:
        analysis.write_baseline(findings, args.baseline)
        print(f"wrote {len(findings)} finding(s) to baseline {args.baseline}")
        return 0
    baseline = (
        analysis.load_baseline(args.baseline)
        if args.baseline and not args.no_baseline
        else frozenset()
    )
    new, known = analysis.partition_findings(findings, baseline)
    if args.format == "json":
        print(analysis.render_json(new, known))
    else:
        print(analysis.render_text(new, known))
    return 1 if new else 0


def _archcheck_display_path(path) -> str:
    """Posix path relative to the current directory when possible."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _cmd_archcheck(args: argparse.Namespace) -> int:
    """Check the import graph against the declared architecture contract.

    Exit codes: 0 = contract holds; 1 = at least one violation (ARC001
    layer violation, ARC002 runtime import cycle, ARC003 undeclared
    layer); 2 = usage error (missing paths, missing/malformed contract).
    """
    from repro import analysis

    try:
        contract = analysis.load_contract(args.contract)
    except FileNotFoundError:
        print(f"contract file not found: {args.contract}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        files = analysis.iter_python_files(args.paths)
    except FileNotFoundError as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
    sources = [
        (_archcheck_display_path(f), f.read_text(encoding="utf-8"))
        for f in files
    ]
    graph = analysis.build_import_graph(sources)
    findings = analysis.check_contract(graph, contract)
    if args.format == "json":
        print(analysis.render_json(findings, []))
    elif findings:
        print(analysis.render_text(findings, []))
    else:
        runtime_edges = sum(
            1 for e in graph.edges if e.kind == "import" and e.runtime
        )
        print(
            f"architecture contract OK ({len(graph.modules)} modules, "
            f"{runtime_edges} runtime import edges)"
        )
    return 1 if findings else 0


def _cmd_shapecheck(args: argparse.Namespace) -> int:
    """Statically validate a dual-tower configuration's shapes and dtypes."""
    from repro import analysis

    try:
        config = EmbLookupConfig(
            embedding_dim=args.dim,
            max_length=args.max_length,
            compression=args.compression,
            pq_m=args.pq_m,
        )
        spec = analysis.DualTowerSpec.from_config(
            config,
            alphabet_size=args.alphabet_size,
            cnn_channels=args.channels,
            cnn_layers=args.layers,
            dtype=args.dtype,
            **(
                {"mlp_in": args.mlp_in} if args.mlp_in is not None else {}
            ),
            **(
                {"mlp_hidden": args.mlp_hidden}
                if args.mlp_hidden is not None
                else {}
            ),
        )
        report = analysis.check_dual_tower(spec)
    except (analysis.ShapeError, ValueError) as exc:
        print(f"shapecheck FAILED: {exc}", file=sys.stderr)
        return 1
    print(report.format())
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

    p = sub.add_parser("lint", help="run static-analysis rules over source trees")
    p.add_argument("paths", nargs="*", default=["src/repro"])
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--baseline", default=None, help="baseline JSON to honor")
    p.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline",
    )
    p.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept current findings: write them to --baseline and exit 0",
    )
    p.add_argument(
        "--select", default=None, help="comma-separated rule ids/prefixes"
    )
    p.add_argument(
        "--profile",
        choices=sorted(_LINT_PROFILES),
        default=None,
        help=(
            "rule-family shortcut: perf=REP5xx, grad=REP6xx, all=every rule"
        ),
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "archcheck",
        help="check project imports against the architecture contract",
    )
    p.add_argument("paths", nargs="*", default=["src/repro"])
    p.add_argument(
        "--contract",
        default="tools/arch_contract.toml",
        help="TOML contract declaring per-layer allowed dependencies",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_archcheck)

    p = sub.add_parser(
        "shapecheck", help="statically verify dual-tower shapes and dtypes"
    )
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--max-length", type=int, default=32)
    p.add_argument("--alphabet-size", type=int, default=40)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--layers", type=int, default=5)
    p.add_argument("--compression", choices=["pq", "none"], default="pq")
    p.add_argument("--pq-m", type=int, default=8)
    p.add_argument("--dtype", choices=["float32", "float64"], default="float32")
    p.add_argument("--mlp-in", type=int, default=None)
    p.add_argument("--mlp-hidden", type=int, default=None)
    p.set_defaults(func=_cmd_shapecheck)

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
