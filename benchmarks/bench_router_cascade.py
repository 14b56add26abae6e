"""Router cascade sweep: recall@10 and µs per query against τ, per query kind.

Writes ``BENCH_cascade.json`` at the repo root (override with ``--out``).
:class:`~repro.lookup.router.LookupRouter` asks the q-gram tier for every
query the exact tier misses and keeps its answer when the best Jaccard is
at least τ (:data:`repro.lookup.router.TAU`), or when the query is too
short / symbolic for the character tower; the rest pays for the embedding
path.  This script is where τ comes from.

For each of two models -- ``benchmarks/e2e``'s change detector (2 epochs,
trained on 200 entities, serving ``trace_open``'s 5 000-entity KG) and the
Table V budget model (``BENCH_TRAIN_CONFIG``, 8 epochs x 14 triplets per
entity, on the 700-entity KG of the paper-table benches) -- it draws
queries in six cells: typo'd labels of normalized length 4-7, 8-15 and
16+, typo'd labels of length <= 3, 3-character prefixes and typo'd
aliases (exact hits left out: the exact tier answers them whatever τ
is).  Every query is answered by the q-gram tier and by the ANN path (a
``LookupEngine`` without router or cache: normalize, embed, scan, rank)
one at a time, ``repeats`` times.  For τ in {0, 0.05, ..., 0.6} the
cascade's recall@10 takes the q-gram answer where τ keeps it and the ANN
answer elsewhere, and its µs per query is the q-gram time plus the ANN
time of the queries τ sends on.

``tau_selected`` is the largest grid value whose cascade recall is within
0.01 of its cell's best, in every cell, on both models.  The record also
holds BENCH_router's property on a ``trace_open``-style mix (50 / 25 / 25
exact / typo / prefix): recall@10 of the routed path at
:data:`~repro.lookup.router.TAU` against the pure embedding path.  Exit 0
iff routed recall > pure-embedding recall on both models; without
``--smoke``, also iff ``tau_selected`` equals the router's ``TAU``.

    python benchmarks/bench_router_cascade.py [--smoke] [--out FILE]
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

# One BLAS thread, as in benchmarks/e2e: a pool would measure the pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE / "e2e"))

from conftest import (  # noqa: E402
    BENCH_TRAIN_CONFIG,
    MEDIUM_ENTITIES,
    cached_emblookup,
)
from repro.core.pipeline import EmbLookup  # noqa: E402
from repro.kg import SyntheticKGConfig, generate_kg  # noqa: E402
from repro.lookup.normalize import normalize  # noqa: E402
from repro.lookup.router import TAU, LookupRouter, alpha_ratio  # noqa: E402
from repro.serving.engine import LookupEngine  # noqa: E402
from repro.text.noise import NoiseModel  # noqa: E402
from tools.bench_json import write_bench_json  # noqa: E402

K = 10
GRID = tuple(round(0.05 * i, 2) for i in range(13))
#: A τ is acceptable in a cell when its recall is within this of the best.
SLACK = 0.01
CELLS = ("typo 4-7", "typo 8-15", "typo 16+", "typo <=3", "prefix 3", "alias typo")
#: Draws per query wanted before a cell gives up filling (short labels
#: are rare: "typo <=3" may stay below its target).
ATTEMPTS = 40


def typo_cell(query: str) -> str:
    n = len(normalize(query))
    if n <= 3:
        return "typo <=3"
    if n <= 7:
        return "typo 4-7"
    return "typo 8-15" if n <= 15 else "typo 16+"


def draw_cells(kg, router, per_cell: int, seed: int) -> dict[str, list]:
    """``(query, entity id)`` pairs per cell, none an exact hit."""
    rng = np.random.default_rng(seed)
    noise = NoiseModel(max_edits=2, seed=seed + 1)
    entities = list(kg.entities())
    short = [e for e in entities if len(normalize(e.label)) <= 4]
    aliased = [e for e in entities if e.aliases]
    cells: dict[str, list] = {cell: [] for cell in CELLS}

    def offer(cell: str, query: str, entity) -> None:
        if len(cells[cell]) < per_cell and not router.label_table.get(
            normalize(query)
        ):
            cells[cell].append((query, entity.entity_id))

    for _ in range(ATTEMPTS * per_cell):
        entity = entities[int(rng.integers(0, len(entities)))]
        query = noise.corrupt(entity.label)
        offer(typo_cell(query), query, entity)
        offer("prefix 3", entity.label[:3], entity)
        if aliased:
            other = aliased[int(rng.integers(0, len(aliased)))]
            alias = other.aliases[int(rng.integers(0, len(other.aliases)))]
            offer("alias typo", noise.corrupt(alias), other)
        if short:
            tiny = short[int(rng.integers(0, len(short)))]
            query = noise.corrupt(tiny.label)
            if len(normalize(query)) <= 3:
                offer("typo <=3", query, tiny)
        if all(len(rows) >= per_cell for rows in cells.values()):
            break
    return cells


def time_one(service, query: str) -> tuple[list, float]:
    start = time.perf_counter()
    row = service.lookup_batch([query], K)[0]
    return row, (time.perf_counter() - start) * 1e6


def measure(router, ann, pairs, repeats: int) -> dict:
    """Per query: hits and best score (deterministic), µs per repeat."""
    n = len(pairs)
    qgram_us = np.empty((repeats, n))
    ann_us = np.empty((repeats, n))
    qgram_hit = np.zeros(n, dtype=bool)
    ann_hit = np.zeros(n, dtype=bool)
    best = np.zeros(n)
    guarded = np.zeros(n, dtype=bool)
    for r in range(repeats):
        for i, (query, truth) in enumerate(pairs):
            key = normalize(query)
            row, qgram_us[r, i] = time_one(router.fuzzy, key)
            answer, ann_us[r, i] = time_one(ann, query)
            if r == 0:
                qgram_hit[i] = truth in [c.entity_id for c in row]
                ann_hit[i] = truth in [c.entity_id for c in answer]
                best[i] = row[0].score if row else -np.inf
                guarded[i] = (
                    len(key) < router.min_string_length_to_trigger
                    or alpha_ratio(key) < router.min_alpha_ratio
                )
                # The sweep's rule at the router's τ is the router's own.
                assert router.wants_fuzzy(key) == (guarded[i] or best[i] >= TAU)
    return {
        "qgram_us": qgram_us, "ann_us": ann_us, "qgram_hit": qgram_hit,
        "ann_hit": ann_hit, "best": best, "guarded": guarded,
    }


def spread(values) -> dict:
    q25, q50, q75 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": round(float(q50), 1), "q25": round(float(q25), 1),
            "q75": round(float(q75), 1)}


def sweep(m: dict) -> dict:
    """The cell's row of the table: both tiers alone and the cascade per τ."""
    n = len(m["best"])
    out = {
        "queries": n,
        "qgram": {"recall": float(m["qgram_hit"].mean()),
                  "us": spread(m["qgram_us"].mean(axis=1))},
        "ann": {"recall": float(m["ann_hit"].mean()),
                "us": spread(m["ann_us"].mean(axis=1))},
        "guarded_share": float(m["guarded"].mean()),
        "sweep": [],
    }
    for tau in GRID:
        keep = m["guarded"] | (m["best"] >= tau)
        hits = np.where(keep, m["qgram_hit"], m["ann_hit"])
        us = m["qgram_us"] + np.where(keep, 0.0, m["ann_us"])
        out["sweep"].append({
            "tau": tau,
            "recall": round(float(hits.mean()), 4),
            "us": spread(us.mean(axis=1)),
            "ann_share": round(float(1.0 - keep.mean()), 4),
        })
    top = max(row["recall"] for row in out["sweep"])
    out["best_recall"] = top
    out["acceptable_taus"] = [
        row["tau"] for row in out["sweep"] if row["recall"] >= top - SLACK
    ]
    return out


def routed_vs_pure(kg, router, ann, count: int, seed: int) -> dict:
    """BENCH_router's property on a trace_open-style 50 / 25 / 25 mix."""
    rng = np.random.default_rng(seed)
    noise = NoiseModel(max_edits=2, seed=seed + 1)
    entities = list(kg.entities())
    queries, truth = [], []
    for i in range(count):
        entity = entities[int(rng.integers(0, len(entities)))]
        kind = ("exact", "exact", "typo", "prefix")[i % 4]
        if kind == "exact":
            queries.append(entity.mentions[int(rng.integers(0, len(entity.mentions)))])
        elif kind == "typo":
            queries.append(noise.corrupt(entity.label))
        else:
            queries.append(entity.label[:3])
        truth.append(entity.entity_id)
    normalized = [normalize(q) for q in queries]
    local, _ = router.serve_local(normalized, K)
    pure = ann.lookup_batch(queries, K)
    routed_hits = pure_hits = 0
    for row, ann_row, want in zip(local, pure, truth):
        row = ann_row if row is None else row
        routed_hits += want in [c.entity_id for c in row]
        pure_hits += want in [c.entity_id for c in ann_row]
    return {
        "queries": count,
        "routed_recall": routed_hits / count,
        "pure_embedding_recall": pure_hits / count,
    }


def e2e_model():
    """benchmarks/e2e's change detector over trace_open's KG."""
    from workloads import TRAIN_CONFIG, TRAIN_KG, WORKLOADS, index_kg, train_pipeline

    kg = index_kg(WORKLOADS["trace_open"])
    pipeline = train_pipeline()
    pipeline.build_index(kg)
    return pipeline, {
        "train": {"epochs": TRAIN_CONFIG.epochs,
                  "triplets_per_entity": TRAIN_CONFIG.triplets_per_entity,
                  "entities": TRAIN_KG.num_entities},
        "index_entities": kg.num_entities,
    }


def table_v_model(smoke: bool):
    """The paper-table benches' training budget on their 700-entity KG
    (a cut-down budget and KG under ``--smoke``)."""
    entities = 300 if smoke else MEDIUM_ENTITIES
    kg = generate_kg(
        SyntheticKGConfig(num_entities=entities, flavour="wikidata", seed=5)
    )
    if smoke:
        config = replace(BENCH_TRAIN_CONFIG, epochs=2, triplets_per_entity=4)
        pipeline = EmbLookup(config).fit(kg)
    else:
        config = BENCH_TRAIN_CONFIG
        pipeline = cached_emblookup("el_medium", kg, config)
    return pipeline, {
        "train": {"epochs": config.epochs,
                  "triplets_per_entity": config.triplets_per_entity,
                  "entities": entities},
        "index_entities": entities,
    }


def run_model(pipeline, info: dict, per_cell: int, repeats: int, seed: int) -> dict:
    kg = pipeline.kg
    router = LookupRouter.build(kg)
    cells = draw_cells(kg, router, per_cell, seed)
    with LookupEngine.from_pipeline(pipeline, cache_size=0) as ann:
        warm = [e.label[:-1] + "x" for e in list(kg.entities())[:16]]
        for query in warm:
            ann.lookup_batch([query], K)
            router.fuzzy.lookup_batch([normalize(query)], K)
        out = dict(info)
        out["cells"] = {}
        for cell, pairs in cells.items():
            if pairs:
                out["cells"][cell] = sweep(measure(router, ann, pairs, repeats))
        out["routed_vs_pure"] = routed_vs_pure(kg, router, ann, 4 * per_cell, seed)
    return out


def print_model(name: str, model: dict) -> None:
    print(f"== {name}: {model['index_entities']} entities")
    for cell, row in model["cells"].items():
        at = next(s for s in row["sweep"] if s["tau"] == TAU)
        print(
            f"  {cell:11s} n={row['queries']:4d}  q-gram {row['qgram']['recall']:.3f}"
            f" / {row['qgram']['us']['median']:6.0f} us   ANN {row['ann']['recall']:.3f}"
            f" / {row['ann']['us']['median']:6.0f} us   cascade@{TAU} {at['recall']:.3f}"
            f" / {at['us']['median']:6.0f} us  ok τ {row['acceptable_taus']}"
        )
    rv = model["routed_vs_pure"]
    print(f"  routed {rv['routed_recall']:.3f} vs pure embedding "
          f"{rv['pure_embedding_recall']:.3f} ({rv['queries']} queries)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=str(ROOT / "BENCH_cascade.json"))
    parser.add_argument("--seed", type=int, default=25)
    args = parser.parse_args(argv)
    per_cell, repeats = (40, 1) if args.smoke else (400, 5)

    models = {}
    for name, build in (
        ("e2e_change_detector", e2e_model),
        ("table_v_budget", lambda: table_v_model(args.smoke)),
    ):
        pipeline, info = build()
        models[name] = run_model(pipeline, info, per_cell, repeats, args.seed)
        print_model(name, models[name])

    taus = set(GRID)
    for model in models.values():
        for row in model["cells"].values():
            taus &= set(row["acceptable_taus"])
    selected = max(taus) if taus else None
    gates = {
        "gate_routed_recall_above_pure": all(
            m["routed_vs_pure"]["routed_recall"]
            > m["routed_vs_pure"]["pure_embedding_recall"]
            for m in models.values()
        ),
    }
    if not args.smoke:
        gates["gate_router_tau_is_selected"] = selected == TAU
    metrics = {
        "smoke": args.smoke,
        "workload": {
            "k": K, "grid": list(GRID), "slack": SLACK, "cells": list(CELLS),
            "queries_per_cell": per_cell, "repeats": repeats, "seed": args.seed,
        },
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "router_tau": TAU,
        "tau_selected": selected,
        "models": models,
        **gates,
    }
    path = write_bench_json(args.out, "cascade", metrics)
    print(f"wrote {path}")
    print(f"τ selected {selected} (router TAU {TAU}); gates {gates}")
    return 0 if all(gates.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
