"""Where one EmbLookup fit spends its time: the fit-phase split.

    python benchmarks/bench_fit_phases.py                       # this tree
    python benchmarks/bench_fit_phases.py --base ../base/src    # beside another

Times ``EmbLookup.fit`` on two models and splits it into its phases:

- ``e2e`` — the benchmarks/e2e model (200 entities, 2 epochs, 6 triplets
  per entity, batch 64), what every workload's ``setup.fit_s`` trains;
- ``tablev700`` / ``tablev1500`` — the paper benches' Table V budget model
  (``benchmarks/conftest.py::BENCH_TRAIN_CONFIG``: 8 epochs, 14 triplets
  per entity, batch 256) on the 700-entity medium KG and the 1 500-entity
  Wikidata-flavoured KG.

The phases are fastText pre-training (``FastTextModel.fit_anchored``),
offline triplet mining (``TripletMiner.mine``), the triplet loop
(``EmbLookup._train``) and the flat index build; the rest of ``fit`` (the
alphabet, the model's initialisation) is ``other``.  Every cell is the
median of ``--reps`` fits in one fresh process per (tree, model), one BLAS
thread.  ``--base SRC`` measures a second source tree the same way (a
checkout of the commit to compare against) and prints its column first.
A run over all three models writes the table to
``benchmarks/results/fit_phases.txt``, which ``tools/build_experiments.py``
copies into EXPERIMENTS.md; a ``--models`` subset only prints it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results" / "fit_phases.txt"
MODELS = ("e2e", "tablev700", "tablev1500")
PHASES = ("fasttext", "mining", "triplets", "index", "other", "total")


def measure(model: str, reps: int) -> dict[str, float]:
    """Median seconds per phase over ``reps`` fits (run in a child)."""
    from repro.core.config import EmbLookupConfig
    from repro.core.pipeline import EmbLookup
    from repro.embedding.fasttext import FastTextModel
    from repro.kg import SyntheticKGConfig, generate_kg
    from repro.triplets.mining import TripletMiner

    if model == "e2e":
        kg = generate_kg(SyntheticKGConfig(num_entities=200, seed=17))
        config = EmbLookupConfig(
            epochs=2, triplets_per_entity=6, fasttext_epochs=2, batch_size=64,
            seed=2, compression="none",
        )
    else:
        size = int(model.removeprefix("tablev"))
        kg = generate_kg(
            SyntheticKGConfig(
                num_entities=size, flavour="wikidata", seed=5 if size == 700 else 3
            )
        )
        config = EmbLookupConfig(
            epochs=8, triplets_per_entity=14, fasttext_epochs=2, batch_size=256,
            margin=0.3, seed=1,
        )
    spent: dict[str, float] = {}

    def timed(owner, name: str, phase: str) -> None:
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                spent[phase] += time.perf_counter() - start

        setattr(owner, name, wrapper)

    timed(FastTextModel, "fit_anchored", "fasttext")
    timed(TripletMiner, "mine", "mining")
    timed(EmbLookup, "_train", "triplets")
    timed(EmbLookup, "build_index", "index")
    runs: list[dict[str, float]] = []
    for _ in range(reps):
        spent.update(dict.fromkeys(PHASES[:4], 0.0))
        start = time.perf_counter()
        EmbLookup(config).fit(kg)
        total = time.perf_counter() - start
        runs.append({**spent, "other": total - sum(spent.values()), "total": total})
    return {phase: statistics.median(run[phase] for run in runs) for phase in PHASES}


def measure_tree(src: Path, model: str, reps: int) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, __file__, "--child", model, "--reps", str(reps)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def table(columns: list[tuple[str, dict[str, dict[str, float]]]], models) -> str:
    head = "| model | phase | " + " | ".join(name for name, _ in columns) + " |"
    lines = [head, "|---|---|" + "---|" * len(columns)]
    for model in models:
        for phase in PHASES:
            cells = [f"{seconds[model][phase]:.3f}" for _, seconds in columns]
            label = model if phase == PHASES[0] else ""
            lines.append(f"| {label} | {phase} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="a second source tree (its src/) to time first")
    parser.add_argument("--models", nargs="+", choices=MODELS, default=list(MODELS))
    parser.add_argument("--reps", type=int, default=3, help="fits per (tree, model); Table V models take 1")
    parser.add_argument("--child", choices=MODELS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(measure(args.child, args.reps)))
        return 0
    trees = [("this tree", ROOT / "src")]
    if args.base is not None:
        trees.insert(0, ("base", args.base.resolve()))
    columns = [
        (
            f"{name} s",
            {
                model: measure_tree(src, model, args.reps if model == "e2e" else 1)
                for model in args.models
            },
        )
        for name, src in trees
    ]
    text = (
        "Fit-phase split: median wall seconds per phase of one EmbLookup.fit\n"
        f"(e2e: median of {args.reps} fits; Table V models: one fit), one BLAS thread.\n\n"
        + table(columns, args.models)
    )
    if set(args.models) == set(MODELS):
        RESULTS.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
