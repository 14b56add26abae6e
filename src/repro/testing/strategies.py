"""Seeded case generators, shrinking, and the property-run loop.

Dependency-free (numpy-only) stand-in for a property-testing library,
shaped around what the serving stack actually needs:

- **generators** draw adversarial inputs from a seeded
  ``numpy.random.Generator`` — vector stores with duplicate rows,
  near-ties, zero vectors and huge/``inf`` magnitudes; entity-label
  strings with unicode alphabets and typo-perturbed aliases; and
  k/block-size/shard-count grids;
- **shrinking**: when a property fails, :func:`run_cases` greedily
  re-runs structurally smaller variants of the failing case (fewer rows,
  fewer queries, zeroed payloads, shorter strings) and reports the
  smallest variant that still fails;
- **replay**: every failure message contains a
  ``REPRO_SEED=<base> REPRO_CASE=<index>`` line; exporting those
  environment variables re-runs exactly the failing case.  CI runs the
  whole suite under a small ``REPRO_SEED`` matrix so each run draws a
  different-but-pinned case stream.

Generators accept a ``rng`` explicitly — nothing in this module touches
global random state.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DEFAULT_CASES",
    "GridCase",
    "GridStrategy",
    "LabelStrategy",
    "PropertyFailure",
    "StoreCase",
    "TupleStrategy",
    "VectorStoreStrategy",
    "base_seed",
    "case_rng",
    "run_cases",
]

#: Default number of generated cases per property.
DEFAULT_CASES = 100

#: Environment variable overriding the base seed of every property run.
SEED_ENV = "REPRO_SEED"

#: Environment variable pinning a run to one case index (for replay).
CASE_ENV = "REPRO_CASE"

#: Bound on shrink-candidate evaluations per failure.
_MAX_SHRINK_EVALS = 200


def base_seed(default: int = 0) -> int:
    """The run's base seed: ``$REPRO_SEED`` when set, else ``default``."""
    value = os.environ.get(SEED_ENV)
    return int(value) if value else default


def case_rng(base: int, index: int) -> np.random.Generator:
    """The deterministic generator for case ``index`` of a run.

    Seeded from the ``(base, index)`` pair via ``SeedSequence``, so cases
    are independent streams and any single case is replayable without
    generating its predecessors.
    """
    # Explicit SeedSequence streams, not unmanaged global state.
    seq = np.random.SeedSequence((base, index))
    return np.random.default_rng(seq)


class PropertyFailure(AssertionError):
    """A property failed; carries the replay recipe and the shrunk case."""

    def __init__(
        self,
        name: str,
        seed: int,
        index: int,
        original: AssertionError,
        shrunk_case,
        shrink_steps: int,
    ):
        self.seed = seed
        self.index = index
        self.shrunk_case = shrunk_case
        lines = [
            f"property {name!r} failed on case {index} (base seed {seed})",
            f"replay: {SEED_ENV}={seed} {CASE_ENV}={index} pytest <this test>",
            f"original failure: {original}",
        ]
        if shrink_steps:
            lines.append(
                f"shrunk {shrink_steps} step(s) to minimal failing case:"
            )
        else:
            lines.append("case did not shrink further:")
        lines.append(f"  {_describe(shrunk_case)}")
        super().__init__("\n".join(lines))


def _describe(case) -> str:
    if isinstance(case, StoreCase):
        return repr(case)
    text = repr(case)
    return text if len(text) <= 500 else text[:500] + "..."


def run_cases(
    prop: Callable,
    strategy,
    cases: int = DEFAULT_CASES,
    seed: int = 0,
    name: str | None = None,
) -> int:
    """Run ``prop(case)`` over ``cases`` generated cases; shrink failures.

    Returns the number of cases executed.  On the first
    ``AssertionError`` the failing case is shrunk via
    ``strategy.shrink(case)`` (greedy descent, bounded by
    ``_MAX_SHRINK_EVALS`` evaluations) and a :class:`PropertyFailure`
    is raised with the replay seed and the minimal case.
    """
    base = base_seed(seed)
    pinned = os.environ.get(CASE_ENV)
    indices: Iterable[int] = (
        [int(pinned)] if pinned not in (None, "") else range(cases)
    )
    label = name or getattr(prop, "__name__", "property")
    executed = 0
    for index in indices:
        case = strategy.generate(case_rng(base, index))
        try:
            prop(case)
        except AssertionError as exc:
            minimal, steps = _shrink(prop, strategy, case)
            raise PropertyFailure(
                label, base, index, exc, minimal, steps
            ) from exc
        executed += 1
    return executed


def _shrink(prop: Callable, strategy, case) -> tuple[object, int]:
    """Greedy shrink: follow the first smaller candidate that still fails."""
    shrink = getattr(strategy, "shrink", None)
    if shrink is None:
        return case, 0
    steps = 0
    evals = 0
    current = case
    progressed = True
    while progressed and evals < _MAX_SHRINK_EVALS:
        progressed = False
        for candidate in shrink(current):
            evals += 1
            if evals > _MAX_SHRINK_EVALS:
                break
            try:
                prop(candidate)
            except AssertionError:
                current = candidate
                steps += 1
                progressed = True
                break
            except Exception:
                continue  # candidate broke differently; not a simplification
    return current, steps


# -- vector stores ---------------------------------------------------------------


@dataclass(frozen=True)
class StoreCase:
    """One generated vector-store case: the store, its queries, a label."""

    vectors: np.ndarray
    queries: np.ndarray
    note: str = ""

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __repr__(self) -> str:  # compact; full matrices drown the report
        return (
            f"StoreCase(n={len(self.vectors)}, nq={len(self.queries)}, "
            f"dim={self.dim}, note={self.note!r})"
        )


class VectorStoreStrategy:
    """Adversarial ``(store, queries)`` generator.

    Parameters
    ----------
    dims:
        Dimensionalities to draw from.
    max_rows / max_queries:
        Upper bounds on store and query-batch sizes (rows are drawn from
        ``[1, max_rows]``; pass ``min_rows=0`` to include empty stores).
    conditioned:
        When ``True``, magnitudes stay in a well-conditioned band
        (|x| ≲ 100) so exact float comparisons against the oracle are
        meaningful.  When ``False``, cases may additionally contain
        huge-magnitude (``~1e18``) and genuine ``±inf`` entries — the
        regime that historically broke pad ordering in ``merge_topk``.

    Every case gets a mix of adversarial features, chosen by the rng:
    exact duplicate rows, near-tie rows (a duplicate nudged by one small
    ulp-scale step), all-zero rows, and queries placed *on* stored
    points so distance ties actually occur.
    """

    def __init__(
        self,
        dims: tuple[int, ...] = (2, 3, 8, 17),
        max_rows: int = 64,
        max_queries: int = 6,
        min_rows: int = 1,
        conditioned: bool = True,
    ):
        if min_rows < 0 or max_rows < max(1, min_rows):
            raise ValueError("need 0 <= min_rows <= max_rows with max_rows >= 1")
        self.dims = dims
        self.max_rows = max_rows
        self.max_queries = max_queries
        self.min_rows = min_rows
        self.conditioned = conditioned

    def generate(self, rng: np.random.Generator) -> StoreCase:
        """Draw one adversarial store + query batch from ``rng``."""
        dim = int(rng.choice(self.dims))
        n = int(rng.integers(self.min_rows, self.max_rows + 1))
        nq = int(rng.integers(1, self.max_queries + 1))
        scale = float(rng.choice([1e-3, 1.0, 50.0]))
        notes = [f"scale={scale:g}"]
        vectors = (rng.normal(size=(n, dim)) * scale).astype(np.float32)
        if n >= 2 and rng.random() < 0.5:
            # Exact duplicates: every comparator must fall back to id order.
            src, dst = rng.choice(n, size=2, replace=False)
            vectors[dst] = vectors[src]
            notes.append("dup")
        if n >= 2 and rng.random() < 0.5:
            # Near-tie: one float32 ulp-ish nudge on a duplicated row.
            src, dst = rng.choice(n, size=2, replace=False)
            vectors[dst] = vectors[src]
            vectors[dst, 0] = np.nextafter(
                vectors[dst, 0], np.float32(np.inf), dtype=np.float32
            )
            notes.append("near-tie")
        if rng.random() < 0.3:
            vectors[rng.integers(0, n)] = 0.0
            notes.append("zero-row")
        if not self.conditioned:
            if rng.random() < 0.4:
                vectors[rng.integers(0, n)] *= np.float32(1e18)
                notes.append("huge")
            if rng.random() < 0.3:
                row = rng.integers(0, n)
                col = rng.integers(0, dim)
                vectors[row, col] = np.float32(
                    np.inf if rng.random() < 0.5 else -np.inf
                )
                notes.append("inf")
        queries = (rng.normal(size=(nq, dim)) * scale).astype(np.float32)
        if n and rng.random() < 0.5:
            # Query sitting exactly on a stored point: distance-0 ties.
            queries[rng.integers(0, nq)] = vectors[rng.integers(0, n)]
            notes.append("on-point")
        if rng.random() < 0.2:
            queries[rng.integers(0, nq)] = 0.0
        return StoreCase(vectors, queries, note=",".join(notes))

    def shrink(self, case: StoreCase) -> Iterator[StoreCase]:
        """Yield strictly simpler stores: fewer rows/queries, zeroed data."""
        n, nq = len(case.vectors), len(case.queries)
        if n > self.min_rows:
            half = max(self.min_rows, n // 2)
            yield replace(case, vectors=case.vectors[:half].copy())
            yield replace(case, vectors=case.vectors[n - half :].copy())
        if nq > 1:
            yield replace(case, queries=case.queries[: max(1, nq // 2)].copy())
        if np.any(case.vectors != 0):
            # Zeroing payloads often preserves structural failures while
            # making the counterexample legible.
            yield replace(case, vectors=np.zeros_like(case.vectors))
        if np.any(case.queries != 0):
            yield replace(case, queries=np.zeros_like(case.queries))


# -- entity labels ---------------------------------------------------------------

_ALPHABETS = (
    "abcdefghijklmnopqrstuvwxyz",
    "abcdefghijklmnopqrstuvwxyz0123456789 -'",
    "àâçéèêëîïôûüñß",
    "αβγδεζηθλμπστ",
    "москвасанктпетербург",
    "北京上海東京大阪",
)


class LabelStrategy:
    """Entity-label string generator with typo-perturbed aliases.

    Produces ``(label, aliases)`` pairs: a base surface form drawn from a
    mixed-alphabet pool (ascii, accented latin, greek, cyrillic, CJK) and
    ``num_aliases`` corruptions of it via
    :class:`repro.text.noise.NoiseModel` — the same operator mixture the
    evaluation harness uses for its noisy-query workloads.
    """

    def __init__(
        self,
        max_len: int = 24,
        num_aliases: int = 2,
        max_edits: int = 2,
    ):
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        self.max_len = max_len
        self.num_aliases = num_aliases
        self.max_edits = max_edits

    def generate(self, rng: np.random.Generator) -> tuple[str, list[str]]:
        """Draw a ``(label, aliases)`` pair with typo-perturbed aliases."""
        from repro.text.noise import NoiseModel

        alphabet = _ALPHABETS[int(rng.integers(0, len(_ALPHABETS)))]
        length = int(rng.integers(1, self.max_len + 1))
        chars = rng.choice(list(alphabet), size=length)
        label = "".join(chars)
        if rng.random() < 0.3 and length >= 5:
            # Multi-token labels: spaces exercise token-level noise ops.
            split = int(rng.integers(1, length))
            label = label[:split] + " " + label[split:]
        noise = NoiseModel(
            max_edits=self.max_edits, seed=int(rng.integers(0, 2**31))
        )
        aliases = [noise.corrupt(label) for _ in range(self.num_aliases)]
        return label, aliases

    def shrink(
        self, case: tuple[str, list[str]]
    ) -> Iterator[tuple[str, list[str]]]:
        """Yield simpler pairs: halved label, then one alias dropped."""
        label, aliases = case
        if len(label) > 1:
            yield label[: len(label) // 2], aliases
        if aliases:
            yield label, aliases[:-1]


# -- parameter grids -------------------------------------------------------------


@dataclass(frozen=True)
class GridCase:
    """One sampled (k, block_size, num_shards) serving configuration."""

    k: int
    block_size: int
    num_shards: int


class GridStrategy:
    """Sampler over the k / block-size / shard-count grid.

    Includes the degenerate corners on purpose: ``k`` larger than any
    store the vector strategy emits, block size 1 (every row its own
    merge), and enough shards that some are empty for small stores —
    the ``k > ntotal``-on-some-shards edge from the merge bug.
    """

    ks: tuple[int, ...] = (1, 2, 5, 10, 100)
    blocks: tuple[int, ...] = (1, 3, 7, 64, 4096)
    shards: tuple[int, ...] = (1, 3, 8)

    def generate(self, rng: np.random.Generator) -> GridCase:
        """Draw one (k, block_size, num_shards) configuration."""
        return GridCase(
            k=int(rng.choice(self.ks)),
            block_size=int(rng.choice(self.blocks)),
            num_shards=int(rng.choice(self.shards)),
        )

    def shrink(self, case: GridCase) -> Iterator[GridCase]:
        """Yield cases with one axis collapsed to its unit corner."""
        if case.k > 1:
            yield replace(case, k=1)
        if case.block_size > 1:
            yield replace(case, block_size=1)
        if case.num_shards > 1:
            yield replace(case, num_shards=1)


class TupleStrategy:
    """Product of strategies: generates a tuple, shrinks one slot at a time."""

    def __init__(self, *strategies):
        if not strategies:
            raise ValueError("TupleStrategy needs at least one strategy")
        self.strategies = strategies

    def generate(self, rng: np.random.Generator) -> tuple:
        """Draw one case per child strategy, in declaration order."""
        return tuple(s.generate(rng) for s in self.strategies)

    def shrink(self, case: tuple) -> Iterator[tuple]:
        """Yield tuples with exactly one slot replaced by a shrunk case."""
        for slot, strategy in enumerate(self.strategies):
            shrink = getattr(strategy, "shrink", None)
            if shrink is None:
                continue
            for candidate in shrink(case[slot]):
                yield case[:slot] + (candidate,) + case[slot + 1 :]
