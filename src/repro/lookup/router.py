"""Tiered lookup router: a cascade of exact hash -> q-gram -> ANN.

The paper serves *every* lookup through the embedding model plus ANN
index, but production annotation traffic (bbw, JenTab, DoSeR) is a
heavy-tailed mix where many queries are exact label hits or noisy
strings a cheap string matcher already answers.  :class:`LookupRouter`
asks the cheap tiers first and pays for the dual tower only when they are
not confident — KAZU's SapBERT linking step (``ignore_high_conf``: "if a
perfect match has already been found, don't run sapbert", generalised
from perfect to confident) and NSEEN's cheap-similarity front tier:

1. **exact** — an O(1) probe of :class:`LabelHashTable`, a hash of
   *normalized* labels/aliases sharing :func:`repro.lookup.normalize`
   with the query cache, so a cache key and an exact-hit key can never
   diverge.  Hits skip the embedding model and, in the serving engine,
   the result cache too (:meth:`LookupRouter.serve_exact`).
2. **fuzzy** — every other query is asked of a cheap string service
   (q-gram Jaccard).  Its answer is kept when its best score is at least
   :data:`TAU`, or when the query is one the character tower cannot
   help: shorter than ``min_string_length_to_trigger`` or less
   alphabetic than ``min_alpha_ratio`` (3-character prefixes and typos
   of ≤ 3 characters, where the tower's recall is ≈ 0 and q-gram's is
   not).
3. **ann** — only the rest falls through to the embedding + vector
   index path (any :class:`~repro.lookup.base.LookupService`, typically
   :class:`~repro.lookup.emblookup_service.EmbLookupService` or the
   serving :class:`~repro.serving.engine.LookupEngine`).

There is one predicate: :meth:`LookupRouter.wants_fuzzy` is the decision
:meth:`LookupRouter.serve_local` takes, for one query.  τ is a constant,
not an option: ``benchmarks/bench_router_cascade.py`` sweeps it per query
kind on two models (``BENCH_cascade.json``) and it is the largest value
whose recall stays within 0.01 of each cell's best.  At the sizes this
repository measures, the string tier beats the tower in every cell; the
tower is left the queries the string tier has no confident answer for.

Type-constrained lookups (``type_filter=``) filter the exact tier
through :class:`TypeFilterMap` and delegate typed ANN search to tiers
that support it (the serving engine over-fetches its full scan and
filters at rank time).

Every tier keeps a :class:`~repro.utils.timing.Stopwatch` and a routing
counter; :meth:`LookupRouter.router_stats` snapshots the counters
atomically under one lock (the PR 7 discipline), and the serving engine
merges them into ``serving_stats``.
"""

from __future__ import annotations

import threading
import time

from repro.kg.graph import KnowledgeGraph
from repro.lookup.base import Candidate, LookupService
from repro.lookup.normalize import normalize
from repro.lookup.qgram import QGramLookup
from repro.utils.timing import Stopwatch

__all__ = ["TAU", "LabelHashTable", "LookupRouter", "TypeFilterMap"]

#: τ: the fuzzy tier's answer is kept when its best score is at least
#: this (a tie is kept), else the query falls through to the ANN tier.
#: From the checked-in sweep ``BENCH_cascade.json``: the largest grid value
#: within 0.01 of the best recall in every cell on both models (0.2 costs
#: 0.018 of typo'd 4-7-character labels on the Table V budget model).
TAU = 0.15

#: Tier names in dispatch order.
_TIERS = ("exact", "fuzzy", "ann")

#: Over-fetch factor when a type filter must be applied by post-filtering
#: an unfiltered tier's answers (tiers without native type support).
_TYPE_OVERFETCH = 4


class LabelHashTable:
    """Hash of normalized surface forms -> entity ids (the exact tier).

    The keys pass through :func:`repro.lookup.normalize` — the same
    helper the query cache uses — so "Germany " and "germany" are one
    entry.  Concurrency follows the single-writer copy-on-write
    discipline of the online-mutation path: the id tuples are immutable
    (every :meth:`add` / :meth:`drop_entity` installs a *new* tuple with
    one GIL-atomic dict assignment) and mutations are serialized by the
    serving engine's mutation lock, so concurrent readers see either the
    old tuple or the new one without taking a lock.  The mutation thread
    alone reads ``_keys_of``, the reverse map that lets a drop visit only
    the entity's own keys.
    """

    def __init__(self, include_aliases: bool = True) -> None:
        self.include_aliases = include_aliases
        self._entries: dict[str, tuple[str, ...]] = {}
        #: entity id -> the keys whose tuple names it.
        self._keys_of: dict[str, list[str]] = {}
        self._bytes = 0

    @classmethod
    def build(
        cls, kg: KnowledgeGraph, include_aliases: bool = True
    ) -> "LabelHashTable":
        """Index every entity label (and alias, by default) of ``kg``."""
        table = cls(include_aliases=include_aliases)
        for mention, entity_id in kg.mention_rows(include_aliases):
            table.add(mention, entity_id)
        return table

    def add(self, mention: str, entity_id: str) -> None:
        """Register one surface form (normalized internally)."""
        key = normalize(mention)
        if not key:
            return
        existing = self._entries.get(key, ())
        if entity_id in existing:
            return
        self._entries[key] = existing + (entity_id,)
        self._keys_of.setdefault(entity_id, []).append(key)
        self._bytes += len(key.encode()) + len(entity_id.encode()) + 16

    def drop_entity(self, entity_id: str) -> int:
        """Remove ``entity_id`` from every surface form it is indexed under.

        Returns the number of entries it was removed from (0 for an
        unknown entity); visits only those entries.  Copy-on-write:
        affected keys get a fresh tuple (or are deleted when the entity
        was their only answer), so concurrent readers are never exposed
        to a half-edited entry.
        """
        keys = self._keys_of.pop(entity_id, [])
        for key in keys:
            remaining = tuple(e for e in self._entries[key] if e != entity_id)
            if remaining:
                self._entries[key] = remaining
            else:
                del self._entries[key]
            # Mirror of the per-add accounting in :meth:`add`.
            self._bytes -= len(key.encode()) + len(entity_id.encode()) + 16
        return len(keys)

    def get(self, normalized: str) -> tuple[str, ...]:
        """Entity ids whose label/alias normalizes to ``normalized``."""
        return self._entries.get(normalized, ())

    def lookup(self, query: str) -> tuple[str, ...]:
        """Convenience probe that normalizes ``query`` first."""
        return self.get(normalize(query))

    def __len__(self) -> int:
        """Distinct normalized surface forms indexed."""
        return len(self._entries)

    def index_bytes(self) -> int:
        """Approximate storage of keys plus id tuples (what a probe reads;
        the write-side reverse map is not counted)."""
        return self._bytes


class TypeFilterMap:
    """Per-type membership sets for ``type_filter``.

    For every type id the map precomputes the *allowed* entity-id set —
    entities declaring the type or any of its subtypes, matching
    :meth:`KnowledgeGraph.entities_of_type` with ``transitive=True``.

    The sets follow the single-writer copy-on-write discipline of the
    online-mutation path: values are immutable frozensets and
    :meth:`add_entity` / :meth:`remove_entity` — serialized by the
    serving engine's mutation lock — install *new* values with GIL-atomic
    dict assignments, so lock-free concurrent readers see either the old
    membership or the new one.
    """

    def __init__(self, allowed: dict[str, frozenset[str]]) -> None:
        self._allowed = dict(allowed)

    @classmethod
    def from_kg(cls, kg: KnowledgeGraph) -> "TypeFilterMap":
        """Precompute membership for every type in ``kg``."""
        return cls(
            {
                t.type_id: frozenset(
                    kg.entities_of_type(t.type_id, transitive=True)
                )
                for t in kg.types()
            }
        )

    def add_entity(
        self, entity_id: str, type_ids: tuple[str, ...] | list[str]
    ) -> None:
        """Admit ``entity_id`` under every type in ``type_ids``.

        ``type_ids`` is taken as the entity's full (already transitive)
        type set — change-feed mutations carry explicit types rather
        than re-deriving the hierarchy.  Unknown type ids create a new
        filter entry, so a type introduced by the feed is immediately
        filterable.
        """
        for tid in type_ids:
            self._allowed[tid] = self._allowed.get(tid, frozenset()) | {
                entity_id
            }

    def remove_entity(self, entity_id: str) -> None:
        """Retract ``entity_id`` from every type membership set."""
        for tid, members in list(self._allowed.items()):
            if entity_id in members:
                self._allowed[tid] = members - {entity_id}

    def allowed(self, type_id: str) -> frozenset[str]:
        """Entity ids admissible under ``type_filter=type_id``."""
        try:
            return self._allowed[type_id]
        except KeyError:
            raise KeyError(f"unknown type id {type_id!r}") from None


def alpha_ratio(text: str) -> float:
    """Fraction of alphabetic characters among non-space characters.

    Low-ratio strings ("B-52", "740.22", "#1") are the symbolic surface
    forms the character embedding tower handles worst; the router keeps
    the fuzzy tier's answer for them whatever its score.
    Empty/whitespace-only strings score 0.0 (maximally non-alphabetic).
    """
    meat = "".join(text.split())
    if not meat:
        return 0.0
    return sum(map(str.isalpha, meat)) / len(meat)


class LookupRouter(LookupService):
    """Cascade over exact / fuzzy / ANN lookup services (module docstring).

    Parameters
    ----------
    label_table:
        The exact tier's :class:`LabelHashTable`.
    ann:
        Fallback service for the queries the cheap tiers leave.  May be
        ``None`` when the router is embedded *inside* the serving engine
        (the engine itself is the ANN tier and only calls
        :meth:`serve_local`); a standalone router with ``ann=None``
        raises on the first query that needs the tier.
    fuzzy:
        String service asked for every query the exact tier misses (its
        answer kept at a best score of at least :data:`TAU`), or
        ``None`` to send them all to the ANN tier.  :meth:`add_entity` /
        :meth:`remove_entity` need it to have the ``add`` /
        ``drop_entity`` pair of :class:`LabelHashTable` (every
        :class:`~repro.lookup.rows.RowTableLookup` does).
    min_string_length_to_trigger:
        Normalized queries shorter than this never reach the embedding
        model (KAZU's knob of the same name): the fuzzy tier's answer is
        kept whatever its score.
    min_alpha_ratio:
        Likewise for queries whose :func:`alpha_ratio` is below this,
        regardless of length.
    type_map:
        :class:`TypeFilterMap` enabling ``type_filter=`` lookups.
    """

    name = "router"

    def __init__(
        self,
        label_table: LabelHashTable,
        ann: LookupService | None = None,
        fuzzy: LookupService | None = None,
        min_string_length_to_trigger: int = 4,
        min_alpha_ratio: float = 0.5,
        type_map: TypeFilterMap | None = None,
    ) -> None:
        super().__init__()
        if min_string_length_to_trigger < 0:
            raise ValueError(
                "min_string_length_to_trigger must be >= 0, got "
                f"{min_string_length_to_trigger}"
            )
        if not 0.0 <= min_alpha_ratio <= 1.0:
            raise ValueError(
                f"min_alpha_ratio must be in [0, 1], got {min_alpha_ratio}"
            )
        self.label_table = label_table
        self.ann = ann
        self.fuzzy = fuzzy
        self.min_string_length_to_trigger = min_string_length_to_trigger
        self.min_alpha_ratio = min_alpha_ratio
        self.type_map = type_map
        self.tier_times: dict[str, Stopwatch] = {
            tier: Stopwatch() for tier in _TIERS
        }
        self._stats_lock = threading.Lock()
        self._exact_hits = 0
        self._fuzzy_routed = 0
        self._ann_routed = 0

    @classmethod
    def build(
        cls,
        kg: KnowledgeGraph,
        ann: LookupService | None = None,
        fuzzy: LookupService | str | None = "qgram",
        include_aliases: bool = True,
        **kwargs,
    ) -> "LookupRouter":
        """Build the exact tier and type map from ``kg``.

        ``fuzzy`` may be a ready service, the string ``"qgram"`` to
        build a :class:`QGramLookup` over ``kg``, or ``None`` to disable
        the tier.
        """
        if isinstance(fuzzy, str):
            if fuzzy != "qgram":
                raise ValueError(
                    "fuzzy must be a LookupService, 'qgram' or None, "
                    f"got {fuzzy!r}"
                )
            fuzzy = QGramLookup.build(kg, include_aliases=include_aliases)
        return cls(
            LabelHashTable.build(kg, include_aliases=include_aliases),
            ann=ann,
            fuzzy=fuzzy,
            type_map=TypeFilterMap.from_kg(kg),
            **kwargs,
        )

    # -- online mutation ---------------------------------------------------------

    def require_mutable(self) -> None:
        """Raise :class:`ValueError` unless every local tier can follow
        :meth:`add_entity` / :meth:`remove_entity` — a fuzzy service
        without ``add`` / ``drop_entity`` would keep serving removed
        entities and never learn added ones."""
        if self.fuzzy is not None and not (
            callable(getattr(self.fuzzy, "add", None))
            and callable(getattr(self.fuzzy, "drop_entity", None))
        ):
            raise ValueError(
                f"router fuzzy tier {self.fuzzy.name!r} cannot follow "
                "mutations (no add/drop_entity)"
            )

    def add_entity(
        self,
        entity_id: str,
        mentions: list[str] | tuple[str, ...],
        types: tuple[str, ...] = (),
    ) -> None:
        """Make ``entity_id`` answerable by the exact and fuzzy tiers under
        every mention, and admissible under ``types`` (its full type
        set).  Serialized by the caller, like the tiers' own mutators."""
        self.require_mutable()
        for mention in mentions:
            self.label_table.add(mention, entity_id)
            if self.fuzzy is not None:
                self.fuzzy.add(mention, entity_id)
        if self.type_map is not None:
            self.type_map.add_entity(entity_id, types)

    def remove_entity(self, entity_id: str) -> None:
        """Retract ``entity_id`` from the exact tier, the fuzzy tier and
        the type map, so no local tier answers with it again."""
        self.require_mutable()
        self.label_table.drop_entity(entity_id)
        if self.fuzzy is not None:
            self.fuzzy.drop_entity(entity_id)
        if self.type_map is not None:
            self.type_map.remove_entity(entity_id)

    # -- tier classification -----------------------------------------------------

    def wants_fuzzy(self, normalized: str) -> bool:
        """Whether the string tiers answer a (non-exact-hit) query: the
        decision :meth:`serve_local` takes for it without a type filter,
        by asking the fuzzy tier."""
        if self.fuzzy is None:
            return False
        row = self.fuzzy.lookup_batch([normalized], 1)[0]
        return self._keeps(normalized, row)

    def _keeps(self, normalized: str, row: list[Candidate]) -> bool:
        """Whether the fuzzy tier's ``row`` answers ``normalized``: its best
        score reaches :data:`TAU`, or the query is one the tower cannot
        help (too short or too symbolic to embed)."""
        return (
            bool(row)
            and row[0].score >= TAU
            or len(normalized) < self.min_string_length_to_trigger
            or alpha_ratio(normalized) < self.min_alpha_ratio
        )

    # -- local tiers (shared by standalone and engine-embedded use) --------------

    def _allowed(self, type_filter: str | None) -> frozenset[str] | None:
        """The entity ids ``type_filter`` admits (``None``: no filter)."""
        if type_filter is None:
            return None
        if self.type_map is None:
            raise RuntimeError(
                "router has no TypeFilterMap; build() it from a KG to use "
                "type_filter"
            )
        return self.type_map.allowed(type_filter)

    def serve_exact(
        self,
        normalized: list[str],
        k: int,
        type_filter: str | None = None,
    ) -> list[list[Candidate] | None]:
        """The exact tier alone: one :class:`LabelHashTable` probe per
        normalized query (under a ``type_filter``, of the entities it
        admits); ``None`` marks a miss.  Counts ``exact_hits``, not time
        (:meth:`serve_local` and the serving engine time their calls).
        The engine asks it ahead of its result cache."""
        allowed = self._allowed(type_filter)
        out: list[list[Candidate] | None] = [None] * len(normalized)
        exact_hits = 0
        for qi, query in enumerate(normalized):
            hits = self.label_table.get(query)
            if allowed is not None:
                hits = tuple(e for e in hits if e in allowed)
            if hits:
                out[qi] = [Candidate(e, 1.0) for e in hits[:k]]
                exact_hits += 1
        if exact_hits:
            with self._stats_lock:
                self._exact_hits += exact_hits
        return out

    def serve_local(
        self,
        normalized: list[str],
        k: int,
        type_filter: str | None = None,
    ) -> tuple[list[list[Candidate] | None], list[str]]:
        """Answer what the exact/fuzzy tiers can; ``None`` marks ANN work.

        ``normalized`` must already be passed through
        :func:`repro.lookup.normalize` (both the router's public path and
        the serving engine do).  Every :meth:`serve_exact` miss is asked
        of the fuzzy tier in one batch, and its answer kept as
        :meth:`_keeps` says — under a ``type_filter``, the answer as
        filtered.  Returns the answers and, per answer, the tier it was
        routed to (``"exact"`` / ``"fuzzy"`` / ``"ann"``) — what a cache
        needs to know which writes can change it.  Slots left as ``None``
        (tier ``"ann"``) are the caller's to serve through its ANN path;
        they are counted as ``ann_routed`` here, so the counters reflect
        routing decisions regardless of which component executes the
        fallback.
        """
        start = time.perf_counter()
        out = self.serve_exact(normalized, k, type_filter)
        self.tier_times["exact"].add(time.perf_counter() - start)
        allowed = self._allowed(type_filter)
        tiers = ["ann" if row is None else "exact" for row in out]
        misses = [qi for qi, row in enumerate(out) if row is None]
        fuzzy_hits = 0
        if misses and self.fuzzy is not None:
            start = time.perf_counter()
            fetch = k if allowed is None else k * _TYPE_OVERFETCH
            rows = self.fuzzy.lookup_batch(
                [normalized[qi] for qi in misses], fetch
            )
            for qi, row in zip(misses, rows):
                if allowed is not None:
                    row = [c for c in row if c.entity_id in allowed][:k]
                if self._keeps(normalized[qi], row):
                    out[qi] = row
                    tiers[qi] = "fuzzy"
                    fuzzy_hits += 1
            self.tier_times["fuzzy"].add(time.perf_counter() - start)
        if misses:
            with self._stats_lock:
                self._fuzzy_routed += fuzzy_hits
                self._ann_routed += len(misses) - fuzzy_hits
        return out, tiers

    # -- LookupService hooks -----------------------------------------------------

    def _lookup_batch(
        self, queries: list[str], k: int
    ) -> list[list[Candidate]]:
        return self._dispatch(queries, k, None)

    def _lookup_batch_typed(
        self, queries: list[str], k: int, type_filter: str
    ) -> list[list[Candidate]]:
        return self._dispatch(queries, k, type_filter)

    def _dispatch(
        self, queries: list[str], k: int, type_filter: str | None
    ) -> list[list[Candidate]]:
        normalized = [normalize(q) for q in queries]
        out, _ = self.serve_local(normalized, k, type_filter)
        ann_positions = [qi for qi, row in enumerate(out) if row is None]
        if ann_positions:
            if self.ann is None:
                raise RuntimeError(
                    "router has no ANN tier: pass ann= or embed the router "
                    "in a LookupEngine"
                )
            sub = [queries[qi] for qi in ann_positions]
            with self.tier_times["ann"]:
                if type_filter is None:
                    rows = self.ann.lookup_batch(sub, k)
                elif self.ann.supports_type_filter:
                    rows = self.ann.lookup_batch(
                        sub, k, type_filter=type_filter
                    )
                else:
                    allowed = self.type_map.allowed(type_filter)
                    raw = self.ann.lookup_batch(sub, k * _TYPE_OVERFETCH)
                    rows = [
                        [c for c in row if c.entity_id in allowed][:k]
                        for row in raw
                    ]
            for qi, row in zip(ann_positions, rows):
                out[qi] = row
        return out

    # -- introspection -----------------------------------------------------------

    def tier_seconds(self) -> dict[str, float]:
        """Cumulative seconds per tier, as :meth:`serve_local` sees them
        (the ann entry covers only the standalone fallback; an embedding
        engine times its own stages, its exact probe ahead of the result
        cache included)."""
        return {tier: watch.total for tier, watch in self.tier_times.items()}

    def router_stats(self) -> dict[str, int]:
        """Routing counters, copied in one lock hold (atomic snapshot)."""
        with self._stats_lock:
            return {
                "exact_hits": self._exact_hits,
                "fuzzy_routed": self._fuzzy_routed,
                "ann_routed": self._ann_routed,
            }

    def reset_timers(self) -> None:
        """Zero the whole-call timer and every tier stopwatch."""
        super().reset_timers()
        for watch in self.tier_times.values():
            watch.reset()

    def index_bytes(self) -> int:
        """Label table plus constituent tier indexes."""
        total = self.label_table.index_bytes()
        for tier in (self.fuzzy, self.ann):
            if tier is not None:
                total += tier.index_bytes()
        return total
