"""Behavioural tests for the eight baseline lookup services.

Each service has a characteristic accuracy/robustness profile the paper's
Table V depends on; these tests pin those profiles on the shared KG.
"""

import os
import subprocess
import sys

import pytest

from repro.kg.graph import KnowledgeGraph
from repro.kg.schema import Entity
from repro.lookup.elastic import ElasticLookup
from repro.lookup.exact import ExactMatchLookup
from repro.lookup.fuzzy import FuzzyWuzzyLookup
from repro.lookup.levenshtein import LevenshteinLookup
from repro.lookup.lsh_lookup import LSHStringLookup
from repro.lookup.qgram import QGramLookup
from repro.lookup.remote import RemoteServiceModel, SimulatedRemoteLookup
from repro.lookup.rows import RowTableLookup

SERVICES = [
    ExactMatchLookup, LevenshteinLookup, FuzzyWuzzyLookup,
    QGramLookup, ElasticLookup, LSHStringLookup,
]
ROW_TABLE_SERVICES = [s for s in SERVICES if issubclass(s, RowTableLookup)]


@pytest.fixture(scope="module", params=SERVICES)
def service_class(request):
    return request.param


@pytest.fixture(scope="module")
def any_service(service_class, tiny_kg):
    return service_class.build(tiny_kg)


def indexed_rows(service, probes):
    """The (label, entity id) rows ``service`` holds, as a set."""
    if isinstance(service, ExactMatchLookup):
        rows = {(m, e) for m in probes for e in service.table.get(m)}
        assert len(service.table) == len({m for m, _ in rows})  # no other key
        return rows
    return set(zip(service.rows.labels, service.rows.entity_ids))


class TestCommonBehaviour:
    def test_boundary_tie_keeps_the_lowest_row(self, service_class):
        """Rows 0 and 1 tie at the k-th score: ``(score desc, row asc)``
        keeps row 0, whatever order a heap, set or dict met them in."""
        stem = "a long shared stem abc"
        kg = KnowledgeGraph()
        for row, tail in enumerate("xyd"):
            kg.add_entity(Entity(f"E{row}", stem + tail))
        service = service_class.build(kg)
        ranked = [c.entity_id for c in service.lookup(stem + "d", 3)]
        assert [c.entity_id for c in service.lookup(stem + "d", 2)] == ranked[:2]
        if service_class is not ExactMatchLookup:  # which finds only E2
            assert ranked == ["E2", "E0", "E1"]
            tied = service.lookup(stem + "d", 3)[1:]
            assert tied[0].score == tied[1].score

    def test_unknown_build_keyword_raises(self, service_class, tiny_kg):
        with pytest.raises(TypeError):
            service_class.build(tiny_kg, include_alias=True)

    @pytest.mark.parametrize("include_aliases", [False, True])
    def test_indexes_exactly_the_walkers_rows(
        self, service_class, tiny_kg, include_aliases
    ):
        want = set(tiny_kg.mention_rows(include_aliases))
        entities = list(tiny_kg.entities())
        assert len(want) >= len(entities)
        assert include_aliases == (len(want) > len(entities))
        service = service_class.build(tiny_kg, include_aliases=include_aliases)
        assert service.include_aliases is include_aliases
        every_mention = [m for m, _ in tiny_kg.mention_rows(True)]
        assert indexed_rows(service, every_mention) == want

    @pytest.mark.parametrize("cls", ROW_TABLE_SERVICES)
    def test_add_then_drop_entity_round_trips(self, cls, tiny_kg):
        service = cls.build(tiny_kg)
        # Queries with clear winners: BM25's corpus statistics go on
        # counting a blanked row, which may reorder near-ties.
        queries = ["germany", "germny", "berlin"]
        before = [
            [c.entity_id for c in row]
            for row in service.lookup_batch(queries, 5)
        ]
        rows = len(service.rows)
        service.add("Zorbletron ", "E-new")
        service.add("zorbletron prime", "E-new")
        assert service.rows.labels[rows] == "zorbletron"
        assert service.lookup("zorbletron", 5)[0].entity_id == "E-new"
        assert service.drop_entity("E-new") == 2
        assert service.drop_entity("E-new") == 0
        # Rows are blanked, not renumbered, and take no live row's place.
        assert len(service.rows) == rows + 2
        assert service.rows.entity_ids[rows:] == [None, None]
        after = [
            [c.entity_id for c in row]
            for row in service.lookup_batch(queries, 5)
        ]
        assert after == before
        assert "E-new" not in [
            c.entity_id for c in service.lookup("zorbletron", 5)
        ]

    def test_exact_label_found(self, any_service, tiny_kg):
        germany = next(iter(tiny_kg.exact_lookup("germany")))
        candidates = any_service.lookup("germany", 10)
        assert germany in [c.entity_id for c in candidates]

    def test_scores_descend(self, any_service):
        candidates = any_service.lookup("berlin", 10)
        scores = [c.score for c in candidates]
        assert scores == sorted(scores, reverse=True)

    def test_no_duplicate_entities(self, any_service):
        candidates = any_service.lookup("paris", 10)
        ids = [c.entity_id for c in candidates]
        assert len(ids) == len(set(ids))

    def test_k_respected(self, any_service):
        assert len(any_service.lookup("london", 3)) <= 3

    def test_batch_alignment(self, any_service):
        queries = ["germany", "france", "spain"]
        batch = any_service.lookup_batch(queries, 5)
        assert len(batch) == 3


class TestExactMatch:
    def test_misses_typos(self, tiny_kg):
        service = ExactMatchLookup.build(tiny_kg)
        assert service.lookup("germny", 10) == []

    def test_alias_index_option(self, tiny_kg):
        without = ExactMatchLookup.build(tiny_kg)
        with_aliases = ExactMatchLookup.build(tiny_kg, include_aliases=True)
        assert without.lookup("deutschland", 5) == []
        assert with_aliases.lookup("deutschland", 5) != []
        assert with_aliases.index_bytes() > without.index_bytes()


class TestLevenshtein:
    def test_tolerates_one_edit(self, tiny_kg):
        service = LevenshteinLookup.build(tiny_kg)
        germany = next(iter(tiny_kg.exact_lookup("germany")))
        assert germany in [c.entity_id for c in service.lookup("germny", 5)]

    def test_score_is_negative_distance(self, tiny_kg):
        service = LevenshteinLookup.build(tiny_kg)
        top = service.lookup("germany", 1)[0]
        assert top.score == 0.0  # exact match, distance 0


class TestFuzzyWuzzy:
    def test_token_reorder_matched(self, tiny_kg):
        """token_sort_ratio catches swapped words."""
        service = FuzzyWuzzyLookup.build(tiny_kg)
        gates = next(iter(tiny_kg.exact_lookup("bill gates")))
        assert gates in [c.entity_id for c in service.lookup("gates bill", 5)]


class TestQGram:
    def test_tolerates_typo(self, tiny_kg):
        service = QGramLookup.build(tiny_kg)
        germany = next(iter(tiny_kg.exact_lookup("germany")))
        assert germany in [c.entity_id for c in service.lookup("germani", 10)]

    def test_empty_query(self, tiny_kg):
        service = QGramLookup.build(tiny_kg)
        assert service.lookup("", 5) == []

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            QGramLookup(q=0)

    def test_boundary_ties_do_not_depend_on_str_hashing(self):
        """Short queries tie many rows at the k-th score; which of them
        are returned must not follow set iteration order, which moves
        with ``PYTHONHASHSEED``."""
        script = (
            "from repro.kg import SyntheticKGConfig, generate_kg\n"
            "from repro.lookup.qgram import QGramLookup\n"
            "kg = generate_kg(SyntheticKGConfig(num_entities=160, seed=5))\n"
            "service = QGramLookup.build(kg, include_aliases=True)\n"
            "labels = [e.label for e in kg.entities()]\n"
            "queries = [l[:3] for l in labels] + [l[:-1] + 'x' for l in labels]\n"
            "for k in (1, 3, 10):\n"
            "    print(service.lookup_batch(queries, k))\n"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] and outputs[0] == outputs[1]


class TestElastic:
    def test_fuzzy_expansion_recovers_typos(self, tiny_kg):
        service = ElasticLookup.build(tiny_kg)
        germany = next(iter(tiny_kg.exact_lookup("germany")))
        assert germany in [c.entity_id for c in service.lookup("germny", 10)]

    def test_fuzziness_zero_is_faster_but_weaker(self, tiny_kg):
        strict = ElasticLookup.build(tiny_kg, fuzziness=0)
        germany = next(iter(tiny_kg.exact_lookup("germany")))
        # Word channel misses, trigram channel may still catch it — but the
        # candidate score must be no better than with expansion.
        fuzzy = ElasticLookup.build(tiny_kg)
        def score_of(service):
            for c in service.lookup("germny", 10):
                if c.entity_id == germany:
                    return c.score
            return 0.0
        assert score_of(strict) <= score_of(fuzzy) + 1e-9

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            ElasticLookup(word_weight=-1)


class TestLSHString:
    def test_near_duplicate_found(self, tiny_kg):
        service = LSHStringLookup.build(tiny_kg)
        germany = next(iter(tiny_kg.exact_lookup("germany")))
        assert germany in [c.entity_id for c in service.lookup("germany", 5)]

    def test_bands_must_divide_hashes(self):
        with pytest.raises(ValueError):
            LSHStringLookup(num_hashes=10, bands=3)


class TestSimulatedRemote:
    def test_latency_accounted_not_slept(self, tiny_kg):
        import time

        service = SimulatedRemoteLookup.build(tiny_kg)
        start = time.perf_counter()
        service.lookup_batch(["germany"] * 100, 5)
        wall = time.perf_counter() - start
        assert service.simulated_latency > 1.0   # 100 queries / 5 parallel * 60ms
        assert wall < service.simulated_latency  # virtual, not real

    def test_knows_aliases(self, tiny_kg):
        """Remote endpoints index the full KG, aliases included."""
        service = SimulatedRemoteLookup.build(tiny_kg)
        germany = next(iter(tiny_kg.exact_lookup("germany")))
        assert germany in [
            c.entity_id for c in service.lookup("deutschland", 5)
        ]

    def test_rate_limit_floor(self):
        model = RemoteServiceModel(
            latency_seconds=0.001, max_parallel=100, requests_per_second=10
        )
        assert model.batch_latency(100) == pytest.approx(10.0)

    def test_wave_latency(self):
        model = RemoteServiceModel(
            latency_seconds=0.1, max_parallel=5, requests_per_second=1e9
        )
        assert model.batch_latency(12) == pytest.approx(0.3)  # 3 waves

    def test_model_validation(self):
        with pytest.raises(ValueError):
            RemoteServiceModel(latency_seconds=-1)
        with pytest.raises(ValueError):
            RemoteServiceModel(max_parallel=0)

    def test_zero_queries_free(self):
        assert RemoteServiceModel().batch_latency(0) == 0.0
