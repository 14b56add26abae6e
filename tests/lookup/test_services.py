"""Behavioural tests for the eight baseline lookup services.

Each service has a characteristic accuracy/robustness profile the paper's
Table V depends on; these tests pin those profiles on the shared KG.
"""

import os
import subprocess
import sys

import pytest

from repro.lookup.elastic import ElasticLookup
from repro.lookup.exact import ExactMatchLookup
from repro.lookup.fuzzy import FuzzyWuzzyLookup
from repro.lookup.levenshtein import LevenshteinLookup
from repro.lookup.lsh_lookup import LSHStringLookup
from repro.lookup.qgram import QGramLookup
from repro.lookup.remote import RemoteServiceModel, SimulatedRemoteLookup


@pytest.fixture(scope="module", params=[
    ExactMatchLookup, LevenshteinLookup, FuzzyWuzzyLookup,
    QGramLookup, ElasticLookup, LSHStringLookup,
])
def any_service(request, tiny_kg):
    return request.param.build(tiny_kg)


class TestCommonBehaviour:
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
