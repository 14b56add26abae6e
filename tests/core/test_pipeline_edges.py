"""Edge-case behaviour of the EmbLookup pipeline."""

import numpy as np
import pytest

from repro.core.config import EmbLookupConfig
from repro.core.pipeline import EmbLookup


class TestQueryEdgeCases:
    def test_empty_string_query(self, trained_service):
        """An empty query embeds to *something* and returns k candidates
        rather than crashing (all-padding one-hot input)."""
        results = trained_service.lookup("", k=5)
        assert len(results) == 5

    def test_very_long_query_truncated(self, trained_service):
        long_query = "germany" * 50
        results = trained_service.lookup(long_query, k=3)
        assert len(results) == 3

    def test_unicode_query_normalised(self, trained_service, tiny_kg):
        germany = next(iter(tiny_kg.exact_lookup("germany")))
        accented = trained_service.lookup("Gérmany", k=5)
        assert germany in [r.entity_id for r in accented]

    def test_out_of_alphabet_characters(self, trained_service):
        """Characters unseen at alphabet-fit time map to the unknown row."""
        results = trained_service.lookup("日本 germany", k=3)
        assert len(results) == 3

    def test_k_exceeding_corpus(self, trained_service, tiny_kg):
        results = trained_service.lookup("germany", k=10_000)
        assert len(results) == tiny_kg.num_entities

    def test_whitespace_only_query(self, trained_service):
        assert len(trained_service.lookup("   ", k=2)) == 2


class TestConfigInteractions:
    def test_zero_epochs_still_functional(self, tiny_kg):
        """Untrained (random CNN + pre-trained fastText) still answers —
        the pipeline must degrade, not break."""
        service = EmbLookup(
            EmbLookupConfig(
                epochs=0, triplets_per_entity=2, fasttext_epochs=1,
                compression="none", seed=0,
            )
        )
        service.fit(tiny_kg)
        assert len(service.lookup("germany", k=5)) == 5

    def test_normalized_embeddings_unit_length(self, trained_service):
        vectors = trained_service.model.embed(["germany", "berlin", "x"])
        norms = np.linalg.norm(vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-4)

    def test_unnormalized_option(self, tiny_kg):
        service = EmbLookup(
            EmbLookupConfig(
                epochs=0, triplets_per_entity=2, fasttext_epochs=0,
                compression="none", normalize_output=False, seed=0,
            )
        )
        service.fit(tiny_kg)
        vectors = service.model.embed(["germany", "berlin"])
        norms = np.linalg.norm(vectors, axis=1)
        assert not np.allclose(norms, 1.0, atol=1e-3)
