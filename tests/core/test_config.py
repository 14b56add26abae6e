"""Tests for EmbLookupConfig."""

import pytest

from repro.core.config import EmbLookupConfig


class TestValidation:
    def test_defaults_valid(self):
        EmbLookupConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"embedding_dim": 0},
            {"embedding_dim": 60, "pq_m": 8},  # not divisible
            {"max_length": 0},
            {"epochs": -1},
            {"batch_size": 0},
            {"margin": 0.0},
            {"hard_mining_start": 1.5},
            {"compression": "zip"},
            {"compression": "ivfpq"},  # an offline baseline, not an option
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EmbLookupConfig(**kwargs)

    def test_mining_config_derived(self):
        cfg = EmbLookupConfig(triplets_per_entity=33, seed=5)
        assert cfg.mining.triplets_per_entity == 33
        assert cfg.mining.seed == 5

    def test_paper_defaults(self):
        cfg = EmbLookupConfig.paper_defaults()
        assert cfg.embedding_dim == 64
        assert cfg.epochs == 100
        assert cfg.batch_size == 128
        assert cfg.triplets_per_entity == 100
        assert cfg.compression == "pq"
        # 64-d float32 = 256 bytes compressed to pq_m = 8 bytes.
        assert cfg.embedding_dim * 4 == 256
        assert cfg.pq_m == 8

    def test_frozen(self):
        cfg = EmbLookupConfig()
        with pytest.raises(AttributeError):
            cfg.epochs = 5
