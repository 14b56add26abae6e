"""Integration tests for the EmbLookup pipeline (uses the session-scoped
``trained_service`` fixture to avoid retraining per test)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.config import EmbLookupConfig
from repro.core.pipeline import EmbLookup, LookupResult
from repro.index.flat import FlatIndex
from repro.index.pq import PQIndex
from repro.serving import LookupEngine


class TestLifecycle:
    def test_lookup_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            EmbLookup().lookup("germany")

    def test_build_index_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            EmbLookup().build_index()

    def test_fit_populates_components(self, trained_service):
        assert trained_service.model is not None
        assert trained_service.index is not None
        assert trained_service.encoder is not None
        assert len(trained_service.training_history) == (
            trained_service.config.epochs
        )


class TestLookup:
    def test_returns_k_results(self, trained_service):
        results = trained_service.lookup("germany", k=5)
        assert len(results) == 5
        assert all(isinstance(r, LookupResult) for r in results)

    def test_distances_sorted(self, trained_service):
        results = trained_service.lookup("berlin", k=10)
        distances = [r.distance for r in results]
        assert distances == sorted(distances)

    def test_exact_label_hits_top1(self, trained_service, tiny_kg):
        """A clean label should resolve to its own entity first."""
        hits = 0
        labels = [e.label for e in list(tiny_kg.entities())[:30]]
        for label in labels:
            results = trained_service.lookup(label, k=1)
            if tiny_kg.entity(results[0].entity_id).label == label:
                hits += 1
        assert hits >= 24  # homonyms make 100 % impossible

    def test_batch_matches_single(self, trained_service):
        queries = ["germany", "paris", "bill gates"]
        batch = trained_service.lookup_batch(queries, k=3)
        singles = [trained_service.lookup(q, k=3) for q in queries]
        assert [[r.entity_id for r in row] for row in batch] == [
            [r.entity_id for r in row] for row in singles
        ]

    def test_invalid_k(self, trained_service):
        with pytest.raises(ValueError):
            trained_service.lookup("x", k=0)

    def test_empty_batch(self, trained_service):
        assert trained_service.lookup_batch([], k=3) == []

    def test_queries_normalised(self, trained_service):
        upper = trained_service.lookup("GERMANY", k=3)
        lower = trained_service.lookup("germany", k=3)
        assert [r.entity_id for r in upper] == [r.entity_id for r in lower]


class TestIndexVariants:
    def test_pq_index_by_default(self, trained_service):
        assert isinstance(trained_service.index, PQIndex)

    def test_no_compression_uses_flat(self, tiny_kg):
        cfg = EmbLookupConfig(
            epochs=0, triplets_per_entity=2, fasttext_epochs=0,
            compression="none", seed=0,
        )
        service = EmbLookup(cfg)
        service.fit(tiny_kg)
        assert isinstance(service.index, FlatIndex)

    def test_alias_indexing_dedupes_entities(self, tiny_kg):
        cfg = EmbLookupConfig(
            epochs=0, triplets_per_entity=2, fasttext_epochs=0,
            compression="none", index_entity_aliases=True, seed=0,
        )
        service = EmbLookup(cfg)
        service.fit(tiny_kg)
        assert service.index.ntotal > tiny_kg.num_entities
        results = service.lookup("germany", k=10)
        ids = [r.entity_id for r in results]
        assert len(ids) == len(set(ids))


class TestTrainingBehaviour:
    def test_training_reduces_offline_loss(self, tiny_kg):
        """With hard mining disabled the mean epoch loss must decrease
        (online epochs average over *hard* triplets only, so their raw
        numbers are not comparable across the phase switch)."""
        cfg = EmbLookupConfig(
            epochs=4,
            hard_mining_start=1.0,  # stay offline for all epochs
            triplets_per_entity=6,
            fasttext_epochs=0,
            compression="none",
            seed=3,
        )
        service = EmbLookup(cfg)
        service.fit(tiny_kg)
        history = service.training_history
        assert history[-1] < history[0]

    def test_custom_triplets_accepted(self, tiny_kg):
        from repro.triplets.mining import Triplet

        cfg = EmbLookupConfig(
            epochs=1, fasttext_epochs=0, compression="none", seed=0
        )
        service = EmbLookup(cfg)
        triplets = [Triplet("germany", "germny", "france")] * 8
        service.fit(tiny_kg, triplets=triplets)
        assert service.index is not None


class TestPerFitMentionTable:
    """``_train`` encodes every distinct triplet mention once and gathers
    per batch; the reference loop below encodes each batch's strings
    afresh (``forward_mentions``), and must train to the same weights and
    losses, bit for bit."""

    @staticmethod
    def reference_train(self, triplets):
        from repro.nn.loss import triplet_margin_losses
        from repro.nn.optim import Adam
        from repro.nn.tensor import Tensor

        cfg = self.config
        optimizer = Adam(list(self.model.parameters()), lr=cfg.learning_rate)
        order = np.arange(len(triplets))
        hard_from = int(cfg.hard_mining_start * cfg.epochs)
        self.model.train()
        for epoch in range(cfg.epochs):
            self.rng.shuffle(order)
            epoch_loss, steps = 0.0, 0
            for start in range(0, len(order), cfg.batch_size):
                batch = [triplets[i] for i in order[start : start + cfg.batch_size]]
                size = len(batch)
                out = self.model.forward_mentions([t[j] for j in range(3) for t in batch])
                losses = triplet_margin_losses(
                    *(out[j * size : (j + 1) * size] for j in range(3)),
                    margin=cfg.margin,
                )
                if epoch < hard_from:
                    loss = losses.mean()
                else:
                    mask = (losses.data > 0).astype(losses.data.dtype)
                    if mask.sum() == 0:
                        continue
                    loss = (losses * Tensor(mask)).sum() * (1.0 / mask.sum())
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
                steps += 1
            self.training_history.append(epoch_loss / max(steps, 1))
        self.model.eval()

    @pytest.mark.parametrize("finetune", [False, True])
    def test_bit_equal_to_encoding_every_batch(self, tiny_kg, monkeypatch, finetune):
        cfg = EmbLookupConfig(
            epochs=2, triplets_per_entity=3, fasttext_epochs=1, batch_size=32,
            compression="none", finetune_fasttext=finetune, seed=4,
        )
        table = EmbLookup(cfg).fit(tiny_kg)
        monkeypatch.setattr(EmbLookup, "_train", self.reference_train)
        twin = EmbLookup(cfg).fit(tiny_kg)

        assert table.training_history == twin.training_history
        want = twin.model.state_dict()
        for name, value in table.model.state_dict().items():
            np.testing.assert_array_equal(value, want[name], err_msg=name)


class TestPersistence:
    def test_save_load_roundtrip(self, trained_service, tiny_kg, tmp_path):
        trained_service.save(tmp_path / "model")
        restored = EmbLookup.load(tmp_path / "model", tiny_kg)
        queries = ["germany", "berlni", "deutschland"]
        original = trained_service.lookup_batch(queries, k=5)
        loaded = restored.lookup_batch(queries, k=5)
        # Embeddings identical => same candidates (PQ retrain uses the same
        # derived seed, so even the compressed index agrees).
        for a, b in zip(original, loaded):
            assert {r.entity_id for r in a} == {r.entity_id for r in b}

    def test_every_config_field_survives_the_round_trip(self, tiny_kg, tmp_path):
        """No field comes back as its default (regression: ``save`` wrote a
        hand-picked subset, so e.g. ``query_cache_size`` loaded as 0)."""
        config = EmbLookupConfig(
            embedding_dim=32,
            max_length=24,
            epochs=1,
            batch_size=64,
            margin=0.3,
            loss="contrastive",
            learning_rate=2e-3,
            hard_mining_start=0.25,
            triplets_per_entity=2,
            compression="none",
            pq_m=4,
            pq_nbits=6,
            fasttext_epochs=1,
            fasttext_buckets=2**10,
            fasttext_objective="sgns",
            finetune_fasttext=True,
            normalize_output=False,
            index_entity_aliases=True,
            query_cache_size=64,
            seed=3,
        )
        defaults = EmbLookupConfig()
        for f in dataclasses.fields(config):
            assert getattr(config, f.name) != getattr(defaults, f.name), f.name
        service = EmbLookup(config)
        service.fit(tiny_kg)
        service.save(tmp_path / "model")
        restored = EmbLookup.load(tmp_path / "model", tiny_kg)
        assert restored.config == config
        with LookupEngine.from_pipeline(restored) as engine:
            assert engine.cache is not None

    def test_meta_without_the_newer_keys_still_loads(
        self, trained_service, tiny_kg, tmp_path
    ):
        """A ``meta.json`` from before every field was written opens, the
        absent fields at their defaults."""
        trained_service.save(tmp_path / "model")
        meta_path = tmp_path / "model" / "meta.json"
        meta = json.loads(meta_path.read_text())
        old_keys = (
            "embedding_dim", "max_length", "compression", "pq_m", "pq_nbits",
            "index_entity_aliases", "fasttext_buckets", "seed",
        )
        meta["config"] = {k: meta["config"][k] for k in old_keys}
        meta_path.write_text(json.dumps(meta))
        restored = EmbLookup.load(tmp_path / "model", tiny_kg)
        assert restored.config.normalize_output is True
        assert restored.config.query_cache_size == 0
        assert restored.lookup("germany", k=3)

    def test_save_before_fit_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            EmbLookup().save(tmp_path)

    def test_load_missing_raises(self, tmp_path, tiny_kg):
        with pytest.raises(FileNotFoundError):
            EmbLookup.load(tmp_path / "absent", tiny_kg)
