"""Tests for the fastText-style subword model."""

import numpy as np
import pytest

from repro.embedding.fasttext import FastTextConfig, FastTextModel, subword_ngrams
from repro.text.tokenize import word_tokens


class TestSubwordNgrams:
    def test_includes_whole_word_and_ngrams(self):
        ids = subword_ngrams("berlin", min_n=3, max_n=3, buckets=1000)
        # <berlin> has 6 trigrams + 1 whole word = 7 ids.
        assert len(ids) == 7

    def test_stable_hashing(self):
        assert subword_ngrams("germany") == subword_ngrams("germany")

    def test_bucket_range(self):
        ids = subword_ngrams("knowledge graph", buckets=64)
        assert all(0 <= i < 64 for i in ids)

    def test_shared_ngrams_under_typo(self):
        """A one-letter typo must preserve most subword ids — the property
        that gives fastText partial typo robustness."""
        clean = set(subword_ngrams("germany"))
        typo = set(subword_ngrams("germany".replace("m", "n")))
        assert len(clean & typo) >= len(clean) // 3

    def test_streaming_hash_matches_per_gram_hash(self):
        """The ids are FNV-1a of each n-gram hashed from its first byte,
        in the order whole word, n = min_n, ..., max_n — what saved models
        and built indexes were hashed with."""

        def fnv1a(text):
            value = 0xCBF29CE484222325
            for byte in text.encode("utf-8"):
                value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            return value

        def reference(mention, min_n, max_n, buckets):
            ids = []
            for word in word_tokens(mention):
                wrapped = f"<{word}>"
                ids.append(fnv1a(wrapped) % buckets)
                for n in range(min_n, max_n + 1):
                    for i in range(len(wrapped) - n + 1):
                        ids.append(fnv1a(wrapped[i : i + n]) % buckets)
            return ids

        mentions = ["germany", "a", "it's 4 o'clock", "New  York-City", "Müller"]
        for min_n, max_n, buckets in [(3, 5, 2**16), (1, 1, 7), (2, 6, 1000), (4, 4, 97)]:
            for mention in mentions:
                assert subword_ngrams(mention, min_n, max_n, buckets) == reference(
                    mention, min_n, max_n, buckets
                )

    def test_empty_string(self):
        assert subword_ngrams("") == []

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            subword_ngrams("x", min_n=4, max_n=2)

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            subword_ngrams("x", buckets=0)


class TestFastTextModel:
    def test_embed_shape(self):
        model = FastTextModel(FastTextConfig(dim=16, epochs=0))
        out = model.embed(["berlin", "paris"])
        assert out.shape == (2, 16)

    def test_empty_input(self):
        model = FastTextModel(FastTextConfig(dim=16))
        assert model.embed([]).shape == (0, 16)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FastTextConfig(dim=0)
        with pytest.raises(ValueError):
            FastTextConfig(negatives=0)

    def test_training_pulls_synonyms_together(self):
        """After fit, an entity's alias must be closer to its label than
        a random other label (the semantic tower's contract)."""
        groups = [
            ["germany", "deutschland"],
            ["france", "republique francaise"],
            ["spain", "espana"],
            ["japan", "nippon"],
            ["china", "zhongguo"],
            ["russia", "rossiya"],
        ]
        model = FastTextModel(FastTextConfig(dim=32, epochs=30, seed=0, lr=0.05))
        model.fit(groups)
        wins = 0
        for label, alias in groups:
            e_label = model.embed([label])[0]
            e_alias = model.embed([alias])[0]
            d_alias = ((e_label - e_alias) ** 2).sum()
            d_others = [
                ((e_label - model.embed([other])[0]) ** 2).sum()
                for other, _ in groups
                if other != label
            ]
            if d_alias < min(d_others):
                wins += 1
        assert wins >= 4

    def test_fit_marks_trained(self):
        model = FastTextModel(FastTextConfig(epochs=0))
        assert not model.is_trained
        model.fit([["a", "b"]])
        assert model.is_trained

    def test_handles_unseen_words(self):
        """Hashing keeps the model open-vocabulary: no crash, finite output."""
        model = FastTextModel(FastTextConfig(dim=8, epochs=1, seed=1))
        model.fit([["alpha", "beta"]])
        out = model.embed(["never seen before zzz"])
        assert np.isfinite(out).all()


class TestAnchoredFitExactness:
    """The bucket table ``fit_anchored`` trains — row-restricted Adam over a
    one-scatter ``EmbeddingBag`` — is the one the dense reference trains
    (a per-bag ``mean`` / ``np.add.at`` layer and an every-row Adam step),
    bit for bit."""

    GROUPS = [
        ["germany", "deutschland", "frg", "federal republic of germany"],
        ["france", "french republic"],
        ["new york city", "nyc", "big apple"],
        ["x"],
        [""],
        ["berlin", "berlin city", "berlín"],
    ]

    def test_bit_equal_to_the_dense_reference(self, monkeypatch):
        from repro.nn import layers, optim

        def config():
            return FastTextConfig(dim=8, buckets=2**9, epochs=4, batch_size=5, seed=3)

        fast = FastTextModel(config()).fit_anchored(self.GROUPS)

        def per_bag(self, bags):
            weight = self.weight
            out = np.zeros((len(bags), self.embedding_dim), dtype=weight.data.dtype)
            rows = [np.asarray(bag, dtype=np.int64) for bag in bags]
            for b, ids in enumerate(rows):
                if ids.size:
                    out[b] = weight.data[ids].mean(axis=0)

            def backward(grad):
                grad_weight = np.zeros_like(weight.data)
                for b, ids in enumerate(rows):
                    if ids.size:
                        np.add.at(grad_weight, ids, grad[b] / ids.size)
                return (grad_weight,)

            return weight._make(out, (weight,), backward)

        def dense_step(self):
            self._step_count += 1
            t = self._step_count
            for param, m, v in zip(self.parameters, self._m, self._v):
                grad = param.grad
                m *= self.beta1
                m += (1.0 - self.beta1) * grad
                v *= self.beta2
                v += (1.0 - self.beta2) * grad * grad
                m_hat = m / (1.0 - self.beta1**t)
                v_hat = v / (1.0 - self.beta2**t)
                param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

        monkeypatch.setattr(layers.EmbeddingBag, "forward_bags", per_bag)
        monkeypatch.setattr(optim.Adam, "step", dense_step)
        reference = FastTextModel(config()).fit_anchored(self.GROUPS)
        moved = (fast.bag.weight.data != FastTextModel(config()).bag.weight.data).any(axis=1)
        assert 0 < moved.sum() < 2**9            # some rows trained, most untouched
        np.testing.assert_array_equal(fast.bag.weight.data, reference.bag.weight.data)

