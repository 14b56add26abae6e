"""Tests for the character-CNN tower."""

import numpy as np
import pytest

from repro.embedding.cnn import CharCNNEncoder
from repro.nn.loss import triplet_margin_loss
from repro.nn.optim import Adam
from repro.text.alphabet import Alphabet
from repro.text.encoding import OneHotEncoder

ENCODER = OneHotEncoder(Alphabet("abcdefghijklmnopqrstuvwxyz "), max_length=16)


class TestArchitecture:
    def test_output_shape(self):
        cnn = CharCNNEncoder(ENCODER, out_dim=32, rng=0)
        out = cnn.embed(["berlin", "paris", "x"])
        assert out.shape == (3, 32)

    def test_paper_defaults(self):
        """5 conv layers x 8 kernels of size 3 (Section III-B)."""
        cnn = CharCNNEncoder(ENCODER, rng=0)
        assert cnn.num_layers == 5
        assert cnn.channels == 8
        assert all(conv.kernel_size == 3 for conv in cnn._convs)

    def test_empty_batch(self):
        cnn = CharCNNEncoder(ENCODER, out_dim=16, rng=0)
        assert cnn.embed([]).shape == (0, 16)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            CharCNNEncoder(ENCODER, num_layers=0)

    def test_deterministic_given_seed(self):
        a = CharCNNEncoder(ENCODER, rng=3).embed(["berlin"])
        b = CharCNNEncoder(ENCODER, rng=3).embed(["berlin"])
        np.testing.assert_array_equal(a, b)

    def test_embed_dtype(self):
        assert CharCNNEncoder(ENCODER, rng=0).embed(["a"]).dtype == np.float32


class TestSyntacticInductiveBias:
    def test_trains_to_separate_typos_from_strangers(self):
        """A few steps of triplet training must order a typo closer to its
        source than an unrelated word — the CNN's raison d'etre."""
        rng = np.random.default_rng(0)
        cnn = CharCNNEncoder(ENCODER, out_dim=16, rng=rng)
        words = ["berlin", "paris", "london", "madrid", "vienna", "warsaw"]
        typos = {"berlin": "berlni", "paris": "pariss", "london": "lndon",
                 "madrid": "madird", "vienna": "vienaa", "warsaw": "warsw"}
        optimizer = Adam(list(cnn.parameters()), lr=3e-3)
        for _ in range(60):
            anchors, positives, negatives = [], [], []
            for word in words:
                anchors.append(word)
                positives.append(typos[word])
                negatives.append(words[int(rng.integers(0, len(words)))])
            a = cnn(ENCODER.encode_codes(anchors))
            p = cnn(ENCODER.encode_codes(positives))
            n = cnn(ENCODER.encode_codes(negatives))
            loss = triplet_margin_loss(a, p, n, margin=1.0)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

        emb = {w: cnn.embed([w])[0] for w in words}
        typo_emb = {w: cnn.embed([typos[w]])[0] for w in words}
        wins = 0
        for word in words:
            d_typo = ((emb[word] - typo_emb[word]) ** 2).sum()
            others = [
                ((emb[word] - emb[o]) ** 2).sum() for o in words if o != word
            ]
            if d_typo < min(others):
                wins += 1
        assert wins >= 4
