"""Tests for the dual-tower EmbLookup model."""

import numpy as np
import pytest

from repro.embedding.emblookup_model import EmbLookupModel
from repro.embedding.fasttext import FastTextConfig, FastTextModel
from repro.text.alphabet import Alphabet
from repro.text.encoding import OneHotEncoder

ENCODER = OneHotEncoder(Alphabet("abcdefghijklmnopqrstuvwxyz "), max_length=12)


def make_model(finetune=False, out_dim=16):
    fasttext = FastTextModel(FastTextConfig(dim=16, epochs=0, seed=0))
    fasttext.fit([["germany", "deutschland"]])
    return EmbLookupModel(
        ENCODER, fasttext, out_dim=out_dim, finetune_fasttext=finetune, rng=0
    )


class TestForward:
    def test_embed_shape(self):
        model = make_model()
        assert model.embed(["berlin", "paris"]).shape == (2, 16)

    def test_empty(self):
        assert make_model().embed([]).shape == (0, 16)

    def test_dim_property(self):
        assert make_model(out_dim=24).dim == 24

    def test_deterministic(self):
        np.testing.assert_array_equal(
            make_model().embed(["berlin"]), make_model().embed(["berlin"])
        )

    def test_forward_raises_on_tensor_call(self):
        with pytest.raises(TypeError):
            make_model()(None)


class TestParameterFreezing:
    def test_fasttext_frozen_by_default(self):
        model = make_model(finetune=False)
        names_trainable = {
            id(p) for p in model.parameters()
        }
        fasttext_params = {id(p) for _, p in model.fasttext.named_parameters()}
        assert not (names_trainable & fasttext_params)

    def test_fasttext_trainable_when_finetuning(self):
        model = make_model(finetune=True)
        trainable = {id(p) for p in model.parameters()}
        fasttext_params = {id(p) for _, p in model.fasttext.named_parameters()}
        assert fasttext_params <= trainable

    def test_state_dict_includes_both_towers(self):
        state = make_model().state_dict()
        assert any(name.startswith("cnn.") for name in state)
        assert any(name.startswith("fasttext.") for name in state)
        assert any(name.startswith("fuse1.") for name in state)

    def test_state_dict_roundtrip(self):
        a = make_model()
        b = make_model()
        # Perturb then restore.
        for param in b.fuse1.weight, b.fuse2.weight:
            param.data += 1.0
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(
            a.embed(["berlin"]), b.embed(["berlin"])
        )


class TestGradientFlow:
    def test_triplet_step_changes_output(self):
        from repro.nn.loss import triplet_margin_loss
        from repro.nn.optim import Adam

        model = make_model()
        before = model.embed(["berlin"]).copy()
        optimizer = Adam(list(model.parameters()), lr=1e-2)
        a = model.forward_mentions(["berlin"])
        p = model.forward_mentions(["berlni"])
        n = model.forward_mentions(["madrid"])
        loss = triplet_margin_loss(a, p, n, margin=5.0)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        after = model.embed(["berlin"])
        assert not np.allclose(before, after)


class TestMentionInputs:
    """Each row of ``mention_inputs`` is a pure function of its string:
    gathered rows are what encoding those strings alone gives."""

    MENTIONS = ["berlin", "Berlin!", "", "new york", "berlin", "a much longer label"]

    @pytest.mark.parametrize("finetune", [False, True])
    def test_rows_are_bit_equal_to_encoding_the_batch(self, finetune):
        from repro.text.tokenize import normalize

        model = make_model(finetune=finetune)
        inputs = model.mention_inputs(self.MENTIONS)
        for rows in ([0], [3, 1, 3], [5, 2, 0, 4]):
            batch = [self.MENTIONS[i] for i in rows]
            np.testing.assert_array_equal(inputs.codes[rows], ENCODER.encode_codes(batch))
            if finetune:
                assert [inputs.semantic[i] for i in rows] == model.fasttext.bags(
                    [normalize(m) for m in batch]
                )
            else:
                np.testing.assert_array_equal(
                    inputs.semantic[rows], model.fasttext.embed(batch)
                )
            np.testing.assert_array_equal(
                model.forward_rows(inputs, np.array(rows)).data,
                model.forward_mentions(batch).data,
            )

