"""The inference forward reads live weights and is re-entrant.

Numerical equivalence with the autograd forward over generated labels is
``tests/property/test_differential.py::TestInferenceForwardDifferential``;
here the weights move under a model that has already embedded once, and
two threads embed at the same time.
"""

import sys
import threading

import numpy as np

from repro.embedding.emblookup_model import EmbLookupModel
from repro.embedding.fasttext import FastTextConfig, FastTextModel
from repro.nn.loss import triplet_margin_loss
from repro.nn.optim import Adam
from repro.nn.tensor import no_grad
from repro.text.alphabet import Alphabet
from repro.text.encoding import OneHotEncoder

ENCODER = OneHotEncoder(Alphabet("abcdefghijklmnopqrstuvwxyz "), max_length=12)
MENTIONS = ["berlin", "berlni", "madrid", "new york", "", "a much longer label"]
#: float32 summation-order bound; see TestInferenceForwardDifferential.
ATOL = 1e-6


def make_model(finetune=False, seed=0):
    fasttext = FastTextModel(FastTextConfig(dim=16, epochs=0, seed=seed))
    return EmbLookupModel(
        ENCODER, fasttext, out_dim=16, finetune_fasttext=finetune, rng=seed
    )


def autograd_forward(model, mentions):
    with no_grad():
        return model.forward_mentions(list(mentions)).data


def assert_tracks_autograd(model, stale):
    got = model.embed(MENTIONS)
    np.testing.assert_allclose(
        got, autograd_forward(model, MENTIONS), rtol=0, atol=ATOL
    )
    assert np.abs(got - stale).max() > 1e-3, "weights did not move"


class TestLiveWeights:
    def test_after_an_optimizer_step(self):
        """Every tower's weights move (fastText fine-tuned): nothing the
        first ``embed`` computed may survive the step."""
        model = make_model(finetune=True)
        stale = model.embed(MENTIONS)
        optimizer = Adam(list(model.parameters()), lr=1e-2)
        loss = triplet_margin_loss(
            model.forward_mentions(["berlin"]),
            model.forward_mentions(["berlni"]),
            model.forward_mentions(["madrid"]),
            margin=5.0,
        )
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        assert_tracks_autograd(model, stale)

    def test_after_load_state_dict(self):
        model = make_model()
        stale = model.embed(MENTIONS)
        model.load_state_dict(make_model(seed=3).state_dict())
        assert_tracks_autograd(model, stale)
        np.testing.assert_array_equal(
            model.embed(MENTIONS), make_model(seed=3).embed(MENTIONS)
        )

    def test_after_pipeline_save_load(self, trained_service, tiny_kg, tmp_path):
        from repro.core.pipeline import EmbLookup

        queries = ["germany", "germony", "federal republic", "x"]
        want = trained_service.embed_queries(queries)
        # The serving engine reads these rows' bytes back as float32.
        assert want.dtype == np.float32 and want.flags.c_contiguous
        assert want.shape == (len(queries), trained_service.config.embedding_dim)
        trained_service.save(tmp_path)
        restored = EmbLookup.load(tmp_path, tiny_kg)
        np.testing.assert_array_equal(restored.embed_queries(queries), want)
        np.testing.assert_allclose(
            want, autograd_forward(restored.model, queries), rtol=0, atol=ATOL
        )


class TestReentrancy:
    def test_concurrent_embeds_return_the_serial_rows(self):
        """No workspace is shared between calls: two threads embedding
        different batches (of different sizes) get what serial calls get."""
        model = make_model()
        batches = [MENTIONS, [m + " x" for m in reversed(MENTIONS)] * 3]
        want = [model.embed(batch) for batch in batches]
        mismatches: list[int] = []
        start = threading.Barrier(len(batches))

        def worker(which):
            start.wait(timeout=30)
            for _ in range(300):
                if not np.array_equal(model.embed(batches[which]), want[which]):
                    mismatches.append(which)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(len(batches))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
