"""Tests for the contrastive-loss alternative (paper future work)."""

import numpy as np
import pytest

from tests.support.gradcheck import gradcheck
from repro.nn.loss import contrastive_losses
from repro.nn.tensor import Tensor


def leaf(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


class TestContrastiveLosses:
    def test_zero_when_pairs_ideal(self):
        anchor = Tensor(np.zeros((2, 3)))
        positive = Tensor(np.zeros((2, 3)))
        negative = Tensor(np.full((2, 3), 10.0))
        losses = contrastive_losses(anchor, positive, negative, margin=1.0)
        np.testing.assert_array_equal(losses.data, [0.0, 0.0])

    def test_value_decomposition(self):
        """loss = d(a,p) + max(margin - d(a,n), 0)."""
        anchor = Tensor(np.array([[0.0, 0.0]]))
        positive = Tensor(np.array([[1.0, 0.0]]))   # d_pos = 1
        negative = Tensor(np.array([[0.0, 0.5]]))   # d_neg = 0.25
        losses = contrastive_losses(anchor, positive, negative, margin=1.0)
        assert losses.data[0] == pytest.approx(1.0 + 0.75)

    def test_margin_validation(self):
        z = Tensor(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            contrastive_losses(z, z, z, margin=0.0)

    def test_gradcheck(self):
        a, p, n = leaf((4, 3), 1), leaf((4, 3), 2), leaf((4, 3), 3)
        assert gradcheck(
            lambda: contrastive_losses(a, p, n, margin=1.0).mean(), [a, p, n]
        )

    def test_differs_from_triplet_on_satisfied_margin(self):
        """Contrastive keeps pulling positives even when the triplet
        ordering is already satisfied — the behavioural difference."""
        anchor = Tensor(np.array([[0.0, 0.0]]))
        positive = Tensor(np.array([[2.0, 0.0]]))   # d_pos = 4
        negative = Tensor(np.array([[0.0, 10.0]]))  # d_neg = 100
        from repro.nn.loss import triplet_margin_losses

        triplet = triplet_margin_losses(anchor, positive, negative, margin=1.0)
        contrastive = contrastive_losses(anchor, positive, negative, margin=1.0)
        assert triplet.data[0] == 0.0
        assert contrastive.data[0] > 0.0


class TestPipelineIntegration:
    def test_contrastive_config_trains(self, tiny_kg):
        from repro.core.config import EmbLookupConfig
        from repro.core.pipeline import EmbLookup

        service = EmbLookup(
            EmbLookupConfig(
                epochs=1, triplets_per_entity=3, fasttext_epochs=0,
                compression="none", loss="contrastive", seed=0,
            )
        )
        service.fit(tiny_kg)
        assert len(service.lookup("germany", k=3)) == 3

    def test_unknown_loss_rejected(self):
        from repro.core.config import EmbLookupConfig

        with pytest.raises(ValueError):
            EmbLookupConfig(loss="infonce")
