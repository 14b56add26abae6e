"""Tests for repro.nn.loss (triplet margin loss and friends)."""

import numpy as np
import pytest

from tests.support.gradcheck import gradcheck
from repro.nn.loss import (
    cross_entropy_loss,
    mse_loss,
    pairwise_squared_distance,
    triplet_margin_loss,
    triplet_margin_losses,
)
from repro.nn.tensor import Tensor


def leaf(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


class TestPairwiseSquaredDistance:
    def test_values(self):
        a = Tensor(np.array([[0.0, 0.0], [1.0, 1.0]]))
        b = Tensor(np.array([[3.0, 4.0], [1.0, 1.0]]))
        np.testing.assert_array_equal(
            pairwise_squared_distance(a, b).data, [25.0, 0.0]
        )


class TestTripletLoss:
    def test_zero_when_margin_satisfied(self):
        anchor = Tensor(np.zeros((2, 3)))
        positive = Tensor(np.zeros((2, 3)))
        negative = Tensor(np.full((2, 3), 10.0))
        assert triplet_margin_loss(anchor, positive, negative, margin=1.0).item() == 0.0

    def test_paper_equation_value(self):
        """L = max(||a-p||^2 - ||a-n||^2 + margin, 0)."""
        anchor = Tensor(np.array([[0.0, 0.0]]))
        positive = Tensor(np.array([[1.0, 0.0]]))   # d_pos = 1
        negative = Tensor(np.array([[0.0, 1.0]]))   # d_neg = 1
        loss = triplet_margin_loss(anchor, positive, negative, margin=0.5)
        assert loss.item() == pytest.approx(0.5)

    def test_per_triplet_losses_shape(self):
        losses = triplet_margin_losses(leaf((5, 4), 1), leaf((5, 4), 2), leaf((5, 4), 3))
        assert losses.shape == (5,)
        assert (losses.data >= 0).all()

    def test_margin_must_be_positive(self):
        z = Tensor(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            triplet_margin_loss(z, z, z, margin=0.0)

    def test_gradcheck(self):
        a, p, n = leaf((3, 4), 4), leaf((3, 4), 5), leaf((3, 4), 6)
        assert gradcheck(
            lambda: triplet_margin_loss(a, p, n, margin=1.0), [a, p, n]
        )

    def test_gradient_pulls_positive_closer(self):
        """One SGD step on the loss must reduce d(a, p) - d(a, n)."""
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        p = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        n = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        def gap():
            d_pos = ((a.data - p.data) ** 2).sum()
            d_neg = ((a.data - n.data) ** 2).sum()
            return d_pos - d_neg
        before = gap()
        triplet_margin_loss(a, p, n, margin=5.0).backward()
        for t in (a, p, n):
            t.data -= 0.05 * t.grad
        assert gap() < before


class TestMseLoss:
    def test_zero_on_equal(self):
        x = Tensor(np.ones((2, 2)))
        assert mse_loss(x, Tensor(np.ones((2, 2)))).item() == 0.0

    def test_value(self):
        pred = Tensor(np.array([1.0, 3.0]))
        target = Tensor(np.array([0.0, 0.0]))
        assert mse_loss(pred, target).item() == pytest.approx(5.0)

    def test_gradcheck(self):
        pred = leaf((4, 2), 8)
        target = Tensor(np.zeros((4, 2)))
        assert gradcheck(lambda: mse_loss(pred, target), [pred])


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = cross_entropy_loss(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_uniform_prediction(self):
        logits = Tensor(np.zeros((3, 4)))
        loss = cross_entropy_loss(logits, np.array([0, 1, 2]))
        assert loss.item() == pytest.approx(np.log(4))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(Tensor(np.zeros((2, 3))), np.array([0]))
        with pytest.raises(ValueError):
            cross_entropy_loss(Tensor(np.zeros(3)), np.array([0]))

    def test_gradcheck(self):
        logits = leaf((4, 3), 9)
        targets = np.array([0, 2, 1, 1])
        assert gradcheck(lambda: cross_entropy_loss(logits, targets), [logits])
