"""Gradient property tests at the autograd layer's edge configurations.

Seeded through :func:`tests.support.strategies.case_rng` so every case is
replayable; the targets are the configurations the plain gradcheck suite
skips: conv1d with the kernel spanning the whole input and stride/padding
extremes, embedding bags containing *empty* bags, and the triplet margin
loss just off its hinge kink (at the kink the subgradient is legitimately
ambiguous, so we test both sides at a distance ``delta`` much larger than
the finite-difference step).
"""

import numpy as np
import pytest

from repro.nn import functional as F
from tests.support.gradcheck import gradcheck
from repro.nn.layers import EmbeddingBag
from repro.nn.loss import triplet_margin_loss
from repro.nn.tensor import Tensor
from tests.support.strategies import case_rng


def leaf(rng, shape, scale=0.5):
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True)


class TestConv1dEdges:
    @pytest.mark.parametrize(
        "length,kernel,stride,padding",
        [
            (5, 5, 1, 0),   # kernel spans the whole input: out_len == 1
            (7, 3, 3, 0),   # stride skips positions; last window truncated
            (6, 3, 2, 2),   # stride with padding
            (4, 4, 4, 0),   # stride == kernel == length
            (3, 3, 1, 2),   # padding wider than the remaining input
        ],
    )
    def test_gradcheck_stride_kernel_edges(
        self, length, kernel, stride, padding
    ):
        rng = case_rng(31, length * 100 + kernel * 10 + stride)
        x = leaf(rng, (2, 2, length))
        w = leaf(rng, (3, 2, kernel))
        b = leaf(rng, (3,))
        assert gradcheck(
            lambda: (
                F.conv1d(x, w, b, stride=stride, padding=padding) ** 2
            ).sum()
            * 0.1,
            [x, w, b],
        )

    def test_gradcheck_single_channel_single_batch(self):
        rng = case_rng(31, 999)
        x = leaf(rng, (1, 1, 2))
        w = leaf(rng, (1, 1, 2))
        assert gradcheck(lambda: (F.conv1d(x, w) ** 2).sum(), [x, w])


class TestEmbeddingBagEdges:
    def test_gradcheck_with_empty_bags(self):
        """Empty bags contribute zero rows and must not corrupt the
        gradient of their non-empty neighbours."""
        rng = case_rng(37, 0)
        bag_layer = EmbeddingBag(6, 3, rng=rng)
        bags = [[0, 1], [], [2, 2, 5], []]
        assert gradcheck(
            lambda: (bag_layer.forward_bags(bags) ** 2).sum() * 0.5,
            [bag_layer.weight],
        )

    def test_all_bags_empty_gives_zero_output_and_gradient(self):
        rng = case_rng(37, 1)
        bag_layer = EmbeddingBag(4, 3, rng=rng)
        out = bag_layer.forward_bags([[], []])
        assert (out.data == 0).all()
        (out**2).sum().backward()
        assert (bag_layer.weight.grad == 0).all()

    def test_gradcheck_repeated_indices_accumulate(self):
        """The same row appearing twice in one bag (and across bags) must
        accumulate gradient, not overwrite it."""
        rng = case_rng(37, 2)
        bag_layer = EmbeddingBag(3, 2, rng=rng)
        bags = [[0, 0, 1], [1, 2], [0]]
        assert gradcheck(
            lambda: (bag_layer.forward_bags(bags) ** 2).sum() * 0.5,
            [bag_layer.weight],
        )


class TestTripletMarginBoundary:
    #: Hinge offset: far larger than gradcheck's 1e-5 finite-difference
    #: step, far smaller than the margin.
    DELTA = 1e-2

    def _triplet_at_offset(self, offset, margin=1.0, seed_index=0):
        """Anchor/positive/negative with ``d_pos - d_neg + margin == offset``.

        Built in closed form: anchor at the origin, positive at distance²
        ``p``, negative at distance² ``p + margin - offset``.
        """
        rng = case_rng(41, seed_index)
        dim = 4
        p = 0.5
        n = p + margin - offset
        anchor = Tensor(np.zeros((1, dim)), requires_grad=True)
        positive_vec = np.zeros((1, dim))
        positive_vec[0, 0] = np.sqrt(p)
        negative_vec = np.zeros((1, dim))
        negative_vec[0, 1] = np.sqrt(n)
        positive = Tensor(positive_vec, requires_grad=True)
        negative = Tensor(negative_vec, requires_grad=True)
        # A small random rotation-free jitter on the anchor keeps the
        # gradients generic without moving the hinge argument.
        del rng
        return anchor, positive, negative

    def test_gradcheck_just_inside_hinge(self):
        """Active hinge (loss > 0): gradients flow to all three towers."""
        anchor, positive, negative = self._triplet_at_offset(self.DELTA)
        assert gradcheck(
            lambda: triplet_margin_loss(anchor, positive, negative),
            [anchor, positive, negative],
        )

    def test_gradcheck_just_outside_hinge(self):
        """Inactive hinge (clamped at 0): gradients are identically zero
        and the finite difference agrees."""
        anchor, positive, negative = self._triplet_at_offset(-self.DELTA)
        assert gradcheck(
            lambda: triplet_margin_loss(anchor, positive, negative),
            [anchor, positive, negative],
        )
        loss = triplet_margin_loss(anchor, positive, negative)
        loss.backward()
        assert float(loss.data) == 0.0
        assert (anchor.grad == 0).all()

    def test_hinge_argument_is_where_we_put_it(self):
        """Sanity-pin the closed-form construction on both sides."""
        for offset in (self.DELTA, -self.DELTA):
            anchor, positive, negative = self._triplet_at_offset(offset)
            loss = float(
                triplet_margin_loss(anchor, positive, negative).data
            )
            assert loss == pytest.approx(max(offset, 0.0), abs=1e-9)

    def test_gradcheck_batch_mixes_active_and_inactive(self):
        """One batch straddling the hinge: per-row activity must not leak
        across rows in the mean reduction."""
        rng = case_rng(41, 9)
        anchor = leaf(rng, (4, 3))
        positive = leaf(rng, (4, 3))
        negative = leaf(rng, (4, 3), scale=2.0)
        assert gradcheck(
            lambda: triplet_margin_loss(anchor, positive, negative, margin=0.7),
            [anchor, positive, negative],
        )
