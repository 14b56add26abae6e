"""Tests for repro.nn.functional (conv1d, pooling, softmax, dropout)."""

import numpy as np
import pytest

from repro.nn import functional as F
from tests.support.gradcheck import gradcheck
from repro.nn.tensor import Tensor


def leaf(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True)


class TestConv1dForward:
    def test_identity_kernel(self):
        """A centred delta kernel with same padding reproduces the input."""
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 8)))
        w = Tensor(np.zeros((1, 1, 3)))
        w.data[0, 0, 1] = 1.0
        out = F.conv1d(x, w, padding=1)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_output_length_no_padding(self):
        x = Tensor(np.zeros((1, 2, 10)))
        w = Tensor(np.zeros((4, 2, 3)))
        assert F.conv1d(x, w).shape == (1, 4, 8)

    def test_output_length_with_stride(self):
        x = Tensor(np.zeros((1, 2, 10)))
        w = Tensor(np.zeros((4, 2, 3)))
        assert F.conv1d(x, w, stride=2).shape == (1, 4, 4)

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 5)))
        w = Tensor(np.zeros((2, 1, 3)))
        b = Tensor(np.array([1.0, -2.0]))
        out = F.conv1d(x, w, b)
        assert (out.data[0, 0] == 1.0).all()
        assert (out.data[0, 1] == -2.0).all()

    def test_matches_manual_convolution(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 6))
        w = rng.normal(size=(3, 2, 3))
        out = F.conv1d(Tensor(x), Tensor(w)).data
        for co in range(3):
            for pos in range(4):
                expected = (x[0, :, pos : pos + 3] * w[co]).sum()
                assert out[0, co, pos] == pytest.approx(expected)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            F.conv1d(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((1, 3, 3))))

    def test_kernel_longer_than_input_rejected(self):
        with pytest.raises(ValueError):
            F.conv1d(Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros((1, 1, 5))))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            F.conv1d(Tensor(np.zeros((2, 5))), Tensor(np.zeros((1, 1, 3))))


class TestConv1dGradients:
    def test_gradcheck_with_padding(self):
        x = leaf((2, 3, 7), seed=2, scale=0.5)
        w = leaf((2, 3, 3), seed=3, scale=0.5)
        b = leaf((2,), seed=4)
        assert gradcheck(
            lambda: (F.conv1d(x, w, b, padding=1) ** 2).sum() * 0.1, [x, w, b]
        )

    def test_gradcheck_with_stride(self):
        x = leaf((1, 2, 8), seed=5, scale=0.5)
        w = leaf((3, 2, 3), seed=6, scale=0.5)
        assert gradcheck(
            lambda: (F.conv1d(x, w, stride=2) ** 2).sum() * 0.1, [x, w]
        )


class TestConv1dCodes:
    """Layer 1 of the CNN tower: ``conv1d_codes`` on index codes against
    ``conv1d`` on the one-hot tensor the codes stand for."""

    #: float32, different summation order: the gather adds three table rows
    #: where the reference multiplies a mostly-zero one-hot tensor.
    FORWARD_ATOL = 1e-6
    GRAD_RTOL = 1e-5

    def _case(self, seed=0, dtype=np.float32):
        from repro.text.alphabet import Alphabet
        from repro.text.encoding import OneHotEncoder

        encoder = OneHotEncoder(Alphabet("abcdefghij "), max_length=9)
        # Truncated, padded, empty, and an unknown character (row 0).
        mentions = ["abc", "jihgfedcbaabc", "", "a b", "xaj", "bbbbbbbbb"]
        rng = np.random.default_rng(seed)
        weight = Tensor(rng.normal(size=(4, encoder.alphabet.size, 3)).astype(dtype), requires_grad=True)
        bias = Tensor(rng.normal(size=4).astype(dtype), requires_grad=True)
        probe = rng.normal(size=(len(mentions), 4, 9)).astype(dtype)
        return encoder, mentions, weight, bias, probe

    def test_forward_matches_conv1d_on_one_hots(self):
        encoder, mentions, weight, bias, _ = self._case()
        got = F.conv1d_codes(encoder.encode_codes(mentions), weight, bias).data
        want = F.conv1d(Tensor(encoder.encode_batch(mentions)), weight, bias, padding=1).data
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=self.FORWARD_ATOL)

    def test_gradients_match_conv1d_on_one_hots(self):
        encoder, mentions, weight, bias, probe = self._case(seed=1)
        (F.conv1d_codes(encoder.encode_codes(mentions), weight, bias) * Tensor(probe)).sum().backward()
        got = weight.grad.copy(), bias.grad.copy()
        weight.zero_grad(), bias.zero_grad()
        onehot = Tensor(encoder.encode_batch(mentions))
        (F.conv1d(onehot, weight, bias, padding=1) * Tensor(probe)).sum().backward()
        np.testing.assert_allclose(got[0], weight.grad, rtol=self.GRAD_RTOL, atol=1e-6)
        np.testing.assert_allclose(got[1], bias.grad, rtol=self.GRAD_RTOL, atol=1e-6)

    def test_gradcheck_float64(self):
        encoder, mentions, weight, bias, probe = self._case(seed=2, dtype=np.float64)
        codes = encoder.encode_codes(mentions)
        assert gradcheck(
            lambda: (F.conv1d_codes(codes, weight, bias) * Tensor(probe)).sum(),
            [weight, bias],
        )

    def test_no_gradient_for_the_codes(self):
        """The input is a constant: the op has no tensor parent but the
        kernel and bias."""
        encoder, mentions, weight, bias, _ = self._case()
        out = F.conv1d_codes(encoder.encode_codes(mentions), weight, bias)
        assert out._parents == (weight, bias)

    def test_rejects_wrong_shapes(self):
        encoder, mentions, weight, bias, _ = self._case()
        with pytest.raises(ValueError):
            F.conv1d_codes(encoder.encode_codes(mentions)[0], weight, bias)
        with pytest.raises(ValueError):
            F.conv1d_codes(encoder.encode_codes(mentions), Tensor(np.zeros((4, 11, 5))))


class TestMaxPool:
    def test_forward_values(self):
        x = Tensor(np.array([[[1.0, 3.0, 2.0, 5.0]]]))
        out = F.max_pool1d(x, kernel=2, stride=2)
        np.testing.assert_array_equal(out.data, [[[3.0, 5.0]]])

    def test_gradient_routes_to_argmax(self):
        x = Tensor(np.array([[[1.0, 3.0, 2.0, 5.0]]]), requires_grad=True)
        F.max_pool1d(x, kernel=2, stride=2).sum().backward()
        np.testing.assert_array_equal(x.grad, [[[0.0, 1.0, 0.0, 1.0]]])

    def test_gradcheck(self):
        x = leaf((2, 3, 8), seed=7)
        assert gradcheck(lambda: F.max_pool1d(x, kernel=2).sum(), [x])

    @pytest.mark.parametrize("length", [8, 9])
    def test_scatter_backward_matches_add_at(self, length):
        """Non-overlapping windows are a plain scatter; an odd length leaves
        the last column out of every window."""
        x = leaf((3, 4, length), seed=8)
        grad = np.random.default_rng(9).normal(size=(3, 4, length // 2))
        F.max_pool1d(x, kernel=2, stride=2).backward(grad)
        windows = x.data[:, :, : length // 2 * 2].reshape(3, 4, length // 2, 2)
        want = np.zeros_like(x.data)
        n, c, o = np.indices(grad.shape)
        np.add.at(want, (n, c, 2 * o + windows.argmax(axis=3)), grad)
        np.testing.assert_array_equal(x.grad, want)

    def test_overlapping_windows_accumulate(self):
        x = Tensor(np.array([[[1.0, 5.0, 2.0, 0.0]]]), requires_grad=True)
        F.max_pool1d(x, kernel=2, stride=1).sum().backward()
        np.testing.assert_array_equal(x.grad, [[[0.0, 2.0, 1.0, 0.0]]])

    def test_global_max_pool(self):
        x = Tensor(np.arange(12.0).reshape(1, 2, 6))
        out = F.global_max_pool1d(x)
        np.testing.assert_array_equal(out.data, [[5.0, 11.0]])

    def test_kernel_too_large_rejected(self):
        with pytest.raises(ValueError):
            F.max_pool1d(Tensor(np.zeros((1, 1, 3))), kernel=5)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(8).normal(size=(4, 6)) * 10)
        out = F.softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4))

    def test_stable_under_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        out = F.softmax(x, axis=1)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_consistent(self):
        x = Tensor(np.random.default_rng(9).normal(size=(3, 5)))
        log_sm = F.log_softmax(x, axis=1).data
        sm = F.softmax(x, axis=1).data
        np.testing.assert_allclose(log_sm, np.log(sm), atol=1e-10)

    def test_gradcheck_log_softmax(self):
        x = leaf((2, 4), seed=10)
        assert gradcheck(lambda: (F.log_softmax(x, axis=1) ** 2).sum() * 0.1, [x])


class TestDropout:
    def test_eval_mode_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = F.dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        assert out is x

    def test_zero_p_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = F.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
        assert out is x

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, True, np.random.default_rng(0))
