"""Tests for repro.nn.layers (Module machinery and the layer zoo)."""

import numpy as np
import pytest

from tests.support.gradcheck import gradcheck
from repro.nn.layers import (
    Conv1d,
    Dropout,
    EmbeddingBag,
    LayerNorm,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.tensor import Tensor


class TestModule:
    def test_parameters_discovered_recursively(self):
        model = Sequential(Linear(4, 8, rng=0), ReLU(), Linear(8, 2, rng=1))
        params = list(model.parameters())
        assert len(params) == 4  # 2 weights + 2 biases

    def test_named_parameters_have_paths(self):
        model = Sequential(Linear(4, 8, rng=0))
        names = [n for n, _ in model.named_parameters()]
        assert names == ["layer0.weight", "layer0.bias"]

    def test_train_eval_propagates(self):
        model = Sequential(Dropout(0.5), Linear(2, 2, rng=0))
        model.eval()
        assert all(not m.training for m in model)
        model.train()
        assert all(m.training for m in model)

    def test_zero_grad_clears_all(self):
        lin = Linear(3, 2, rng=0)
        (lin(Tensor(np.ones((1, 3)))) ** 2).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_num_parameters(self):
        lin = Linear(3, 2, rng=0)
        assert lin.num_parameters() == 3 * 2 + 2


class TestStateDict:
    def test_roundtrip(self):
        a = Sequential(Linear(4, 4, rng=0), Tanh(), Linear(4, 2, rng=1))
        b = Sequential(Linear(4, 4, rng=2), Tanh(), Linear(4, 2, rng=3))
        b.load_state_dict(a.state_dict())
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        np.testing.assert_array_equal(a(x).data, b(x).data)

    def test_state_dict_is_a_copy(self):
        lin = Linear(2, 2, rng=0)
        state = lin.state_dict()
        state["weight"][...] = 99.0
        assert not (lin.weight.data == 99.0).any()

    def test_missing_key_rejected(self):
        lin = Linear(2, 2, rng=0)
        with pytest.raises(KeyError):
            lin.load_state_dict({"weight": lin.weight.data})

    def test_unexpected_key_rejected(self):
        lin = Linear(2, 2, rng=0)
        state = lin.state_dict()
        state["extra"] = np.zeros(3)
        with pytest.raises(KeyError):
            lin.load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        lin = Linear(2, 2, rng=0)
        state = lin.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            lin.load_state_dict(state)


class TestLinear:
    def test_output_shape(self):
        lin = Linear(5, 3, rng=0)
        assert lin(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_no_bias_option(self):
        lin = Linear(5, 3, bias=False, rng=0)
        assert lin.bias is None
        assert len(list(lin.parameters())) == 1

    def test_affine_identity(self):
        lin = Linear(3, 3, rng=0)
        lin.weight.data[...] = np.eye(3)
        lin.bias.data[...] = 1.0
        x = np.random.default_rng(0).normal(size=(2, 3))
        np.testing.assert_allclose(lin(Tensor(x)).data, x + 1.0)

    def test_gradcheck(self):
        lin = Linear(4, 3, rng=1)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 4)))
        assert gradcheck(
            lambda: (lin(x) ** 2).sum() * 0.1, [lin.weight, lin.bias]
        )


class TestConv1dLayer:
    def test_same_padding_preserves_length(self):
        conv = Conv1d(4, 8, kernel_size=3, padding=1, rng=0)
        assert conv(Tensor(np.zeros((2, 4, 10)))).shape == (2, 8, 10)

    def test_deterministic_given_rng_seed(self):
        a = Conv1d(2, 2, 3, rng=7)
        b = Conv1d(2, 2, 3, rng=7)
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestLayerNorm:
    def test_normalises_last_dim(self):
        ln = LayerNorm(8)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 8)) * 5 + 3)
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gradcheck(self):
        ln = LayerNorm(5)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 5)))
        assert gradcheck(lambda: (ln(x) ** 2).sum() * 0.1, [ln.gamma, ln.beta])


class TestEmbeddingBag:
    def test_mean_pooling(self):
        bag = EmbeddingBag(4, 2, rng=0)
        bag.weight.data[...] = np.array([[0, 0], [2, 2], [4, 4], [6, 6]], dtype=float)
        out = bag.forward_bags([[1, 3], [0]])
        np.testing.assert_array_equal(out.data, [[4.0, 4.0], [0.0, 0.0]])

    def test_empty_bag_is_zero(self):
        bag = EmbeddingBag(4, 3, rng=0)
        out = bag.forward_bags([[]])
        np.testing.assert_array_equal(out.data, np.zeros((1, 3)))

    def test_out_of_range_rejected(self):
        bag = EmbeddingBag(4, 2, rng=0)
        with pytest.raises(IndexError):
            bag.forward_bags([[4]])

    def test_gradcheck(self):
        bag = EmbeddingBag(6, 3, rng=1)
        assert gradcheck(
            lambda: (bag.forward_bags([[0, 1], [2, 2, 3]]) ** 2).sum(),
            [bag.weight],
        )


def per_bag_forward_backward(weight, bags, grad):
    """The per-bag reference: ``mean(axis=0)`` forward, one ``np.add.at``
    per bag backward."""
    out = np.zeros((len(bags), weight.shape[1]), dtype=weight.dtype)
    grad_weight = np.zeros_like(weight)
    for b, bag in enumerate(bags):
        rows = np.asarray(bag, dtype=np.int64)
        if rows.size:
            out[b] = weight[rows].mean(axis=0)
            np.add.at(grad_weight, rows, grad[b] / rows.size)
    return out, grad_weight


class TestEmbeddingBagScatter:
    """``forward_bags`` / its backward are one scatter each; the floats must
    be the per-bag loop's, bit for bit."""

    BAGS = [[3, 1, 3, 3], [], [7], [1, 1], [], [0, 3, 7, 2, 2, 2, 9]]

    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
    def test_bit_equal_to_the_per_bag_loop(self, grad_dtype):
        """Duplicate ids inside a bag and across bags, empty bags, and a
        float64 upstream gradient over the float32 table (what the fastText
        pre-training's float64 targets produce)."""
        bag = EmbeddingBag(10, 5, rng=2)
        grad = np.random.default_rng(5).normal(size=(len(self.BAGS), 5)).astype(grad_dtype)
        out = bag.forward_bags(self.BAGS)
        # Through a product, so a float64 gradient reaches the layer as is
        # (``backward(grad)`` would cast it to the output's float32).
        (out * Tensor(grad)).sum().backward()
        want_out, want_grad = per_bag_forward_backward(bag.weight.data, self.BAGS, grad)
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(bag.weight.grad, want_grad)

    def test_busy_rows_over_many_bags(self):
        """Many terms per row (the scatter's rounds) on random bags."""
        rng = np.random.default_rng(6)
        bags = [list(rng.integers(0, 12, size=rng.integers(0, 30))) for _ in range(40)]
        bag = EmbeddingBag(12, 4, rng=3)
        grad = rng.normal(size=(40, 4))
        out = bag.forward_bags(bags)
        (out * Tensor(grad)).sum().backward()
        want_out, want_grad = per_bag_forward_backward(bag.weight.data, bags, grad)
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(bag.weight.grad, want_grad)

    @pytest.mark.parametrize("bad", [[[0, 10]], [[], [-1]], [[2], [3, 11, 1]]])
    def test_out_of_range_ids_raise(self, bad):
        with pytest.raises(IndexError):
            EmbeddingBag(10, 2, rng=0).forward_bags(bad)

    def test_all_bags_empty(self):
        bag = EmbeddingBag(4, 3, rng=0)
        out = bag.forward_bags([[], []])
        out.backward(np.ones((2, 3), dtype=np.float32))
        np.testing.assert_array_equal(out.data, 0.0)
        np.testing.assert_array_equal(bag.weight.grad, 0.0)


class TestDropoutLayer:
    def test_inert_in_eval(self):
        drop = Dropout(0.9, rng=0)
        drop.eval()
        x = Tensor(np.ones((3, 3)))
        np.testing.assert_array_equal(drop(x).data, x.data)

    def test_active_in_train(self):
        drop = Dropout(0.5, rng=0)
        x = Tensor(np.ones((20, 20)))
        assert (drop(x).data == 0.0).any()
