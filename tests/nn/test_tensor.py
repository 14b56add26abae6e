"""Tests for the autograd tensor: op semantics + gradient correctness."""

import numpy as np
import pytest

from repro.nn.gradcheck import gradcheck
from repro.nn.tensor import Tensor, concatenate, no_grad, stack


def leaf(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True)


class TestForwardSemantics:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3.0))
        np.testing.assert_array_equal((a + b).data, np.ones((2, 3)) + np.arange(3.0))

    def test_scalar_ops(self):
        t = Tensor([1.0, 2.0])
        np.testing.assert_array_equal((t * 2 + 1).data, [3.0, 5.0])
        np.testing.assert_array_equal((1 - t).data, [0.0, -1.0])
        np.testing.assert_array_equal((2 / t).data, [2.0, 1.0])

    def test_matmul(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        np.testing.assert_array_equal((a @ b).data, a.data @ b.data)

    def test_pow(self):
        t = Tensor([2.0, 3.0])
        np.testing.assert_array_equal((t**2).data, [4.0, 9.0])

    def test_reductions(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.sum().item() == 15.0
        assert t.mean().item() == 2.5
        np.testing.assert_array_equal(t.sum(axis=0).data, [3.0, 5.0, 7.0])
        np.testing.assert_array_equal(t.max(axis=1).data, [2.0, 5.0])

    def test_reshape_transpose(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.reshape(3, 2).shape == (3, 2)
        assert t.transpose().shape == (3, 2)

    def test_getitem(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(t[0].data, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(t[:, 1].data, [1.0, 4.0])

    def test_relu_clamps(self):
        t = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(t.relu().data, [0.0, 0.0, 2.0])

    def test_clamp_min(self):
        t = Tensor([-1.0, 0.5])
        np.testing.assert_array_equal(t.clamp_min(0.0).data, [0.0, 0.5])

    def test_concatenate(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))
        assert concatenate([a, b], axis=1).shape == (2, 5)

    def test_stack(self):
        a, b = Tensor(np.ones(3)), Tensor(np.zeros(3))
        assert stack([a, b]).shape == (2, 3)


class TestBackwardBasics:
    def test_backward_requires_scalar(self):
        t = leaf((2, 3))
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_explicit_grad_shape_checked(self):
        t = leaf((2,))
        out = t * 2
        with pytest.raises(ValueError):
            out.backward(np.ones(3))

    def test_grad_accumulates_across_uses(self):
        t = leaf((3,))
        out = (t + t).sum()
        out.backward()
        np.testing.assert_allclose(t.grad, 2 * np.ones(3))

    def test_detach_blocks_gradient(self):
        t = leaf((3,))
        out = (t.detach() * 2).sum()
        # Graph is severed: no gradient path back to t.
        out.backward()
        assert t.grad is None

    def test_no_grad_context(self):
        t = leaf((3,))
        with no_grad():
            out = (t * 2).sum()
        assert not out.requires_grad

    def test_zero_grad(self):
        t = leaf((3,))
        (t * 3).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_broadcast_unbroadcast_gradient(self):
        a = leaf((2, 3), seed=1)
        b = leaf((3,), seed=2)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, a.data.sum(axis=0))


class TestGradcheck:
    """Numerical verification of every differentiable op."""

    @pytest.mark.parametrize(
        "op_name",
        ["add", "sub", "mul", "div", "matmul"],
    )
    def test_binary_ops(self, op_name):
        a = leaf((3, 4), seed=1)
        b = leaf((4, 3) if op_name == "matmul" else (3, 4), seed=2, scale=0.5)
        b.data += 2.0  # keep divisors away from zero
        ops = {
            "add": lambda: (a + b).sum(),
            "sub": lambda: (a - b).sum(),
            "mul": lambda: ((a * b) ** 2).sum() * 0.1,
            "div": lambda: (a / b).sum(),
            "matmul": lambda: ((a @ b) ** 2).sum() * 0.01,
        }
        assert gradcheck(ops[op_name], [a, b])

    @pytest.mark.parametrize(
        "fn_name",
        ["relu", "tanh", "sigmoid", "exp", "sqrt", "log"],
    )
    def test_unary_ops(self, fn_name):
        a = leaf((3, 4), seed=3, scale=0.5)
        if fn_name in ("sqrt", "log"):
            a.data[...] = np.abs(a.data) + 0.5
        fn = lambda: getattr(a, fn_name)().sum()
        assert gradcheck(fn, [a])

    def test_pow(self):
        a = leaf((4,), seed=4)
        a.data[...] = np.abs(a.data) + 0.5
        assert gradcheck(lambda: (a**3).sum(), [a])

    def test_sum_axis_keepdims(self):
        a = leaf((3, 4), seed=5)
        assert gradcheck(lambda: (a.sum(axis=1, keepdims=True) ** 2).sum(), [a])

    def test_mean_axis(self):
        a = leaf((3, 4), seed=6)
        assert gradcheck(lambda: (a.mean(axis=0) ** 2).sum(), [a])

    def test_max_axis(self):
        a = leaf((3, 5), seed=7)
        assert gradcheck(lambda: a.max(axis=1).sum(), [a])

    def test_reshape_transpose(self):
        a = leaf((3, 4), seed=8)
        assert gradcheck(
            lambda: (a.reshape(2, 6).transpose() ** 2).sum() * 0.1, [a]
        )

    def test_getitem(self):
        a = leaf((4, 4), seed=9)
        assert gradcheck(lambda: (a[1:3, ::2] ** 2).sum(), [a])

    @pytest.mark.parametrize(
        "index", [slice(1, 3), (slice(None), 2), 3, (Ellipsis, slice(0, 4, 2)), ([0, 2, 0],)]
    )
    def test_getitem_backward_equals_add_at(self, index):
        """Basic indices write the gradient in place, fancy ones accumulate
        repeats: both are the ``np.add.at`` fold."""
        a = leaf((4, 5), seed=10)
        grad = np.random.default_rng(11).normal(size=a.data[index].shape)
        a[index].backward(grad)
        want = np.zeros_like(a.data)
        np.add.at(want, index, grad)
        np.testing.assert_array_equal(a.grad, want)

    def test_concatenate(self):
        a = leaf((2, 3), seed=10)
        b = leaf((2, 2), seed=11)
        assert gradcheck(
            lambda: (concatenate([a, b], axis=1) ** 2).sum() * 0.5, [a, b]
        )

    def test_stack(self):
        a = leaf((3,), seed=12)
        b = leaf((3,), seed=13)
        assert gradcheck(lambda: (stack([a, b]) ** 2).sum(), [a, b])

    def test_clamp_min(self):
        a = leaf((10,), seed=14)
        assert gradcheck(lambda: a.clamp_min(0.1).sum(), [a])

    def test_deep_chain(self):
        a = leaf((4, 4), seed=15, scale=0.3)
        def fn():
            x = a
            for _ in range(4):
                x = (x @ a).tanh()
            return x.sum()
        assert gradcheck(fn, [a], atol=1e-3)

    def test_diamond_graph(self):
        """Gradient through a reconverging (diamond) graph is summed."""
        a = leaf((3,), seed=16)
        def fn():
            left = a * 2
            right = a.tanh()
            return (left * right).sum()
        assert gradcheck(fn, [a])
