"""Autograd edge cases: reverse ops, nested contexts, shared subgraphs."""

import threading

import numpy as np
import pytest

from repro.nn.gradcheck import gradcheck
from repro.nn.tensor import Tensor, no_grad


def leaf(shape, seed=0, shift=0.0):
    data = np.random.default_rng(seed).normal(size=shape) + shift
    return Tensor(data, requires_grad=True)


class TestReverseOperators:
    def test_rsub_value_and_grad(self):
        t = leaf((3,), 1)
        assert gradcheck(lambda: (5.0 - t).sum(), [t])

    def test_rtruediv_value_and_grad(self):
        t = leaf((3,), 2, shift=3.0)  # keep away from zero
        assert gradcheck(lambda: (6.0 / t).sum(), [t])

    def test_radd_rmul(self):
        t = Tensor([1.0, 2.0])
        np.testing.assert_array_equal((3 + t).data, [4.0, 5.0])
        np.testing.assert_array_equal((3 * t).data, [3.0, 6.0])


class TestGradModes:
    def test_no_grad_nested(self):
        t = leaf((2,), 3)
        with no_grad():
            with no_grad():
                inner = t * 2
            middle = inner + 1
        assert not middle.requires_grad
        # Recording resumes after the context exits.
        outer = t * 2
        assert outer.requires_grad

    def test_no_grad_restores_on_exception(self):
        t = leaf((2,), 4)
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert (t * 2).requires_grad

    def test_no_grad_is_per_thread(self):
        """Two threads whose ``no_grad`` blocks overlap (enter A, enter
        B, exit A, exit B) must not leave recording off for anyone: a
        process-wide flag would restore A's saved ``True`` and then B's
        saved ``False``."""
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        inside = []

        def first():
            with no_grad():
                a_in.set()
                assert b_in.wait(5)
            a_out.set()

        def second():
            assert a_in.wait(5)
            with no_grad():
                b_in.set()
                assert a_out.wait(5)
                inside.append((leaf((2,), 9) * 2).requires_grad)

        threads = [threading.Thread(target=f) for f in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert inside == [False]  # B stayed in inference mode after A left
        assert (leaf((2,), 10) * 2).requires_grad  # and nobody else did

    def test_pow_non_scalar_exponent_rejected(self):
        t = leaf((2,), 5)
        with pytest.raises(TypeError):
            t ** t  # noqa: B018

    def test_backward_twice_accumulates(self):
        t = leaf((2,), 6)
        out = (t * 3).sum()
        out.backward()
        first = t.grad.copy()
        out2 = (t * 3).sum()
        out2.backward()
        np.testing.assert_allclose(t.grad, 2 * first)


class TestSharedSubgraphs:
    def test_shared_intermediate_gradient_summed(self):
        """An intermediate used by two heads receives both gradients."""
        t = leaf((3,), 7)

        def fn():
            shared = t.tanh()
            return (shared * 2).sum() + (shared * shared).sum()

        assert gradcheck(fn, [t])

    def test_constant_branch_contributes_no_grad(self):
        t = leaf((3,), 8)
        constant = Tensor(np.ones(3))
        ((t + constant) * constant).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones(3))
        assert constant.grad is None

    def test_long_chain_memory_safe(self):
        """A 200-op chain backpropagates without recursion errors
        (backward is iterative, not recursive)."""
        t = leaf((4,), 9)
        x = t
        for _ in range(200):
            x = x * 1.01
        x.sum().backward()
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, np.full(4, 1.01**200), rtol=1e-6)


class TestDtypeCoercion:
    def test_int_input_promoted_to_float32(self):
        """Python scalars/lists coerce to the float32 library default."""
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float32

    def test_float32_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.data.dtype == np.float32

    def test_float64_opt_in_preserved(self):
        """Explicit float64 arrays are kept (gradcheck's opt-in path)."""
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.data.dtype == np.float64
