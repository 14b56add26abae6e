"""Tests for repro.nn.serialization and gradcheck helpers."""

import numpy as np
import pytest

from tests.support.gradcheck import gradcheck, numerical_gradient
from repro.nn.layers import Linear
from repro.nn.serialization import load_state_dict, save_state_dict
from repro.nn.tensor import Tensor


class TestStateDictIO:
    def test_roundtrip(self, tmp_path):
        state = {
            "layer.weight": np.random.default_rng(0).normal(size=(3, 4)),
            "layer.bias": np.zeros(3),
        }
        path = tmp_path / "model.npz"
        save_state_dict(state, path)
        loaded = load_state_dict(path)
        assert set(loaded) == set(state)
        for key in state:
            np.testing.assert_array_equal(loaded[key], state[key])

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "model.npz"
        save_state_dict({"w": np.ones(2)}, path)
        assert path.exists()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state_dict(tmp_path / "absent.npz")

    def test_module_level_roundtrip(self, tmp_path):
        a = Linear(4, 2, rng=0)
        save_state_dict(a.state_dict(), tmp_path / "lin.npz")
        b = Linear(4, 2, rng=1)
        b.load_state_dict(load_state_dict(tmp_path / "lin.npz"))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestGradcheckHelper:
    def test_detects_correct_gradient(self):
        p = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        assert gradcheck(lambda: (p * p).sum(), [p])

    def test_numerical_gradient_of_square(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        numeric = numerical_gradient(lambda: (p * p).sum(), p)
        np.testing.assert_allclose(numeric, [6.0], rtol=1e-4)

    def test_flags_wrong_gradient(self):
        """A deliberately broken backward must be caught."""
        p = Tensor(np.array([2.0]), requires_grad=True)

        def broken():
            out = p * p
            # Sabotage: replace the recorded backward with a wrong one.
            out._backward = lambda grad: (grad * 999.0,)
            return out.sum()

        with pytest.raises(AssertionError, match="mismatch"):
            gradcheck(broken, [p])
