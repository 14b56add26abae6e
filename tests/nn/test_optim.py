"""Tests for repro.nn.optim (SGD and Adam)."""

import numpy as np
import pytest

from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.loss import mse_loss
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor


def quadratic_param(start=5.0):
    return Tensor(np.array([start]), requires_grad=True)


def minimise(optimizer, param, steps=200):
    for _ in range(steps):
        optimizer.zero_grad()
        loss = (param * param).sum()
        loss.backward()
        optimizer.step()
    return abs(param.data[0])


class TestSGD:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        assert minimise(SGD([p], lr=0.1), p) < 1e-3

    def test_momentum_accelerates(self):
        p_plain = quadratic_param()
        p_momentum = quadratic_param()
        plain = minimise(SGD([p_plain], lr=0.01), p_plain, steps=50)
        fast = minimise(SGD([p_momentum], lr=0.01, momentum=0.9), p_momentum, steps=50)
        assert fast < plain

    def test_weight_decay_shrinks_weights(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        # Zero-gradient step: only decay acts.
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 1.0

    def test_skips_params_without_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        SGD([p], lr=0.1).step()  # no backward() ran
        assert p.data[0] == 1.0

    def test_invalid_momentum(self):
        p = quadratic_param()
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_param()
        assert minimise(Adam([p], lr=0.3), p, steps=300) < 1e-2

    def test_bias_correction_first_step(self):
        """First Adam step should move by ~lr regardless of gradient scale."""
        for scale in (1e-3, 1.0, 1e3):
            p = Tensor(np.array([0.0]), requires_grad=True)
            opt = Adam([p], lr=0.1)
            p.grad = np.array([scale])
            opt.step()
            assert abs(p.data[0]) == pytest.approx(0.1, rel=1e-3)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], betas=(1.0, 0.9))

    def test_trains_small_regression(self):
        """End-to-end: Adam fits y = 2x + 1 with a linear model."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 1))
        y = 2.0 * x + 1.0
        model = Sequential(Linear(1, 8, rng=1), ReLU(), Linear(8, 1, rng=2))
        opt = Adam(model.parameters(), lr=0.01)
        first = None
        for _ in range(300):
            opt.zero_grad()
            loss = mse_loss(model(Tensor(x)), Tensor(y))
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.05


def dense_adam_step(params, m, v, t, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
    """The dense Adam step, every row every time: the reference."""
    beta1, beta2 = betas
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for param, m_i, v_i in zip(params, m, v):
        grad = param.grad
        if weight_decay:
            grad = grad + weight_decay * param.data
        m_i *= beta1
        m_i += (1.0 - beta1) * grad
        v_i *= beta2
        v_i += (1.0 - beta2) * grad * grad
        param.data -= lr * (m_i / bias1) / (np.sqrt(v_i / bias2) + eps)


class TestRowRestrictedAdam:
    """``Adam.step`` updates only rows that have ever had a nonzero gradient;
    the result must be the dense step's, bit for bit."""

    #: Per step, the rows of an (8, 4) table that get a gradient: row 0
    #: every step, row 1 once and then idle, row 5 late, rows 2-4 and 6-7
    #: never until the last step touches everything.
    SCHEDULE = ([0, 1], [0], [0, 5], [0], [0, 5], list(range(8)))

    def _run(self, step, weight_decay):
        rng = np.random.default_rng(3)
        table = Tensor(rng.normal(size=(8, 4)).astype(np.float32), requires_grad=True)
        bias = Tensor(rng.normal(size=(4,)).astype(np.float32), requires_grad=True)
        grads = np.random.default_rng(4)
        snapshots = []
        for t, rows in enumerate(self.SCHEDULE, start=1):
            table.grad = np.zeros_like(table.data)
            table.grad[rows] = grads.normal(size=(len(rows), 4))
            bias.grad = grads.normal(size=4).astype(np.float32)
            step([table, bias], t)
            snapshots.append((table.data.copy(), bias.data.copy()))
        return snapshots

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_bit_equal_to_the_dense_step(self, weight_decay):
        optimizers = {}

        def restricted(params, t):
            if "opt" not in optimizers:
                optimizers["opt"] = Adam(params, lr=0.05, weight_decay=weight_decay)
            optimizers["opt"].step()

        state = {}

        def dense(params, t):
            if not state:
                state["m"] = [np.zeros_like(p.data) for p in params]
                state["v"] = [np.zeros_like(p.data) for p in params]
            dense_adam_step(params, state["m"], state["v"], t, lr=0.05, weight_decay=weight_decay)

        got = self._run(restricted, weight_decay)
        want = self._run(dense, weight_decay)
        for step, ((g_table, g_bias), (w_table, w_bias)) in enumerate(zip(got, want)):
            np.testing.assert_array_equal(g_table, w_table, err_msg=f"step {step + 1}")
            np.testing.assert_array_equal(g_bias, w_bias, err_msg=f"step {step + 1}")

    def test_untouched_rows_stay_put_and_idle_rows_keep_moving(self):
        """The two facts the restriction rests on, stated directly."""
        table = Tensor(np.ones((8, 4), dtype=np.float32), requires_grad=True)
        opt = Adam([table], lr=0.1)
        table.grad = np.zeros_like(table.data)
        table.grad[1] = 1.0
        opt.step()
        table.grad = np.zeros_like(table.data)       # row 1 idle from now on
        before = table.data.copy()
        opt.step()
        assert (table.data[1] != before[1]).all()    # momentum still moves it
        np.testing.assert_array_equal(table.data[[0, *range(2, 8)]], 1.0)
