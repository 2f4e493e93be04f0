import numpy as np
import pytest

from moe_profiler import tensor as T
from moe_profiler.errors import NumericError
from moe_profiler.optim import Adam
from moe_profiler.tensor import Tensor


def test_single_step_from_zero():
    # param 0, grad 1: bias correction makes the first update magnitude ~lr
    p = Tensor(np.zeros(1), requires_grad=True)
    opt = Adam({"p": p}, lr=1e-3)
    p.grad = np.ones(1)
    opt.step()
    assert abs(p.data[0] + 1e-3) < 1e-8
    assert opt.steps == 1


def test_zero_grad_leaves_params(rng):
    p = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    before = p.data.copy()
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.zeros_like(p.data)
    for _ in range(5):
        opt.step()
    assert np.array_equal(p.data, before)


def test_missing_grad_skipped(rng):
    p = Tensor(rng.normal(size=(2,)), requires_grad=True)
    before = p.data.copy()
    Adam({"p": p}, lr=0.1).step()
    assert np.array_equal(p.data, before)


def test_nonfinite_grad_names_param():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam({"weird_param": p}, lr=0.1)
    p.grad = np.array([np.inf, 0.0])
    with pytest.raises(NumericError, match="weird_param"):
        opt.step()


def test_two_runs_bitwise_identical():
    def run():
        rng = np.random.default_rng(42)
        p = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
        opt = Adam({"p": p}, lr=1e-2)
        for _ in range(20):
            loss = T.sum_(T.mul(p, p))
            opt.zero_grad()
            loss.backward()
            opt.step()
        return p.data.tobytes()

    assert run() == run()


def test_frozen_params_excluded():
    p = Tensor(np.zeros(2), requires_grad=False)
    opt = Adam({"p": p}, lr=0.1)
    assert "p" not in opt.params


def test_steps_and_moments_follow_the_bias_corrected_recurrence_bitwise(rng):
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-2
    p = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
    opt = Adam({"p": p}, lr=lr)
    want_p, m, v = p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)
    for k in range(1, 8):
        g = rng.normal(size=(4, 3)).astype(np.float32)
        p.grad = g
        opt.step()
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        want_p -= lr * (m / (1.0 - b1**k)) / (np.sqrt(v / (1.0 - b2**k)) + eps)
        assert opt.steps == k
        for got, want in ((opt.m["p"], m), (opt.v["p"], v), (p.data, want_p)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
