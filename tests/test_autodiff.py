"""Reverse-mode tape: every op's gradient against central differences."""

import math

import numpy as np
import pytest
import scipy.special

from slicesim.autodiff import Tensor, concat, log_softmax, logsumexp
from slicesim.networks import softmax

from oracles import finite_diff_grad


def check_scalar_fn(build, x0, tol=1e-6):
    """build(tensor) -> scalar Tensor; compare tape grad to finite diff."""
    x0 = np.asarray(x0, dtype=np.float64)

    def f(flat):
        t = Tensor(flat.reshape(x0.shape), requires_grad=True)
        return float(build(t).data)

    t = Tensor(x0.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    numeric = finite_diff_grad(f, x0.ravel())
    assert t.grad is not None
    np.testing.assert_allclose(t.grad.ravel(), numeric, atol=tol, rtol=1e-5)


def test_add_mul_with_broadcasting():
    rng = np.random.default_rng(0)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4,))
    b = Tensor(b0, requires_grad=True)
    check_scalar_fn(lambda a: ((a + b) * 2.0).sum(), a0)
    assert b.grad.shape == (4,)
    np.testing.assert_allclose(b.grad, np.full(4, 6.0))  # 3 rows, times 2


def test_mul_gradients_both_sides():
    rng = np.random.default_rng(1)
    a0, b0 = rng.normal(size=5), rng.normal(size=5)
    a = Tensor(a0, requires_grad=True)
    b = Tensor(b0, requires_grad=True)
    (a * b).sum().backward()
    np.testing.assert_allclose(a.grad, b0)
    np.testing.assert_allclose(b.grad, a0)


def test_sub_neg_radd_rsub():
    check_scalar_fn(lambda t: (1.0 - t).sum(), np.array([1.0, 2.0]))
    check_scalar_fn(lambda t: (-t + 3.0).sum(), np.array([1.0, 2.0]))
    check_scalar_fn(lambda t: (t - 0.5).square().sum(), np.array([0.3, -0.2]))


def test_matmul_2d_2d():
    rng = np.random.default_rng(2)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    check_scalar_fn(lambda x: (x @ w).tanh().sum(), rng.normal(size=(2, 4)))
    assert w.grad.shape == (4, 3)


def test_matmul_1d_cases():
    rng = np.random.default_rng(3)
    m0 = rng.normal(size=(3, 4))
    v = Tensor(rng.normal(size=4), requires_grad=True)
    check_scalar_fn(lambda m: (m @ v).sum(), m0)      # 2d @ 1d
    check_scalar_fn(lambda m: (v @ m.reshape(4, 3)).sum(),
                    rng.normal(size=(4, 3)))           # 1d @ 2d
    w = Tensor(rng.normal(size=4), requires_grad=True)
    (v @ w).backward()                                 # 1d @ 1d is a scalar
    np.testing.assert_allclose(w.grad, v.data)


def test_getitem_int_and_slice():
    check_scalar_fn(lambda t: t[2], np.array([1.0, 2.0, 3.0, 4.0]))
    check_scalar_fn(lambda t: t[1:3].sum(), np.array([1.0, 2.0, 3.0, 4.0]))


def test_getitem_repeated_fancy_index_accumulates():
    t = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    picked = t[np.array([0, 0, 2])]
    picked.sum().backward()
    np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0])


def test_elementwise_nonlinearities():
    x = np.array([0.3, -1.2, 2.0, 0.7])
    check_scalar_fn(lambda t: t.tanh().sum(), x)
    check_scalar_fn(lambda t: t.relu().sum(), x)  # stays off the kink
    check_scalar_fn(lambda t: t.exp().sum(), x)
    check_scalar_fn(lambda t: t.square().sum(), x)
    check_scalar_fn(lambda t: t.log().sum(), np.abs(x) + 0.5)


def test_relu_zero_region_blocks_gradient():
    t = Tensor(np.array([-1.0, -0.5]), requires_grad=True)
    t.relu().sum().backward()
    np.testing.assert_allclose(t.grad, [0.0, 0.0])


def test_reshape_round_trip_gradient():
    check_scalar_fn(lambda t: t.reshape(2, 3).tanh().sum(),
                    np.arange(6, dtype=np.float64) / 3.0)


def test_concat_gradient_split():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0]), requires_grad=True)
    out = concat([a, b])
    (out * np.array([10.0, 20.0, 30.0])).sum().backward()
    np.testing.assert_allclose(a.grad, [10.0, 20.0])
    np.testing.assert_allclose(b.grad, [30.0])


def test_value_reuse_accumulates():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = x * x + x          # dy/dx = 2x + 1
    y.backward()
    assert x.grad == pytest.approx(7.0)


def test_diamond_graph():
    x = Tensor(np.array(2.0), requires_grad=True)
    left = x + x           # 2x
    right = x * x          # x^2
    out = left * right     # 2x^3, d/dx = 6x^2 = 24
    out.backward()
    assert x.grad == pytest.approx(24.0)


def test_backward_needs_scalar():
    t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(ValueError):
        t.backward()


def test_constants_collect_no_gradient():
    c = Tensor(np.array([1.0, 2.0]))
    t = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    (c * t).sum().backward()
    assert c.grad is None
    assert t.grad is not None


# -- softmax family -----------------------------------------------------------

def test_softmax_uniform_and_closed_form():
    np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3))
    got = softmax(np.array([1.0, 1.0 + math.log(2.0)]))
    np.testing.assert_allclose(got, [1 / 3, 2 / 3], atol=1e-15)
    z = np.array([0.1, -2.0, 3.3])
    np.testing.assert_allclose(softmax(z + 100.0), softmax(z), atol=1e-15)
    assert softmax(np.array([1000.0, 0.0]))[0] == pytest.approx(1.0)


def test_logsumexp_matches_scipy_and_is_stable():
    for z0 in (np.array([0.1, 0.2, 0.3]), np.array([1000.0, 999.0]),
               np.array([-1000.0, -1000.0])):
        got = logsumexp(Tensor(z0)).item()
        assert got == pytest.approx(scipy.special.logsumexp(z0), abs=1e-12)
    check_scalar_fn(lambda t: logsumexp(t), np.array([0.3, -0.7, 1.1]))


def test_log_softmax_gradient_is_exact():
    """d(log_softmax[k])/dz = onehot(k) - softmax(z), the textbook identity."""
    z0 = np.array([0.5, -1.0, 2.0, 0.0])
    for k in range(4):
        t = Tensor(z0.copy(), requires_grad=True)
        log_softmax(t)[k].backward()
        expected = -softmax(z0)
        expected[k] += 1.0
        np.testing.assert_allclose(t.grad, expected, atol=1e-12)


def test_log_softmax_values():
    z0 = np.array([2.0, -3.0, 0.5])
    got = log_softmax(Tensor(z0)).data
    np.testing.assert_allclose(got, np.log(softmax(z0)), atol=1e-12)
