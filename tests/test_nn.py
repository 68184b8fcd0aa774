import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgerec.models import TrainConfig
from bridgerec.nn import (Adam, TwoLayerNet, fit, grad_check, softmax, table_grad,
                          uniform_init)


# ---------------------------------------------------------------------------
# softmax

def test_softmax_symmetric_pair():
    np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=0)


def test_softmax_large_inputs_are_stable():
    out = softmax([1000.0, 1000.5])
    assert np.all(np.isfinite(out))
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_matches_direct_formula():
    # direct evaluation of exp(x_i) / sum exp(x_j) as the oracle
    x = [0.0, 1.0, 2.0]
    exps = [math.exp(v) for v in x]
    expected = [e / sum(exps) for e in exps]
    np.testing.assert_allclose(softmax(x), expected, rtol=1e-12)


def test_softmax_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        softmax([])
    with pytest.raises(ValueError):
        softmax([1.0, np.nan])


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
       st.floats(-100, 100))
def test_softmax_sums_to_one_and_is_shift_invariant(xs, shift):
    out = softmax(xs)
    assert np.all(out > 0)
    assert abs(out.sum() - 1.0) < 1e-12
    shifted = softmax(np.asarray(xs) + shift)
    np.testing.assert_allclose(out, shifted, atol=1e-12)


# ---------------------------------------------------------------------------
# two-layer net forward

def _loop_forward(net, x):
    """Independent straight-line oracle: explicit loops over the same weights."""
    hidden = []
    for j in range(net.hidden_dim):
        z = net.b1[j]
        for i in range(net.in_dim):
            z += x[i] * net.W1[i, j]
        hidden.append(max(z, 0.0) if net.activation == "relu" else math.tanh(z))
    out = []
    for o in range(net.out_dim):
        y = net.b2[o]
        for j in range(net.hidden_dim):
            y += hidden[j] * net.W2[j, o]
        out.append(y)
    return np.asarray(out)


def test_forward_zero_net_gives_zero():
    net = TwoLayerNet(3, 4, 2)
    for p in net.params().values():
        p[...] = 0.0
    np.testing.assert_array_equal(net.forward([1.0, -2.0, 3.0]), [0.0, 0.0])


def test_forward_identity_like_1x1x1():
    net = TwoLayerNet(1, 1, 1, activation="relu")
    net.W1[...] = 1.0
    net.b1[...] = 0.0
    net.W2[...] = 1.0
    net.b2[...] = 0.0
    assert net.forward([2.0])[0] == 2.0


def test_forward_matches_loop_oracle():
    net = TwoLayerNet(3, 4, 2, rng=np.random.default_rng(11))
    x = np.array([0.3, -1.2, 2.4])
    np.testing.assert_allclose(net.forward(x), _loop_forward(net, x), atol=1e-12)


def test_forward_batch_equals_per_row():
    net = TwoLayerNet(3, 5, 2, activation="tanh", rng=np.random.default_rng(3))
    X = np.random.default_rng(4).normal(size=(6, 3))
    batch = net.forward(X)
    rows = np.stack([net.forward(x) for x in X])
    np.testing.assert_allclose(batch, rows, atol=1e-14)


def test_forward_dimension_mismatch():
    net = TwoLayerNet(3, 4, 2)
    with pytest.raises(ValueError):
        net.forward([1.0, 2.0])


def test_net_backward_passes_grad_check():
    for activation in ("relu", "tanh"):
        net = TwoLayerNet(3, 4, 2, activation, rng=np.random.default_rng(9))
        X = np.random.default_rng(10).normal(size=(5, 3))
        target = np.random.default_rng(12).normal(size=(5, 2))

        def loss_fn(params):
            return float(np.sum((net.forward(X) - target) ** 2))

        def grad_fn(params):
            out, cache = net.forward_cached(X)
            grads, _ = net.backward(cache, 2.0 * (out - target))
            return grads

        assert grad_check(loss_fn, grad_fn, net.params(), eps=1e-5) < 1e-6


# ---------------------------------------------------------------------------
# Adam

def _scalar_adam_reference(w0, grad_of, lr, steps):
    """Reference Adam on one float, coded independently of the numpy path."""
    m = v = 0.0
    w = w0
    for t in range(1, steps + 1):
        g = grad_of(w)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1.0 - 0.9 ** t)
        vh = v / (1.0 - 0.999 ** t)
        w -= lr * mh / (math.sqrt(vh) + 1e-8)
    return w


def test_table_grad_sums_repeated_rows_and_zeros_the_rest():
    table = np.ones((5, 2))
    rows = np.array([[1.0, 2.0], [10.0, 20.0], [100.0, 200.0]])
    grad = table_grad(table, np.array([3, 0, 3]), rows)
    np.testing.assert_array_equal(grad, [[10, 20], [0, 0], [0, 0], [101, 202], [0, 0]])
    np.testing.assert_array_equal(table, np.ones((5, 2)))


def test_adam_zero_gradient_is_a_noop():
    params = {"w": np.array([1.0, -2.0])}
    opt = Adam(params, lr=0.1)
    opt.step({"w": np.zeros(2)})
    np.testing.assert_array_equal(params["w"], [1.0, -2.0])
    assert opt.t == 1


def test_adam_first_step_moves_by_lr():
    # with constant gradient 1.0 the bias-corrected first step is lr/(1+eps)
    params = {"w": np.array([0.5])}
    opt = Adam(params, lr=0.1)
    opt.step({"w": np.array([1.0])})
    expected = 0.5 - 0.1 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(params["w"], [expected], rtol=1e-14)


def test_adam_minimizes_quadratic_and_matches_reference():
    params = {"w": np.array([1.0])}
    opt = Adam(params, lr=0.05)
    for _ in range(100):
        opt.step({"w": 2.0 * params["w"]})
    assert abs(params["w"][0]) < 0.1
    ref = _scalar_adam_reference(1.0, lambda w: 2.0 * w, lr=0.05, steps=100)
    np.testing.assert_allclose(params["w"][0], ref, rtol=1e-12)


def test_adam_is_deterministic():
    results = []
    for _ in range(2):
        params = {"w": np.arange(4, dtype=float)}
        opt = Adam(params, lr=0.01)
        for t in range(20):
            opt.step({"w": np.sin(params["w"] + t)})
        results.append(params["w"].copy())
    np.testing.assert_array_equal(results[0], results[1])


def test_adam_shape_mismatch_raises():
    params = {"w": np.zeros(3)}
    opt = Adam(params, lr=0.1)
    with pytest.raises(ValueError):
        opt.step({"w": np.zeros(4)})
    with pytest.raises(ValueError):
        opt.step({"nope": np.zeros(3)})


def test_adam_matches_the_textbook_expression_bit_for_bit():
    rng = np.random.default_rng(4)
    start = {"table": rng.normal(size=(6800, 10)), "w": rng.normal(size=3)}
    params = {name: p.copy() for name, p in start.items()}
    opt = Adam(params, lr=0.01)
    ref = {name: p.copy() for name, p in start.items()}
    m = {name: np.zeros_like(p) for name, p in start.items()}
    v = {name: np.zeros_like(p) for name, p in start.items()}
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    for t in range(1, 51):
        names = ["table", "w"] if t % 3 else (["table"] if t % 2 else ["w"])
        grads = {name: rng.normal(size=start[name].shape) for name in names}
        opt.step(grads)
        for name, g in grads.items():
            m[name] = b1 * m[name] + (1 - b1) * g
            v[name] = b2 * v[name] + (1 - b2) * (g * g)
            ref[name] = ref[name] - lr * (m[name] / (1 - b1 ** t)) / (
                np.sqrt(v[name] / (1 - b2 ** t)) + eps)
        for name in start:
            np.testing.assert_array_equal(params[name], ref[name])
    assert opt.t == 50


# ---------------------------------------------------------------------------
# training loop

def test_fit_batches_one_permutation_per_epoch_and_traces_mean_loss():
    seen = []

    def batch_fn(rows):
        seen.append(rows.copy())
        return float(len(rows)), {}

    record = fit({}, batch_fn, 7, TrainConfig(epochs=2, batch_size=3),
                 np.random.default_rng(4), "toy")
    ref = np.random.default_rng(4)
    expected = [ref.permutation(7) for _ in range(2)]
    np.testing.assert_array_equal(np.concatenate(seen[:3]), expected[0])
    np.testing.assert_array_equal(np.concatenate(seen[3:]), expected[1])
    assert [len(b) for b in seen] == [3, 3, 1, 3, 3, 1]
    assert record.losses == [7.0 / 3.0, 7.0 / 3.0]
    assert (record.examples, record.skipped) == (7, 0)


def test_fit_raises_on_non_finite_loss():
    calls = []

    def batch_fn(rows):
        calls.append(1)
        return (np.nan if len(calls) == 3 else 1.0), {}

    with pytest.raises(RuntimeError, match="toy diverged at epoch 1"):
        fit({}, batch_fn, 4, TrainConfig(epochs=5, batch_size=2),
            np.random.default_rng(0), "toy")


# ---------------------------------------------------------------------------
# gradient checker

def test_grad_check_accepts_exact_gradient():
    params = {"w": np.array([0.7, -1.3, 2.0])}
    loss = lambda p: float(np.sum(p["w"] ** 2))
    grad = lambda p: {"w": 2.0 * p["w"]}
    assert grad_check(loss, grad, params, eps=1e-5) < 1e-7


def test_grad_check_flags_scaled_gradient():
    # analytic = 2 * true gives |g - 2g| / (3|g|) = 1/3 per coordinate
    params = {"w": np.array([0.7, -1.3])}
    loss = lambda p: float(np.sum(p["w"] ** 2))
    wrong = lambda p: {"w": 4.0 * p["w"]}
    err = grad_check(loss, wrong, params, eps=1e-5)
    assert err > 0.1
    np.testing.assert_allclose(err, 1.0 / 3.0, atol=1e-5)


@pytest.mark.parametrize("size", [1.0, 1e-3, 1e-5])
def test_grad_check_flags_a_1e4_relative_error_at_any_gradient_size(size):
    # true gradient (2, 2 * size); the second entry is reported 1e-4 too large,
    # which a check without a floor reports as 1e-4 / (2 + 1e-4)
    params = {"w": np.array([1.0, size])}
    loss = lambda p: float(np.sum(p["w"] ** 2))
    wrong = lambda p: {"w": 2.0 * p["w"] * np.array([1.0, 1.0 + 1e-4])}
    err = grad_check(loss, wrong, params, eps=1e-5)
    np.testing.assert_allclose(err, 1e-4 / (2.0 + 1e-4), rtol=1e-2)


@pytest.mark.parametrize("true_grad, want", [(1e-8, 1e-5), (1e-1, 1.0)])
def test_grad_check_judges_a_zero_analytic_entry_against_the_gradient_scale(true_grad, want):
    # the largest entry is 1e3, so the floor is 1e-3: a true gradient of 1e-8
    # (the size of central-difference rounding noise at a loss of ~10) passes,
    # one of 1e-4 of the scale fails outright
    params = {"w": np.array([0.0, 0.0])}
    loss = lambda p: float(1e3 * p["w"][0] + true_grad * p["w"][1])
    claimed = lambda p: {"w": np.array([1e3, 0.0])}
    np.testing.assert_allclose(grad_check(loss, claimed, params, eps=1e-5), want, rtol=1e-3)


def test_grad_check_validates_eps_and_finiteness():
    params = {"w": np.array([1.0])}
    loss = lambda p: float(p["w"][0] ** 2)
    grad = lambda p: {"w": 2.0 * p["w"]}
    with pytest.raises(ValueError):
        grad_check(loss, grad, params, eps=1e-2)
    bad_loss = lambda p: float("nan")
    with pytest.raises(ValueError):
        grad_check(bad_loss, grad, params, eps=1e-5)


def test_uniform_init_respects_fan_in_bound():
    rng = np.random.default_rng(0)
    arr = uniform_init(rng, 16, (100, 8))
    assert np.all(np.abs(arr) <= 0.25)
