"""LSTM cell semantics, Gaussian closed forms, Adam arithmetic, checkpoints."""
import io

import numpy as np
import pytest

from soccerlab.netcore import (
    AdamState,
    ParamSet,
    adam_step,
    gaussian,
    lstm_params,
    lstm_step,
    lstm_step_backward,
    mlp_elu,
    mlp_params,
    uniform_init,
    zero_state,
)
from tests.test_autodiff import FD_RTOL, finite_difference


# ---- LSTM ------------------------------------------------------------


def test_lstm_zero_weights_zero_state_gives_zero():
    n_in, n_h = 3, 4
    arrays = {"c.wx": np.zeros((n_in, 4 * n_h)), "c.wh": np.zeros((n_h, 4 * n_h)), "c.b": np.zeros(4 * n_h)}
    out, (h, c), _ = lstm_step(arrays, "c", np.ones((2, n_in)), zero_state(2, n_h), n_h)
    np.testing.assert_array_equal(out, np.zeros((2, n_h)))
    assert h is out
    np.testing.assert_array_equal(c, np.zeros((2, n_h)))


def test_lstm_saturated_gates_accumulate_tanh_of_input():
    # input/forget/output biases pushed to saturation, no recurrent weights:
    # the cell becomes c_t = c_{t-1} + tanh(x wx_g + b_g)
    rng = np.random.default_rng(0)
    n_in, n_h = 2, 3
    arrays = {
        "c.wx": np.zeros((n_in, 4 * n_h)),
        "c.wh": np.zeros((n_h, 4 * n_h)),
        "c.b": np.zeros(4 * n_h),
    }
    wg = rng.normal(size=(n_in, n_h))
    arrays["c.wx"][:, 2 * n_h : 3 * n_h] = wg
    arrays["c.b"][0 * n_h : 1 * n_h] = 50.0  # input gate -> 1
    arrays["c.b"][1 * n_h : 2 * n_h] = 50.0  # forget gate -> 1
    arrays["c.b"][3 * n_h : 4 * n_h] = 50.0  # output gate -> 1
    state = zero_state(1, n_h)
    total = np.zeros((1, n_h))
    for step in range(4):
        x = rng.normal(size=(1, n_in))
        _, state, _ = lstm_step(arrays, "c", x, state, n_h)
        total += np.tanh(x @ wg)
        np.testing.assert_allclose(state[1], total, atol=1e-12)


def test_lstm_five_step_bptt_matches_finite_differences():
    """lstm_step_backward chained over five steps from a non-zero state:
    parameter, input and initial-state gradients of sum_t |h_t|^2."""
    rng = np.random.default_rng(9)
    n_in, n_h, steps = 3, 4, 5
    arrays = lstm_params(rng, n_in, n_h, "c")
    xs = rng.normal(size=(steps, 2, n_in))
    h0, c0 = rng.normal(size=(2, n_h)), rng.normal(size=(2, n_h))

    def loss_from(arrs=arrays, xs=xs, h0=h0, c0=c0) -> float:
        state, acc = (h0, c0), 0.0
        for t in range(steps):
            out, state, _ = lstm_step(arrs, "c", xs[t], state, n_h)
            acc += float((out * out).sum())
        return acc

    state, caches, outs = (h0, c0), [], []
    for t in range(steps):
        out, state, cache = lstm_step(arrays, "c", xs[t], state, n_h)
        outs.append(out)
        caches.append(cache)
    grads, d_state, d_xs = {}, None, np.zeros_like(xs)
    for t in range(steps - 1, -1, -1):
        d_xs[t], d_state = lstm_step_backward(arrays, "c", caches[t], 2.0 * outs[t], d_state, grads)

    def check(analytic, loss_of, x, name):
        fd = finite_difference(loss_of, x.copy())
        np.testing.assert_allclose(analytic, fd, rtol=FD_RTOL, atol=FD_RTOL, err_msg=name)

    for name in arrays:
        check(grads[name], lambda a, name=name: loss_from({**arrays, name: a}), arrays[name], name)
    check(d_xs, lambda a: loss_from(xs=a), xs, "inputs")
    check(d_state[0], lambda a: loss_from(h0=a), h0, "h0")
    check(d_state[1], lambda a: loss_from(c0=a), c0, "c0")


def test_mlp_elu_matches_manual_composition():
    rng = np.random.default_rng(1)
    arrays = mlp_params(rng, [5, 7, 3], "net")
    x = rng.normal(size=(4, 5))
    hidden, out = mlp_elu(arrays, "net", x, 2)

    def elu(v):
        return np.where(v > 0, v, np.expm1(v))

    np.testing.assert_allclose(hidden, elu(x @ arrays["net.0.w"] + arrays["net.0.b"]), atol=1e-12)
    manual = elu(elu(x @ arrays["net.0.w"] + arrays["net.0.b"]) @ arrays["net.1.w"] + arrays["net.1.b"])
    np.testing.assert_allclose(out, manual, atol=1e-12)


def test_uniform_init_respects_fan_in_bound():
    rng = np.random.default_rng(2)
    w = uniform_init(rng, 16, (16, 64))
    assert np.all(np.abs(w) <= 1.0 / 4.0)
    assert np.std(w) > 0.05


# ---- Gaussian head ----------------------------------------------------


def test_log_prob_matches_hand_formula():
    rng = np.random.default_rng(3)
    mean = rng.normal(size=(8, 3))
    std = rng.uniform(0.2, 2.0, size=(8, 3))
    value = rng.normal(size=(8, 3))
    expect = (
        -0.5 * ((value - mean) / std) ** 2 - np.log(std) - 0.5 * np.log(2 * np.pi)
    ).sum(axis=-1)
    np.testing.assert_allclose(gaussian.log_prob_np(mean, std, value), expect, atol=1e-12)


def test_entropy_closed_form_and_monte_carlo():
    rng = np.random.default_rng(4)
    mean = np.array([[0.0, 1.0]])
    std = np.array([[0.7, 1.3]])
    h = float(gaussian.entropy(std)[0])
    expect = float(np.sum(0.5 * np.log(2 * np.pi * np.e * std**2)))
    assert abs(h - expect) < 1e-12
    draws = mean + std * rng.normal(size=(200_000, 2))
    mc = -gaussian.log_prob_np(mean, std, draws).mean()
    assert abs(mc - h) / h < 0.01


def test_gaussian_ops_reject_nonpositive_stddev():
    with pytest.raises(ValueError):
        gaussian.entropy(np.array([[0.0]]))
    with pytest.raises(ValueError):
        gaussian.entropy(np.array([[0.5, -1.0]]))


# ---- Adam -------------------------------------------------------------


def test_adam_zero_gradient_keeps_parameters():
    params = ParamSet({"w": np.array([1.0, -2.0])})
    state = AdamState.for_params(params)
    assert adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
    np.testing.assert_array_equal(params.arrays["w"], np.array([1.0, -2.0]))


def test_adam_first_step_matches_hand_computation():
    # with bias correction the first update is lr * g / (|g| + eps)
    g = np.array([0.3, -0.7, 2.0])
    params = ParamSet({"w": np.zeros(3)})
    state = AdamState.for_params(params)
    assert adam_step(params, {"w": g.copy()}, state, lr=0.01)
    expect = -0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(params.arrays["w"], expect, atol=1e-15)
    assert state.step == 1
    assert params.version == 1


def test_adam_two_steps_match_reference_recurrence():
    rng = np.random.default_rng(6)
    w0 = rng.normal(size=(4,))
    g1, g2 = rng.normal(size=(4,)), rng.normal(size=(4,))
    params = ParamSet({"w": w0.copy()})
    state = AdamState.for_params(params)
    adam_step(params, {"w": g1}, state, lr=0.05)
    adam_step(params, {"w": g2}, state, lr=0.05)

    m = np.zeros(4)
    v = np.zeros(4)
    w = w0.copy()
    for t, g in enumerate((g1, g2), start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w -= 0.05 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    np.testing.assert_allclose(params.arrays["w"], w, atol=1e-14)


def test_adam_rejects_nonfinite_gradients_without_side_effects():
    params = ParamSet({"w": np.array([1.0])})
    state = AdamState.for_params(params)
    applied = adam_step(params, {"w": np.array([np.nan])}, state, lr=0.1)
    assert not applied
    assert state.step == 0
    assert params.version == 0
    np.testing.assert_array_equal(params.arrays["w"], np.array([1.0]))


def test_adam_is_deterministic_bitwise():
    def run():
        params = ParamSet({"w": np.linspace(-1, 1, 8)})
        state = AdamState.for_params(params)
        for t in range(10):
            adam_step(params, {"w": np.sin(np.arange(8.0) + t)}, state, lr=0.003)
        return params.arrays["w"].tobytes()

    assert run() == run()


def test_adam_key_mismatch_rejected():
    params = ParamSet({"w": np.zeros(2)})
    state = AdamState.for_params(params)
    with pytest.raises(KeyError):
        adam_step(params, {"q": np.zeros(2)}, state, lr=0.1)


# ---- ParamSet serialisation -------------------------------------------


def test_paramset_roundtrip_bitwise():
    rng = np.random.default_rng(7)
    ps = ParamSet({"a.w": rng.normal(size=(3, 5)), "a.b": rng.normal(size=(5,)), "s": np.array(2.5)})
    ps.version = 17
    buf = io.BytesIO()
    ps.write_block(buf)
    raw = buf.getvalue()
    back = ParamSet.read_block(io.BytesIO(raw))
    assert back.version == 17
    assert set(back.arrays) == set(ps.arrays)
    for k in ps.arrays:
        assert back.arrays[k].tobytes() == ps.arrays[k].tobytes()
    # emit -> parse -> emit must reproduce the bytes exactly
    again = io.BytesIO()
    back.write_block(again)
    assert again.getvalue() == raw


def test_paramset_version_increases_on_update():
    ps = ParamSet({"w": np.zeros(2)})
    state = AdamState.for_params(ps)
    versions = [ps.version]
    for _ in range(3):
        adam_step(ps, {"w": np.ones(2)}, state, lr=0.1)
        versions.append(ps.version)
    assert versions == sorted(versions) and len(set(versions)) == 4


def test_paramset_rejects_corrupt_magic():
    with pytest.raises(ValueError):
        ParamSet.read_block(io.BytesIO(b"XXXX" + b"\x00" * 16))


def test_paramset_copy_from_requires_matching_names():
    a = ParamSet({"w": np.zeros(2)})
    b = ParamSet({"q": np.ones(2)})
    with pytest.raises(KeyError):
        a.copy_from(b)
