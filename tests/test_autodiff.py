"""Gradient soundness against central finite differences: the reference
graph's ops (tests/reference_graph.py), each layer's backward pass, and the
nets' backward passes against the reference graph."""
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soccerlab.env import ACTION_DIM, OBS_DIM
from soccerlab.netcore import (
    elu,
    elu_backward,
    linear,
    linear_backward,
    linear_params,
    mlp_elu,
    mlp_elu_backward,
    mlp_params,
)
from soccerlab.nets import NONPLAYER_DIM, PLAYER_BLOCK_DIM, ArchSpec, CriticNet, PolicyNet, _encode, _encode_backward
from tests import reference_graph as graph
from tests.reference_graph import Tensor, concat, stack

FD_STEP = 1e-5
FD_RTOL = 1e-4


def finite_difference(fn, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn at x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x)
        flat[i] = orig - step
        lo = fn(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * step)
    return grad


def check_grad(make_graph, x: np.ndarray):
    """Compare autodiff gradient with finite differences at relative 1e-4."""
    leaf = Tensor(x.copy())
    make_graph(leaf).backward()
    fd = finite_difference(lambda arr: float(make_graph(Tensor(arr)).data), x.copy())
    scale = np.maximum(np.abs(fd), 1.0)
    np.testing.assert_allclose(leaf.grad, fd, atol=FD_RTOL, rtol=FD_RTOL, err_msg=str(scale))


UNARY_CASES = [
    ("exp", lambda t: t.exp().sum()),
    ("log_shifted", lambda t: ((t * t) + 0.5).log().sum()),
    ("tanh", lambda t: t.tanh().sum()),
    ("sigmoid", lambda t: t.sigmoid().sum()),
    ("elu", lambda t: t.elu().sum()),
    ("softplus", lambda t: t.softplus().sum()),
    ("square", lambda t: (t**2).sum()),
    ("reciprocal", lambda t: (1.0 / ((t * t) + 1.0)).sum()),
    ("mean_axis", lambda t: (t.mean(axis=0) ** 2).sum()),
    ("amax", lambda t: t.amax(axis=1).sum()),
    ("amin", lambda t: t.amin(axis=1).sum()),
    ("slice", lambda t: (t[:, 1:3] * 2.0).sum()),
    ("reshape", lambda t: (t.reshape(-1) ** 2).sum()),
]


@pytest.mark.parametrize("name,fn", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_gradients(name, fn):
    rng = np.random.default_rng(7)
    check_grad(fn, rng.normal(size=(4, 5)))


def test_matmul_and_bias_gradients():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 4))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=(3,))
    check_grad(lambda t: ((t @ Tensor(w) + Tensor(b)).tanh()).sum(), x)
    check_grad(lambda t: ((Tensor(x) @ t).elu()).sum(), w)
    # broadcast add: gradient for the bias must be summed over the batch.
    check_grad(lambda t: ((Tensor(x) @ Tensor(w) + t) ** 2).sum(), b)


def test_two_layer_forward_matches_matrix_chain():
    # linear layers with no activation collapse to a single matrix product
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 8))
    w1 = rng.normal(size=(8, 6))
    w2 = rng.normal(size=(6, 2))
    out = (Tensor(x) @ Tensor(w1)) @ Tensor(w2)
    np.testing.assert_allclose(out.data, x @ w1 @ w2, atol=1e-12)


def test_identity_layer_passes_input_through():
    x = np.arange(12.0).reshape(3, 4)
    out = Tensor(x) @ Tensor(np.eye(4)) + Tensor(np.zeros(4))
    np.testing.assert_array_equal(out.data, x)


def test_zero_weights_give_zero_output():
    x = np.random.default_rng(0).normal(size=(3, 4))
    out = Tensor(x) @ Tensor(np.zeros((4, 2))) + Tensor(np.zeros(2))
    np.testing.assert_array_equal(out.data, np.zeros((3, 2)))


def test_concat_and_stack_gradients():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 4))

    def via_concat(t):
        return (concat([t, Tensor(b)], axis=1) ** 2).sum()

    check_grad(via_concat, a)
    c = rng.normal(size=(3, 2))

    def via_stack(t):
        return stack([t, Tensor(c)], axis=1).amax(axis=1).sum()

    check_grad(via_stack, a.copy())


def test_gradient_accumulates_over_reused_tensor():
    x = Tensor(np.array([2.0, 3.0]))
    y = (x * x).sum() + (x * 4.0).sum()
    y.backward()
    np.testing.assert_allclose(x.grad, 2.0 * x.data + 4.0, atol=1e-12)


def test_backward_requires_scalar_or_matching_seed():
    t = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        (t * 2.0).backward()
    with pytest.raises(ValueError):
        (t * 2.0).backward(np.ones(3))


def test_matmul_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))


PLAIN_OPS = [
    ("add", lambda x: graph.add(x, 1.5)),
    ("sub", lambda x: graph.sub(x, x)),
    ("mul", lambda x: graph.mul(x, x)),
    ("div", lambda x: graph.div(1.0, x * x + 1.0)),
    ("power", lambda x: graph.power(x, 2)),
    ("matmul", lambda x: graph.matmul(x, np.linspace(-1.0, 1.0, 10).reshape(5, 2))),
    ("exp", graph.exp),
    ("log", lambda x: graph.log(x * x + 0.5)),
    ("tanh", graph.tanh),
    ("sigmoid", graph.sigmoid),
    ("elu", graph.elu),
    ("softplus", graph.softplus),
    ("sum", lambda x: graph.reduce_sum(x, axis=1)),
    ("mean", lambda x: graph.mean(x, axis=0)),
    ("amax", lambda x: graph.amax(x, axis=1)),
    ("amin", lambda x: graph.amin(x, axis=1)),
    ("reshape", lambda x: graph.reshape(x, -1)),
    ("getitem", lambda x: graph.getitem(x, (slice(None), slice(1, 3)))),
    ("concat", lambda x: concat([x, x], axis=1)),
    ("stack", lambda x: stack([x, x], axis=0)),
]


@pytest.mark.parametrize("name,op", PLAIN_OPS, ids=[c[0] for c in PLAIN_OPS])
def test_ops_on_ndarrays_return_ndarrays_and_build_no_graph(name, op, monkeypatch):
    built = []
    original = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    x = np.random.default_rng(1).normal(size=(4, 5))
    out = op(x)
    assert type(out) is np.ndarray
    assert built == []
    # The same op on a leaf records a graph with the same value.
    wrapped = op(Tensor(x))
    assert isinstance(wrapped, Tensor)
    assert wrapped.data.tobytes() == out.tobytes()


def test_ndarray_on_the_left_defers_to_the_tensor():
    x = np.arange(6.0).reshape(2, 3)
    w = Tensor(np.ones((3, 2)))
    out = x @ w + x[:, :2] * w[:2]
    assert isinstance(out, Tensor)
    out.sum().backward()
    # column sums of x from the product, plus x itself where w[:2] is used
    np.testing.assert_array_equal(w.grad, np.array([[3.0, 4.0], [8.0, 9.0], [7.0, 7.0]]))


def test_graph_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        x = Tensor(np.array([0.5, -1.0, 2.0]))
        w = Tensor(np.array([1.5, 0.25, -0.5]))
        loss = ((x * w).tanh() + 1.0).sum()
        loss.backward()
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_forward_determinism_bitwise():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(16, 8))
    w = rng.normal(size=(8, 8))

    def run():
        return ((Tensor(x) @ Tensor(w)).elu().sum()).data.copy()

    assert run().tobytes() == run().tobytes()


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_chained_ops_gradient_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))

    def graph(t):
        return ((t.tanh() * 0.5 + t.sigmoid()).softplus()).sum()

    check_grad(graph, x)


def test_deep_graph_backward_is_iterative():
    # 5000 chained ops would overflow a recursive traversal
    t = Tensor(np.array([1.0]))
    out = t
    for _ in range(5000):
        out = out * 1.0001
    out.sum().backward()
    assert np.isfinite(t.grad).all()


# ---- each layer's backward pass --------------------------------------------


def assert_matches_fd(analytic: np.ndarray, loss_of, x: np.ndarray, name: str = ""):
    """`analytic` against the central difference of the scalar loss_of(x)."""
    fd = finite_difference(loss_of, x.copy())
    np.testing.assert_allclose(analytic, fd, rtol=FD_RTOL, atol=1e-6, err_msg=name)


def check_param_grads(grads: dict, params: dict, loss_of_params, names=None):
    """Each named parameter gradient against central differences of
    loss_of_params(params) with that one array perturbed."""
    for name in names or params:

        def loss_of(arr, name=name):
            return loss_of_params({**params, name: arr})

        assert_matches_fd(grads[name], loss_of, params[name], name)


def test_linear_backward_matches_finite_differences():
    rng = np.random.default_rng(31)
    params = linear_params(rng, 5, 3, "l")
    x = rng.normal(size=(4, 5))
    r = rng.normal(size=(4, 3))
    grads = {}
    d_x = linear_backward(params, "l", x, r, grads)
    assert_matches_fd(d_x, lambda a: float((linear(params, "l", a) * r).sum()), x, "input")
    check_param_grads(grads, params, lambda p: float((linear(p, "l", x) * r).sum()))
    # Without a grads dict only the input gradient comes back.
    np.testing.assert_array_equal(linear_backward(params, "l", x, r), d_x)


def test_elu_backward_matches_finite_differences_on_both_signs():
    rng = np.random.default_rng(32)
    x = rng.normal(size=(6, 5))
    x[np.abs(x) < 0.01] = 0.5  # keep the kink out of the difference stencil
    assert (x > 0).any() and (x < 0).any()
    r = rng.normal(size=x.shape)
    d_x = elu_backward(elu(x), r)
    assert_matches_fd(d_x, lambda a: float((elu(a) * r).sum()), x)
    # Positive inputs pass the gradient through unchanged.
    np.testing.assert_array_equal(d_x[x > 0], r[x > 0])


def test_mlp_elu_backward_matches_finite_differences():
    rng = np.random.default_rng(33)
    params = mlp_params(rng, (5, 7, 6, 3), "net")
    x = rng.normal(size=(4, 5))
    r = rng.normal(size=(4, 3))
    outs = mlp_elu(params, "net", x, 3)
    assert [o.shape for o in outs] == [(4, 7), (4, 6), (4, 3)]
    grads = {}
    d_x = mlp_elu_backward(params, "net", x, outs, r, grads)
    assert_matches_fd(d_x, lambda a: float((mlp_elu(params, "net", a, 3)[-1] * r).sum()), x, "input")
    check_param_grads(grads, params, lambda p: float((mlp_elu(p, "net", x, 3)[-1] * r).sum()))


ARCH = ArchSpec(embed_sizes=(5, 4), trunk_sizes=(7,), core_size=6)
ARCH_LSTM = ArchSpec(embed_sizes=(5, 4), trunk_sizes=(7,), core_size=6, recurrent=True)


def embed_params(params: dict) -> dict:
    return {name: arr for name, arr in params.items() if name.startswith("embed.")}


def test_encode_backward_matches_finite_differences():
    rng = np.random.default_rng(34)
    params = PolicyNet(ARCH).init_params(rng).arrays
    obs = rng.normal(size=(3, OBS_DIM))
    features, cache = _encode(params, obs, 2)
    r = rng.normal(size=features.shape)
    grads = {}
    _encode_backward(params, cache, r, grads)
    assert set(grads) == set(embed_params(params))
    check_param_grads(grads, params, lambda p: float((_encode(p, obs, 2)[0] * r).sum()), embed_params(params))


def test_encode_backward_routes_tied_extremes_to_the_first_block():
    # With the last embedding layer's weights at zero every block embeds to
    # the same vector, so each pooled max and min is a three-way tie.
    rng = np.random.default_rng(35)
    params = PolicyNet(ARCH).init_params(rng).arrays
    params["embed.1.w"] = np.zeros_like(params["embed.1.w"])
    obs = rng.normal(size=(2, OBS_DIM))
    features, cache = _encode(params, obs, 2)
    d_features = rng.normal(size=features.shape)
    grads = {}
    _encode_backward(params, cache, d_features, grads)

    d_max, d_min, d_mean = np.split(d_features[:, NONPLAYER_DIM:], 3, axis=1)

    def routed_to(winner: int) -> dict:
        """Embedding gradients with the max and min gradients sent to `winner`."""
        routed = {}
        for k in range(3):
            block = obs[:, NONPLAYER_DIM + k * PLAYER_BLOCK_DIM :][:, :PLAYER_BLOCK_DIM]
            d_embed = d_mean / 3.0 + (d_max + d_min if k == winner else 0.0)
            mlp_elu_backward(params, "embed", block, mlp_elu(params, "embed", block, 2), d_embed, routed)
        return routed

    expected = routed_to(0)
    for name in expected:
        np.testing.assert_allclose(grads[name], expected[name], rtol=1e-12, atol=1e-15, err_msg=name)
    # The blocks' hidden activations differ, so another winner gives the
    # last layer another weight gradient.
    assert not np.allclose(grads["embed.1.w"], routed_to(1)["embed.1.w"])


def test_softplus_stddev_head_backward_matches_finite_differences():
    rng = np.random.default_rng(36)
    policy = PolicyNet(ARCH)
    params = policy.init_params(rng).arrays
    obs = rng.normal(size=(3, OBS_DIM))
    (mean, stddev), _, cache = policy.forward(params, obs)
    r = rng.normal(size=stddev.shape)
    grads = {}
    policy.backward(params, cache, (np.zeros_like(mean), r), None, grads)

    def loss_of(p):
        (_, stddev), _, _ = policy.forward(p, obs)
        return float((stddev * r).sum())

    check_param_grads(grads, params, loss_of, ["stddev.w", "stddev.b", "core.w", "trunk.0.b", "embed.0.w"])
    np.testing.assert_array_equal(grads["mean.w"], 0.0)


# ---- the nets' backward passes against the reference graph ---------------


@pytest.mark.parametrize("arch", [ARCH, ARCH_LSTM], ids=["ff", "lstm"])
@pytest.mark.parametrize("kind", ["policy", "critic"])
def test_net_backward_agrees_with_the_reference_graph(kind, arch):
    """Two carried steps of a net, every output weighted at random: the
    parameter (and action) gradients of backward() match the reference
    graph's to 1e-12, and the outputs match it bit for bit."""
    rng = np.random.default_rng(37)
    net = PolicyNet(arch) if kind == "policy" else CriticNet(arch, n_heads=3)
    params = net.init_params(rng).arrays
    obs = [rng.normal(size=(4, OBS_DIM)) for _ in range(2)]
    actions = [rng.normal(size=(4, ACTION_DIM)) for _ in range(2)]
    inputs = [(o,) if kind == "policy" else (o, a) for o, a in zip(obs, actions)]
    n_outs = 2 if kind == "policy" else 1
    weights = [[rng.normal(size=(4, ACTION_DIM if kind == "policy" else 3)) for _ in range(n_outs)] for _ in range(2)]

    leaves = {name: Tensor(arr) for name, arr in params.items()}
    action_leaves = [Tensor(a) for a in actions]
    reference = graph.policy_forward if kind == "policy" else graph.critic_forward
    state, loss, ref_outs = None, 0.0, []
    for step in range(2):
        args = inputs[step] if kind == "policy" else (obs[step], action_leaves[step])
        *outs, state = reference(net, leaves, *args, state)
        ref_outs.append(outs)
        for out, w in zip(outs, weights[step]):
            loss = loss + (out * w).sum()
    loss.backward()

    state, caches = None, []
    for step in range(2):
        outs, state, cache = net.forward(params, *inputs[step], state)
        caches.append(cache)
        for out, ref in zip(outs, ref_outs[step], strict=True):
            assert out.tobytes() == ref.data.tobytes()
    grads, d_state, d_actions = {}, None, []
    for step in (1, 0):
        d_action, d_state = net.backward(params, caches[step], tuple(weights[step]), d_state, grads)
        d_actions.insert(0, d_action)
    for name, leaf in leaves.items():
        np.testing.assert_allclose(grads[name], leaf.grad, rtol=1e-12, atol=1e-15, err_msg=name)
    if kind == "critic":
        for d_action, leaf in zip(d_actions, action_leaves):
            np.testing.assert_allclose(d_action, leaf.grad, rtol=1e-12, atol=1e-15)
    else:
        assert d_actions == [None, None]
