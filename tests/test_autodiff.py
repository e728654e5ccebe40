"""Gradient soundness of the tensor core against central finite differences."""
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soccerlab.netcore import Tensor, autodiff, concat, stack

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
    ("add", lambda x: autodiff.add(x, 1.5)),
    ("sub", lambda x: autodiff.sub(x, x)),
    ("mul", lambda x: autodiff.mul(x, x)),
    ("div", lambda x: autodiff.div(1.0, x * x + 1.0)),
    ("power", lambda x: autodiff.power(x, 2)),
    ("matmul", lambda x: autodiff.matmul(x, np.linspace(-1.0, 1.0, 10).reshape(5, 2))),
    ("exp", autodiff.exp),
    ("log", lambda x: autodiff.log(x * x + 0.5)),
    ("tanh", autodiff.tanh),
    ("sigmoid", autodiff.sigmoid),
    ("elu", autodiff.elu),
    ("softplus", autodiff.softplus),
    ("sum", lambda x: autodiff.reduce_sum(x, axis=1)),
    ("mean", lambda x: autodiff.mean(x, axis=0)),
    ("amax", lambda x: autodiff.amax(x, axis=1)),
    ("amin", lambda x: autodiff.amin(x, axis=1)),
    ("reshape", lambda x: autodiff.reshape(x, -1)),
    ("getitem", lambda x: autodiff.getitem(x, (slice(None), slice(1, 3)))),
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
