"""Reverse-mode automatic differentiation over float64 numpy arrays.

Every op computes its value from plain arrays. When at least one operand is
a Tensor, the op also records a graph node that links the result to its
Tensor operands; ndarray and scalar operands are constants and take no part
in the graph. The same layer code therefore returns an ndarray from ndarray
inputs (inference builds no graph at all) and a Tensor from wrapped leaves
(training). Calling backward() on a scalar result walks the recorded graph
in reverse topological order and accumulates gradients into every
participating tensor. All arithmetic stays in float64 so finite-difference
checks remain meaningful.

A node's backward functions map the upstream gradient to one operand's
gradient and never refer to the node itself, so a graph holds no reference
cycle and is freed by reference counting once its last handle goes.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Node in the autodiff graph; `data` is an ndarray, `grad` matches it.

    `_edges` pairs each Tensor operand with the function that maps this
    node's gradient to that operand's gradient; a leaf has none.
    """

    __slots__ = ("data", "grad", "_edges")
    # An ndarray on the left of an operator defers to the Tensor's reflected
    # op instead of building an object array.
    __array_ufunc__ = None

    def __init__(self, data, edges: Sequence[tuple["Tensor", Callable]] = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._edges = edges

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, gradient=None) -> None:
        """Seed this tensor with `gradient` (ones for scalars) and backpropagate."""
        if gradient is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient requires a scalar tensor")
            gradient = np.ones_like(self.data)
        gradient = np.asarray(gradient, dtype=np.float64)
        if gradient.shape != self.data.shape:
            raise ValueError(
                f"upstream gradient shape {gradient.shape} does not match tensor shape {self.data.shape}"
            )
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._edges:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(gradient)
        for node in reversed(order):
            for parent, backward in node._edges:
                parent._accumulate(backward(node.grad))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def _data(x):
    return x.data if isinstance(x, Tensor) else x


def _node(value, *edges):
    """`value` as a graph node over those (operand, backward) edges whose
    operand is a Tensor, or `value` itself when no operand is one."""
    edges = [edge for edge in edges if isinstance(edge[0], Tensor)]
    return Tensor(value, edges) if edges else value


# ---- arithmetic -----------------------------------------------------------


def add(a, b):
    a_data, b_data = _data(a), _data(b)
    return _node(
        a_data + b_data,
        (a, lambda g: _unbroadcast(g, a_data.shape)),
        (b, lambda g: _unbroadcast(g, b_data.shape)),
    )


def neg(x):
    return _node(-_data(x), (x, lambda g: -g))


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    a_data, b_data = _data(a), _data(b)
    return _node(
        a_data * b_data,
        (a, lambda g: _unbroadcast(g * b_data, a_data.shape)),
        (b, lambda g: _unbroadcast(g * a_data, b_data.shape)),
    )


def div(a, b):
    a_data, b_data = _data(a), _data(b)
    return _node(
        a_data / b_data,
        (a, lambda g: _unbroadcast(g / b_data, a_data.shape)),
        (b, lambda g: _unbroadcast(-g * a_data / (b_data * b_data), b_data.shape)),
    )


def power(x, exponent: float):
    if not isinstance(exponent, (int, float)):
        raise TypeError("only scalar exponents are supported")
    data = _data(x)
    return _node(data**exponent, (x, lambda g: g * exponent * data ** (exponent - 1)))


def matmul(a, b):
    a_data, b_data = _data(a), _data(b)
    if a_data.ndim != 2 or b_data.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a_data.shape} @ {b_data.shape}")
    if a_data.shape[1] != b_data.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a_data.shape} @ {b_data.shape}")
    return _node(
        a_data @ b_data,
        (a, lambda g: g @ b_data.T),
        (b, lambda g: a_data.T @ g),
    )


# ---- elementwise nonlinearities -------------------------------------------


def exp(x):
    value = np.exp(_data(x))
    return _node(value, (x, lambda g: g * value))


def log(x):
    data = _data(x)
    return _node(np.log(data), (x, lambda g: g / data))


def tanh(x):
    value = np.tanh(_data(x))
    return _node(value, (x, lambda g: g * (1.0 - value * value)))


def sigmoid(x):
    value = 1.0 / (1.0 + np.exp(-_data(x)))
    return _node(value, (x, lambda g: g * value * (1.0 - value)))


def elu(x):
    data = _data(x)
    pos = data > 0.0
    # expm1 overflows on the large positive entries np.where discards
    with np.errstate(over="ignore"):
        value = np.where(pos, data, np.expm1(data))
    return _node(value, (x, lambda g: g * np.where(pos, 1.0, value + 1.0)))


def softplus(x):
    data = _data(x)
    return _node(np.logaddexp(0.0, data), (x, lambda g: g / (1.0 + np.exp(-data))))


# ---- reductions -----------------------------------------------------------


def reduce_sum(x, axis=None, keepdims: bool = False):
    data = _data(x)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, data.shape).copy()

    return _node(data.sum(axis=axis, keepdims=keepdims), (x, backward))


def mean(x, axis=None, keepdims: bool = False):
    """Sum times 1/count; ndarray.mean rounds differently, so every mean in
    the networks goes through here whatever its operand."""
    data = _data(x)
    count = data.size if axis is None else data.shape[axis]
    return mul(reduce_sum(x, axis=axis, keepdims=keepdims), 1.0 / count)


def _extreme(x, axis: int, pick):
    data = _data(x)
    idx = np.expand_dims(pick(data, axis=axis), axis)

    def backward(g):
        grad = np.zeros_like(data)
        np.put_along_axis(grad, idx, np.expand_dims(g, axis), axis)
        return grad

    return _node(np.take_along_axis(data, idx, axis).squeeze(axis), (x, backward))


def amax(x, axis: int):
    """Maximum along an axis; ties route the gradient to the first argmax."""
    return _extreme(x, axis, np.argmax)


def amin(x, axis: int):
    return _extreme(x, axis, np.argmin)


# ---- shape manipulation ---------------------------------------------------


def reshape(x, *shape):
    data = _data(x)
    return _node(data.reshape(*shape), (x, lambda g: g.reshape(data.shape)))


def getitem(x, key):
    data = _data(x)

    def backward(g):
        grad = np.zeros_like(data)
        grad[key] = g
        return grad

    return _node(data[key], (x, backward))


def concat(parts: list, axis: int = -1):
    datas = [_data(p) for p in parts]
    value = np.concatenate(datas, axis=axis)
    axis %= value.ndim
    edges = []
    lo = 0
    for part, data in zip(parts, datas):
        index = (slice(None),) * axis + (slice(lo, lo + data.shape[axis]),)
        edges.append((part, lambda g, index=index: g[index]))
        lo += data.shape[axis]
    return _node(value, *edges)


def stack(parts: list, axis: int = 0):
    value = np.stack([_data(p) for p in parts], axis=axis)
    edges = [(part, lambda g, i=i: np.take(g, i, axis=axis)) for i, part in enumerate(parts)]
    return _node(value, *edges)


# Operator and method spellings of the ops on Tensor operands.
Tensor.__add__ = Tensor.__radd__ = add
Tensor.__neg__ = neg
Tensor.__sub__ = sub
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = Tensor.__rmul__ = mul
Tensor.__truediv__ = div
Tensor.__rtruediv__ = lambda self, other: div(other, self)
Tensor.__pow__ = power
Tensor.__matmul__ = matmul
Tensor.__rmatmul__ = lambda self, other: matmul(other, self)
Tensor.__getitem__ = getitem
Tensor.exp = exp
Tensor.log = log
Tensor.tanh = tanh
Tensor.sigmoid = sigmoid
Tensor.elu = elu
Tensor.softplus = softplus
Tensor.sum = reduce_sum
Tensor.mean = mean
Tensor.amax = amax
Tensor.amin = amin
Tensor.reshape = reshape
