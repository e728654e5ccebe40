"""Network building blocks: fan-in uniform init, linear/MLP layers, an LSTM cell.

Parameters live in plain dicts of float64 arrays (see params.ParamSet).
Each layer is a forward on plain arrays plus a hand-derived backward. The
forward returns what its backward needs; the backward maps the gradient of
the layer's output to the gradient of its input and, when it is given a
`grads` dict, adds the parameter gradients into it by name.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


def uniform_init(rng: np.random.Generator, fan_in: int, shape: tuple) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)), the init used everywhere here."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _add_grad(grads: dict, name: str, grad: np.ndarray) -> None:
    grads[name] = grads[name] + grad if name in grads else grad


def linear_params(rng: np.random.Generator, n_in: int, n_out: int, prefix: str) -> dict[str, np.ndarray]:
    return {
        f"{prefix}.w": uniform_init(rng, n_in, (n_in, n_out)),
        f"{prefix}.b": uniform_init(rng, n_in, (n_out,)),
    }


def linear(params: dict, prefix: str, x: np.ndarray) -> np.ndarray:
    return x @ params[f"{prefix}.w"] + params[f"{prefix}.b"]


def linear_backward(params: dict, prefix: str, x: np.ndarray, d_out: np.ndarray, grads: dict | None = None) -> np.ndarray:
    """Gradient at the input `x` of linear(); weight and bias gradients go to `grads`."""
    if grads is not None:
        _add_grad(grads, f"{prefix}.w", x.T @ d_out)
        _add_grad(grads, f"{prefix}.b", d_out.sum(axis=0))
    return d_out @ params[f"{prefix}.w"].T


def elu(x: np.ndarray) -> np.ndarray:
    # expm1 overflows on the large positive entries np.where discards
    with np.errstate(over="ignore"):
        return np.where(x > 0.0, x, np.expm1(x))


def elu_backward(out: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Gradient at the input of elu() from its output `out`."""
    return d_out * np.where(out > 0.0, 1.0, out + 1.0)


def mlp_params(rng: np.random.Generator, sizes: Sequence[int], prefix: str) -> dict[str, np.ndarray]:
    """Parameters for a stack of linear layers sized sizes[0] -> ... -> sizes[-1]."""
    params: dict[str, np.ndarray] = {}
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        params.update(linear_params(rng, n_in, n_out, f"{prefix}.{i}"))
    return params


def mlp_elu(params: dict, prefix: str, x: np.ndarray, n_layers: int) -> list[np.ndarray]:
    """n_layers linear layers with Elu after every one of them; returns the
    activation of every layer, the output last."""
    outs = []
    for i in range(n_layers):
        x = elu(linear(params, f"{prefix}.{i}", x))
        outs.append(x)
    return outs


def mlp_elu_backward(
    params: dict, prefix: str, x: np.ndarray, outs: list, d_out: np.ndarray, grads: dict | None = None
) -> np.ndarray:
    """Gradient at the input `x` of mlp_elu() from its activations `outs`."""
    for i in range(len(outs) - 1, -1, -1):
        layer_in = outs[i - 1] if i else x
        d_out = linear_backward(params, f"{prefix}.{i}", layer_in, elu_backward(outs[i], d_out), grads)
    return d_out


def lstm_params(rng: np.random.Generator, n_in: int, n_hidden: int, prefix: str) -> dict[str, np.ndarray]:
    """Gate order in the stacked 4h dimension is input, forget, cell, output."""
    return {
        f"{prefix}.wx": uniform_init(rng, n_in, (n_in, 4 * n_hidden)),
        f"{prefix}.wh": uniform_init(rng, n_hidden, (n_hidden, 4 * n_hidden)),
        f"{prefix}.b": uniform_init(rng, n_in, (4 * n_hidden,)),
    }


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def lstm_step(params: dict, prefix: str, x: np.ndarray, state: tuple, n_hidden: int) -> tuple:
    """One LSTM cell step; returns (output, (hidden, cell), cache)."""
    h_prev, c_prev = state
    z = x @ params[f"{prefix}.wx"] + h_prev @ params[f"{prefix}.wh"] + params[f"{prefix}.b"]
    i = _sigmoid(z[:, 0 * n_hidden : 1 * n_hidden])
    f = _sigmoid(z[:, 1 * n_hidden : 2 * n_hidden])
    g = np.tanh(z[:, 2 * n_hidden : 3 * n_hidden])
    o = _sigmoid(z[:, 3 * n_hidden : 4 * n_hidden])
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    return h, (h, c), (x, h_prev, c_prev, i, f, g, o, tanh_c)


def lstm_step_backward(
    params: dict, prefix: str, cache: tuple, d_out: np.ndarray, d_state: tuple | None, grads: dict | None = None
) -> tuple:
    """Gradients at the input and at the incoming (hidden, cell) state of one
    lstm_step(), from the gradient of its output and of the state it passed
    on (None when no later step used it); Greff et al., arXiv 1503.04069."""
    x, h_prev, c_prev, i, f, g, o, tanh_c = cache
    d_h = d_out if d_state is None else d_out + d_state[0]
    d_c = d_h * o * (1.0 - tanh_c * tanh_c)
    if d_state is not None:
        d_c = d_c + d_state[1]
    d_z = np.concatenate(
        [
            d_c * g * i * (1.0 - i),
            d_c * c_prev * f * (1.0 - f),
            d_c * i * (1.0 - g * g),
            d_h * tanh_c * o * (1.0 - o),
        ],
        axis=1,
    )
    if grads is not None:
        _add_grad(grads, f"{prefix}.wx", x.T @ d_z)
        _add_grad(grads, f"{prefix}.wh", h_prev.T @ d_z)
        _add_grad(grads, f"{prefix}.b", d_z.sum(axis=0))
    return d_z @ params[f"{prefix}.wx"].T, (d_z @ params[f"{prefix}.wh"].T, d_c * f)


def zero_state(batch: int, n_hidden: int) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros((batch, n_hidden)), np.zeros((batch, n_hidden))
