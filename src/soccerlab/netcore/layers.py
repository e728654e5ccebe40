"""Network building blocks: fan-in uniform init, linear/MLP layers, an LSTM cell.

Parameters live in plain dicts of float64 arrays (see params.ParamSet).
The layers are written once in autodiff ops: given those arrays they run
plain numpy, and given the leaves from wrap_leaves() they record the graph
that backward() needs, so one code path serves inference and training.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor, elu, sigmoid, tanh


def uniform_init(rng: np.random.Generator, fan_in: int, shape: tuple) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)), the init used everywhere here."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def linear_params(rng: np.random.Generator, n_in: int, n_out: int, prefix: str) -> dict[str, np.ndarray]:
    return {
        f"{prefix}.w": uniform_init(rng, n_in, (n_in, n_out)),
        f"{prefix}.b": uniform_init(rng, n_in, (n_out,)),
    }


def linear(params: dict, prefix: str, x):
    return x @ params[f"{prefix}.w"] + params[f"{prefix}.b"]


def mlp_params(rng: np.random.Generator, sizes: Sequence[int], prefix: str) -> dict[str, np.ndarray]:
    """Parameters for a stack of linear layers sized sizes[0] -> ... -> sizes[-1]."""
    params: dict[str, np.ndarray] = {}
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        params.update(linear_params(rng, n_in, n_out, f"{prefix}.{i}"))
    return params


def mlp_elu(params: dict, prefix: str, x, n_layers: int):
    """Apply n_layers linear layers with Elu after every one of them."""
    h = x
    for i in range(n_layers):
        h = elu(linear(params, f"{prefix}.{i}", h))
    return h


def lstm_params(rng: np.random.Generator, n_in: int, n_hidden: int, prefix: str) -> dict[str, np.ndarray]:
    """Gate order in the stacked 4h dimension is input, forget, cell, output."""
    return {
        f"{prefix}.wx": uniform_init(rng, n_in, (n_in, 4 * n_hidden)),
        f"{prefix}.wh": uniform_init(rng, n_hidden, (n_hidden, 4 * n_hidden)),
        f"{prefix}.b": uniform_init(rng, n_in, (4 * n_hidden,)),
    }


def lstm_step(params: dict, prefix: str, x, state: tuple, n_hidden: int) -> tuple:
    """One LSTM cell step; returns (output, (hidden, cell))."""
    h_prev, c_prev = state
    z = x @ params[f"{prefix}.wx"] + h_prev @ params[f"{prefix}.wh"] + params[f"{prefix}.b"]
    i = sigmoid(z[:, 0 * n_hidden : 1 * n_hidden])
    f = sigmoid(z[:, 1 * n_hidden : 2 * n_hidden])
    g = tanh(z[:, 2 * n_hidden : 3 * n_hidden])
    o = sigmoid(z[:, 3 * n_hidden : 4 * n_hidden])
    c = f * c_prev + i * g
    h = o * tanh(c)
    return h, (h, c)


def zero_state(batch: int, n_hidden: int) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros((batch, n_hidden)), np.zeros((batch, n_hidden))


def wrap_leaves(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """Wrap raw arrays as graph leaves so gradients can be collected by name."""
    return {name: Tensor(arr) for name, arr in params.items()}


def collect_grads(leaves: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients per parameter name after a backward pass (zeros where unused)."""
    return {
        name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
        for name, leaf in leaves.items()
    }
