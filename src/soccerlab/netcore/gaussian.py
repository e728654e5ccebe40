"""Diagonal Gaussian operations used by the stochastic policy heads.

Shapes are (..., action_dim) with the action dimension reduced away.
`entropy` is written in autodiff ops, so it returns an ndarray for an
ndarray and a Tensor for a Tensor; `log_prob_np` works on plain arrays only.
"""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor, log

LOG_TWO_PI = float(np.log(2.0 * np.pi))


def entropy(stddev):
    """Closed-form entropy: sum over dims of 0.5 * log(2 pi e sigma^2)."""
    values = stddev.data if isinstance(stddev, Tensor) else stddev
    if np.any(values <= 0.0):
        raise ValueError("stddev must be strictly positive")
    per_dim = log(stddev) + 0.5 * (LOG_TWO_PI + 1.0)
    return per_dim.sum(axis=-1)


def log_prob_np(mean: np.ndarray, stddev: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Log density of `value` summed over the action dimension, for hot
    paths that never need gradients."""
    z = (value - mean) / stddev
    return (-0.5 * z * z - np.log(stddev) - 0.5 * LOG_TWO_PI).sum(axis=-1)
