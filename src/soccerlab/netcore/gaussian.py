"""Diagonal Gaussian operations used by the stochastic policy heads.

Shapes are (..., action_dim) with the action dimension reduced away.
"""
from __future__ import annotations

import numpy as np

LOG_TWO_PI = float(np.log(2.0 * np.pi))


def entropy(stddev: np.ndarray) -> np.ndarray:
    """Closed-form entropy: sum over dims of 0.5 * log(2 pi e sigma^2)."""
    if np.any(stddev <= 0.0):
        raise ValueError("stddev must be strictly positive")
    return (np.log(stddev) + 0.5 * (LOG_TWO_PI + 1.0)).sum(axis=-1)


def log_prob_np(mean: np.ndarray, stddev: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Log density of `value` summed over the action dimension."""
    z = (value - mean) / stddev
    return (-0.5 * z * z - np.log(stddev) - 0.5 * LOG_TWO_PI).sum(axis=-1)
