"""Gradient slots for the learner's two losses.

The layers (see layers.py) and nets carry their own backward passes, so no
op-level graph is recorded. A `Tensor` here is one of two things: a
parameter leaf from `wrap_leaves`, or a scalar loss over such leaves. A loss
holds the function that computes its gradient with respect to each leaf, by
name; `backward()` calls it and stores the results in the leaves' `.grad`.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


class Tensor:
    """A float64 array with a gradient slot: a parameter leaf or a loss."""

    __slots__ = ("data", "grad", "_leaves", "_grads_of")

    def __init__(
        self,
        data,
        leaves: dict[str, "Tensor"] | None = None,
        grads_of: Callable[[], dict[str, np.ndarray]] | None = None,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._leaves = leaves
        self._grads_of = grads_of

    def backward(self) -> None:
        """Add this loss's gradient with respect to each of its leaves to
        that leaf's `.grad`."""
        if self._grads_of is None:
            raise ValueError("backward() needs a loss; this tensor is a leaf")
        for name, grad in self._grads_of().items():
            leaf = self._leaves[name]
            leaf.grad = grad if leaf.grad is None else leaf.grad + grad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def wrap_leaves(params: dict[str, np.ndarray]) -> dict[str, Tensor]:
    """Wrap raw arrays as leaves so gradients can be collected by name."""
    return {name: Tensor(arr) for name, arr in params.items()}


def collect_grads(leaves: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients per parameter name after a backward pass (zeros where unused)."""
    return {
        name: (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data))
        for name, leaf in leaves.items()
    }
