"""Float64 tensor math, autodiff, Gaussian ops, Adam and checkpoint blocks."""

from . import gaussian
from .adam import AdamState, adam_step
from .autodiff import Tensor, amax, amin, concat, elu, mean, softplus, stack
from .layers import (
    collect_grads,
    linear,
    linear_params,
    lstm_params,
    lstm_step,
    mlp_elu,
    mlp_params,
    uniform_init,
    wrap_leaves,
    zero_state,
)
from .params import ParamSet

__all__ = [
    "AdamState",
    "ParamSet",
    "Tensor",
    "adam_step",
    "amax",
    "amin",
    "collect_grads",
    "concat",
    "elu",
    "gaussian",
    "linear",
    "linear_params",
    "lstm_params",
    "lstm_step",
    "mean",
    "mlp_elu",
    "mlp_params",
    "softplus",
    "stack",
    "uniform_init",
    "wrap_leaves",
    "zero_state",
]
