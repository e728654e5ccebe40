"""Float64 layers with their backward passes, Gaussian ops, Adam, gradient
slots for the losses and checkpoint blocks."""

from . import gaussian
from .adam import AdamState, adam_step
from .autodiff import Tensor, collect_grads, wrap_leaves
from .layers import (
    elu,
    elu_backward,
    linear,
    linear_backward,
    linear_params,
    lstm_params,
    lstm_step,
    lstm_step_backward,
    mlp_elu,
    mlp_elu_backward,
    mlp_params,
    uniform_init,
    zero_state,
)
from .params import ParamSet

__all__ = [
    "AdamState",
    "ParamSet",
    "Tensor",
    "adam_step",
    "collect_grads",
    "elu",
    "elu_backward",
    "gaussian",
    "linear",
    "linear_backward",
    "linear_params",
    "lstm_params",
    "lstm_step",
    "lstm_step_backward",
    "mlp_elu",
    "mlp_elu_backward",
    "mlp_params",
    "uniform_init",
    "wrap_leaves",
    "zero_state",
]
