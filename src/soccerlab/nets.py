"""Policy and critic networks over the 40-dim egocentric observation.

Both nets share one encoder shape: the three other-player blocks are embedded
by a shared MLP and pooled jointly (max, min, mean per dimension), so the
encoder is invariant to any permutation of the other players; the pooled
features are concatenated with the non-player part of the observation.  A
feedforward trunk follows, then a core layer that is either one more Elu
layer or an LSTM cell, selected per net.  The policy emits a diagonal
Gaussian (stddev through softplus plus a floor); the critic appends the
action after the encoder and emits one value per reward channel.

Parameters are flat name->array ParamSets.  Each net has one `forward` on
plain arrays, which returns its outputs, its new recurrent state and a
cache; `backward` maps the gradients of those outputs and of that state
back to the incoming state (and, for the critic, the action) and adds the
parameter gradients into a dict when it is given one.  `apply` is `forward`
without the cache.  The module also defines the agent checkpoint container:
a JSON meta record plus named ParamSet blocks in one file.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from . import records
from .env import ACTION_DIM, NONPLAYER_DIM, OBS_DIM, PLAYER_BLOCK_DIM
from .netcore import (
    ParamSet,
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
)
from .netcore import zero_state as _lstm_zero_state

# Observation split (see env.sim's layout): leading block is the player's
# own view of itself, the ball and the pitch; the trailing three 6-dim blocks
# describe the teammate and the two opponents.
N_OTHER_PLAYERS = 3
assert NONPLAYER_DIM + N_OTHER_PLAYERS * PLAYER_BLOCK_DIM == OBS_DIM


@dataclass(frozen=True)
class ArchSpec:
    """Sizes of one net; topology only, head details live on the net class."""

    embed_sizes: tuple[int, ...] = (32, 16)
    trunk_sizes: tuple[int, ...] = (512, 256)
    core_size: int = 256
    recurrent: bool = False

    def __post_init__(self):
        object.__setattr__(self, "embed_sizes", tuple(int(n) for n in self.embed_sizes))
        object.__setattr__(self, "trunk_sizes", tuple(int(n) for n in self.trunk_sizes))
        object.__setattr__(self, "core_size", int(self.core_size))
        object.__setattr__(self, "recurrent", bool(self.recurrent))
        if not self.embed_sizes or not self.trunk_sizes:
            raise ValueError("embed_sizes and trunk_sizes must be non-empty")

    @property
    def encoder_dim(self) -> int:
        # max, min and mean over the player embeddings, next to the raw
        # non-player features.
        return NONPLAYER_DIM + 3 * self.embed_sizes[-1]

    to_json = records.to_json
    from_json = classmethod(records.from_json)


def desk_arch(recurrent: bool = False) -> ArchSpec:
    """Small trunk for desk-scale runs; same family as the default sizes."""
    return ArchSpec(embed_sizes=(24, 12), trunk_sizes=(64, 64), core_size=64, recurrent=recurrent)


def _encode(params: dict, obs: np.ndarray, n_embed_layers: int) -> tuple:
    """Shared-embedding joint pool; returns the features [batch,
    NONPLAYER_DIM + 3*embed] and the cache `_encode_backward` needs."""
    nonplayer = obs[:, :NONPLAYER_DIM]
    blocks, embeds = [], []
    for k in range(N_OTHER_PLAYERS):
        lo = NONPLAYER_DIM + k * PLAYER_BLOCK_DIM
        blocks.append(obs[:, lo : lo + PLAYER_BLOCK_DIM])
        embeds.append(mlp_elu(params, "embed", blocks[-1], n_embed_layers))
    stacked = np.stack([outs[-1] for outs in embeds], axis=0)
    first_max = np.argmax(stacked, axis=0)[None]
    first_min = np.argmin(stacked, axis=0)[None]
    pooled = [
        np.take_along_axis(stacked, first_max, 0)[0],
        np.take_along_axis(stacked, first_min, 0)[0],
        stacked.sum(axis=0) * (1.0 / N_OTHER_PLAYERS),
    ]
    return np.concatenate([nonplayer, *pooled], axis=-1), (blocks, embeds, first_max, first_min)


def _encode_backward(params: dict, cache: tuple, d_features: np.ndarray, grads: dict) -> None:
    """Add the embedding's parameter gradients to `grads`.  The max and min
    gradients go to the first block that attains the extreme, the mean's
    to every block in thirds."""
    blocks, embeds, first_max, first_min = cache
    d_max, d_min, d_mean = np.split(d_features[:, NONPLAYER_DIM:], 3, axis=-1)
    d_stacked = np.repeat(d_mean[None] * (1.0 / N_OTHER_PLAYERS), N_OTHER_PLAYERS, axis=0)
    for first, d_extreme in ((first_max, d_max), (first_min, d_min)):
        np.put_along_axis(d_stacked, first, np.take_along_axis(d_stacked, first, 0) + d_extreme, 0)
    for block, outs, d_embed in zip(blocks, embeds, d_stacked):
        mlp_elu_backward(params, "embed", block, outs, d_embed, grads)


def _core_params(rng: np.random.Generator, arch: ArchSpec) -> dict[str, np.ndarray]:
    n_in = arch.trunk_sizes[-1]
    if arch.recurrent:
        return lstm_params(rng, n_in, arch.core_size, "core")
    return linear_params(rng, n_in, arch.core_size, "core")


def _core_forward(params: dict, arch: ArchSpec, x: np.ndarray, state) -> tuple:
    """(output, new_state, cache) of the core layer."""
    if arch.recurrent:
        if state is None:
            state = _lstm_zero_state(x.shape[0], arch.core_size)
        return lstm_step(params, "core", x, state, arch.core_size)
    out = elu(linear(params, "core", x))
    return out, None, (x, out)


def _core_backward(params: dict, arch: ArchSpec, cache: tuple, d_out: np.ndarray, d_state, grads) -> tuple:
    """(gradient at the core's input, gradient at its incoming state)."""
    if arch.recurrent:
        return lstm_step_backward(params, "core", cache, d_out, d_state, grads)
    x, out = cache
    return linear_backward(params, "core", x, elu_backward(out, d_out), grads), None


class PolicyNet:
    """Gaussian policy: observation -> (mean, stddev) over the action space."""

    def __init__(self, arch: ArchSpec, stddev_floor: float = 1e-3):
        if stddev_floor <= 0.0:
            raise ValueError("stddev_floor must be positive")
        self.arch = arch
        self.stddev_floor = float(stddev_floor)

    def init_params(self, rng: np.random.Generator) -> ParamSet:
        arch = self.arch
        arrays = mlp_params(rng, (PLAYER_BLOCK_DIM, *arch.embed_sizes), "embed")
        arrays.update(mlp_params(rng, (arch.encoder_dim, *arch.trunk_sizes), "trunk"))
        arrays.update(_core_params(rng, arch))
        arrays.update(linear_params(rng, arch.core_size, ACTION_DIM, "mean"))
        arrays.update(linear_params(rng, arch.core_size, ACTION_DIM, "stddev"))
        return ParamSet(arrays)

    def zero_state(self, batch: int) -> tuple[np.ndarray, np.ndarray] | None:
        if self.arch.recurrent:
            return _lstm_zero_state(batch, self.arch.core_size)
        return None

    def forward(self, params: dict, obs: np.ndarray, state=None) -> tuple:
        """((mean, stddev), new_state, cache)."""
        arch = self.arch
        encoded, encode_cache = _encode(params, obs, len(arch.embed_sizes))
        trunk = mlp_elu(params, "trunk", encoded, len(arch.trunk_sizes))
        core, new_state, core_cache = _core_forward(params, arch, trunk[-1], state)
        mean = linear(params, "mean", core)
        pre_stddev = linear(params, "stddev", core)
        stddev = np.logaddexp(0.0, pre_stddev) + self.stddev_floor
        return (mean, stddev), new_state, (encode_cache, encoded, trunk, core_cache, core, pre_stddev)

    def backward(self, params: dict, cache: tuple, d_outs: tuple, d_state, grads: dict | None) -> tuple:
        """(None, gradient at the incoming state) from the gradients of
        forward()'s (mean, stddev) and new state; parameter gradients are
        added to `grads`."""
        encode_cache, encoded, trunk, core_cache, core, pre_stddev = cache
        d_mean, d_stddev = d_outs
        d_pre_stddev = d_stddev / (1.0 + np.exp(-pre_stddev))
        d_core = linear_backward(params, "mean", core, d_mean, grads) + linear_backward(
            params, "stddev", core, d_pre_stddev, grads
        )
        d_trunk, d_state_in = _core_backward(params, self.arch, core_cache, d_core, d_state, grads)
        d_encoded = mlp_elu_backward(params, "trunk", encoded, trunk, d_trunk, grads)
        _encode_backward(params, encode_cache, d_encoded, grads)
        return None, d_state_in

    def apply(
        self,
        params: ParamSet,
        obs: np.ndarray,
        state=None,
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
        """Inference path: plain arrays in, (mean, stddev, new_state) out."""
        (mean, stddev), new_state, _ = self.forward(params.arrays, obs, state)
        return mean, stddev, new_state


class CriticNet:
    """Action-value net: (observation, action) -> one value per reward channel."""

    def __init__(self, arch: ArchSpec, n_heads: int = 4):
        if n_heads < 1:
            raise ValueError("n_heads must be at least 1")
        self.arch = arch
        self.n_heads = int(n_heads)

    def init_params(self, rng: np.random.Generator) -> ParamSet:
        arch = self.arch
        arrays = mlp_params(rng, (PLAYER_BLOCK_DIM, *arch.embed_sizes), "embed")
        # The action joins after the encoder, not in the raw observation.
        arrays.update(mlp_params(rng, (arch.encoder_dim + ACTION_DIM, *arch.trunk_sizes), "trunk"))
        arrays.update(_core_params(rng, arch))
        arrays.update(linear_params(rng, arch.core_size, self.n_heads, "q"))
        return ParamSet(arrays)

    def zero_state(self, batch: int) -> tuple[np.ndarray, np.ndarray] | None:
        if self.arch.recurrent:
            return _lstm_zero_state(batch, self.arch.core_size)
        return None

    def forward(self, params: dict, obs: np.ndarray, action: np.ndarray, state=None) -> tuple:
        """((q,), new_state, cache)."""
        arch = self.arch
        encoded, encode_cache = _encode(params, obs, len(arch.embed_sizes))
        trunk_in = np.concatenate([encoded, action], axis=-1)
        trunk = mlp_elu(params, "trunk", trunk_in, len(arch.trunk_sizes))
        core, new_state, core_cache = _core_forward(params, arch, trunk[-1], state)
        return (linear(params, "q", core),), new_state, (encode_cache, trunk_in, trunk, core_cache, core)

    def backward(self, params: dict, cache: tuple, d_outs: tuple, d_state, grads: dict | None) -> tuple:
        """(gradient at the action, gradient at the incoming state) from the
        gradients of forward()'s (q,) and new state.  Parameter gradients
        are added to `grads`; with `grads=None` the encoder is skipped."""
        encode_cache, trunk_in, trunk, core_cache, core = cache
        (d_q,) = d_outs
        d_core = linear_backward(params, "q", core, d_q, grads)
        d_trunk, d_state_in = _core_backward(params, self.arch, core_cache, d_core, d_state, grads)
        d_trunk_in = mlp_elu_backward(params, "trunk", trunk_in, trunk, d_trunk, grads)
        if grads is not None:
            _encode_backward(params, encode_cache, d_trunk_in[:, : self.arch.encoder_dim], grads)
        return d_trunk_in[:, self.arch.encoder_dim :], d_state_in

    def apply(
        self,
        params: ParamSet,
        obs: np.ndarray,
        action: np.ndarray,
        state=None,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
        (q,), new_state, _ = self.forward(params.arrays, obs, action, state)
        return q, new_state


# Checkpoint container: magic, u64 format version, canonical JSON meta, then
# named ParamSet blocks sorted by name.
CHECKPOINT_MAGIC = b"SLCK"
CHECKPOINT_VERSION = 1


def _canonical_meta(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")


def save_checkpoint(path, meta: dict, blocks: dict[str, ParamSet]) -> None:
    raw_meta = _canonical_meta(meta)

    def write(fh) -> None:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(raw_meta)))
        fh.write(raw_meta)
        fh.write(struct.pack("<I", len(blocks)))
        for name in sorted(blocks):
            raw_name = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw_name)))
            fh.write(raw_name)
            blocks[name].write_block(fh)

    records.write_atomically(path, write)


def load_checkpoint(path) -> tuple[dict, dict[str, ParamSet]]:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
        (version,) = struct.unpack("<Q", _read_exact(fh, 8))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4))
        meta = json.loads(_read_exact(fh, meta_len).decode("utf-8"))
        (n_blocks,) = struct.unpack("<I", _read_exact(fh, 4))
        blocks: dict[str, ParamSet] = {}
        for _ in range(n_blocks):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
            name = _read_exact(fh, name_len).decode("utf-8")
            blocks[name] = ParamSet.read_block(fh)
        if fh.read(1):
            raise ValueError("trailing bytes after checkpoint blocks")
    return meta, blocks


def _read_exact(fh, n: int) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise ValueError("truncated checkpoint file")
    return raw
