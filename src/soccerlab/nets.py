"""Policy and critic networks over the 40-dim egocentric observation.

Both nets share one encoder shape: the three other-player blocks are embedded
by a shared MLP and pooled jointly (max, min, mean per dimension), so the
encoder is invariant to any permutation of the other players; the pooled
features are concatenated with the non-player part of the observation.  A
feedforward trunk follows, then a core layer that is either one more Elu
layer or an LSTM cell, selected per net.  The policy emits a diagonal
Gaussian (stddev through softplus plus a floor); the critic appends the
action after the encoder and emits one value per reward channel.

Parameters are flat name->array ParamSets.  `forward` is the one definition
of each net: given the plain arrays it runs numpy and returns arrays (that is
all `apply` does), and given autodiff leaves from `wrap_leaves` it returns
Tensors to backpropagate through.  The module also defines the agent
checkpoint container: a JSON meta record plus named ParamSet blocks in one
file.
"""
from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass

import numpy as np

from . import records
from .env import ACTION_DIM, OBS_DIM
from .netcore import (
    ParamSet,
    amax,
    amin,
    concat,
    elu,
    linear,
    linear_params,
    lstm_params,
    lstm_step,
    mean,
    mlp_elu,
    mlp_params,
    softplus,
    stack,
)
from .netcore import zero_state as _lstm_zero_state

# Observation split: leading block is the player's own view of itself, the
# ball and the pitch; the trailing three 6-dim blocks describe the teammate
# and the two opponents (see env.observe_view).
NONPLAYER_DIM = 22
PLAYER_BLOCK_DIM = 6
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


def _encode(params: dict, obs, n_embed_layers: int):
    """Shared-embedding joint pool; output [batch, NONPLAYER_DIM + 3*embed]."""
    nonplayer = obs[:, :NONPLAYER_DIM]
    embeds = []
    for k in range(N_OTHER_PLAYERS):
        lo = NONPLAYER_DIM + k * PLAYER_BLOCK_DIM
        block = obs[:, lo : lo + PLAYER_BLOCK_DIM]
        embeds.append(mlp_elu(params, "embed", block, n_embed_layers))
    stacked = stack(embeds, axis=0)
    pooled = concat([amax(stacked, axis=0), amin(stacked, axis=0), mean(stacked, axis=0)], axis=-1)
    return concat([nonplayer, pooled], axis=-1)


def _core_params(rng: np.random.Generator, arch: ArchSpec) -> dict[str, np.ndarray]:
    n_in = arch.trunk_sizes[-1]
    if arch.recurrent:
        return lstm_params(rng, n_in, arch.core_size, "core")
    return linear_params(rng, n_in, arch.core_size, "core")


def _core_forward(params: dict, arch: ArchSpec, h, state) -> tuple:
    if arch.recurrent:
        if state is None:
            state = _lstm_zero_state(h.shape[0], arch.core_size)
        return lstm_step(params, "core", h, state, arch.core_size)
    return elu(linear(params, "core", h)), None


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

    def forward(self, params: dict, obs, state=None) -> tuple:
        """(mean, stddev, new_state); Tensors where any input is a Tensor."""
        arch = self.arch
        encoded = _encode(params, obs, len(arch.embed_sizes))
        h = mlp_elu(params, "trunk", encoded, len(arch.trunk_sizes))
        core, new_state = _core_forward(params, arch, h, state)
        mean = linear(params, "mean", core)
        stddev = softplus(linear(params, "stddev", core)) + self.stddev_floor
        return mean, stddev, new_state

    def apply(
        self,
        params: ParamSet,
        obs: np.ndarray,
        state=None,
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
        """Inference path: plain arrays in, plain arrays out, no graph kept."""
        return self.forward(params.arrays, obs, state)


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

    def forward(self, params: dict, obs, action, state=None) -> tuple:
        """(q, new_state); Tensors where any input is a Tensor."""
        arch = self.arch
        encoded = _encode(params, obs, len(arch.embed_sizes))
        h = mlp_elu(params, "trunk", concat([encoded, action], axis=-1), len(arch.trunk_sizes))
        core, new_state = _core_forward(params, arch, h, state)
        return linear(params, "q", core), new_state

    def apply(
        self,
        params: ParamSet,
        obs: np.ndarray,
        action: np.ndarray,
        state=None,
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
        return self.forward(params.arrays, obs, action, state)


# Checkpoint container: magic, u64 format version, canonical JSON meta, then
# named ParamSet blocks sorted by name.
CHECKPOINT_MAGIC = b"SLCK"
CHECKPOINT_VERSION = 1


def _canonical_meta(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")


def save_checkpoint(path, meta: dict, blocks: dict[str, ParamSet]) -> None:
    payload = io.BytesIO()
    payload.write(CHECKPOINT_MAGIC)
    payload.write(struct.pack("<Q", CHECKPOINT_VERSION))
    raw_meta = _canonical_meta(meta)
    payload.write(struct.pack("<I", len(raw_meta)))
    payload.write(raw_meta)
    payload.write(struct.pack("<I", len(blocks)))
    for name in sorted(blocks):
        raw_name = name.encode("utf-8")
        payload.write(struct.pack("<H", len(raw_name)))
        payload.write(raw_name)
        blocks[name].write_block(payload)
    with open(path, "wb") as fh:
        fh.write(payload.getvalue())


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
