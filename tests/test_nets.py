"""Policy/critic network properties: pooling invariances, heads, checkpoints."""
import itertools

import numpy as np
import pytest

from soccerlab.env import ACTION_DIM, OBS_DIM
from soccerlab.nets import (
    NONPLAYER_DIM,
    PLAYER_BLOCK_DIM,
    ArchSpec,
    CriticNet,
    PolicyNet,
    _encode,
    desk_arch,
    load_checkpoint,
    save_checkpoint,
)
from soccerlab.netcore import ParamSet, Tensor, mlp_elu, wrap_leaves

from tests.test_autodiff import finite_difference

ARCH = ArchSpec(embed_sizes=(8, 5), trunk_sizes=(12, 10), core_size=9)
ARCH_LSTM = ArchSpec(embed_sizes=(8, 5), trunk_sizes=(12, 10), core_size=9, recurrent=True)


def random_obs(rng: np.random.Generator, batch: int = 3) -> np.ndarray:
    return rng.normal(size=(batch, OBS_DIM))


def permuted_blocks(obs: np.ndarray, perm) -> np.ndarray:
    out = obs.copy()
    for slot, src in enumerate(perm):
        lo = NONPLAYER_DIM + slot * PLAYER_BLOCK_DIM
        src_lo = NONPLAYER_DIM + src * PLAYER_BLOCK_DIM
        out[:, lo : lo + PLAYER_BLOCK_DIM] = obs[:, src_lo : src_lo + PLAYER_BLOCK_DIM]
    return out


@pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
def test_other_player_permutation_invariance(perm):
    rng = np.random.default_rng(0)
    policy = PolicyNet(ARCH)
    critic = CriticNet(ARCH, n_heads=4)
    p_params = policy.init_params(np.random.default_rng(1))
    c_params = critic.init_params(np.random.default_rng(2))
    obs = random_obs(rng)
    action = rng.normal(size=(3, ACTION_DIM))

    mean, stddev, _ = policy.apply(p_params, obs)
    mean_p, stddev_p, _ = policy.apply(p_params, permuted_blocks(obs, perm))
    np.testing.assert_allclose(mean_p, mean, atol=1e-9)
    np.testing.assert_allclose(stddev_p, stddev, atol=1e-9)

    q, _ = critic.apply(c_params, obs, action)
    q_p, _ = critic.apply(c_params, permuted_blocks(obs, perm), action)
    np.testing.assert_allclose(q_p, q, atol=1e-9)


def test_identical_blocks_collapse_the_pool():
    rng = np.random.default_rng(3)
    policy = PolicyNet(ARCH)
    params = policy.init_params(np.random.default_rng(4))
    obs = random_obs(rng, batch=2)
    block = rng.normal(size=(2, PLAYER_BLOCK_DIM))
    for k in range(3):
        lo = NONPLAYER_DIM + k * PLAYER_BLOCK_DIM
        obs[:, lo : lo + PLAYER_BLOCK_DIM] = block

    leaves = wrap_leaves(params.arrays)
    encoded = _encode(leaves, Tensor(obs), len(ARCH.embed_sizes)).data
    embed = mlp_elu(leaves, "embed", Tensor(block), len(ARCH.embed_sizes)).data
    expected = np.concatenate([obs[:, :NONPLAYER_DIM], embed, embed, embed], axis=-1)
    np.testing.assert_allclose(encoded, expected, atol=1e-12)


def test_zeroed_embedding_passes_nonplayer_features_through():
    rng = np.random.default_rng(5)
    policy = PolicyNet(ARCH)
    params = policy.init_params(np.random.default_rng(6))
    for name in params.arrays:
        if name.startswith("embed."):
            params.arrays[name][:] = 0.0
    obs = random_obs(rng)
    encoded = _encode(wrap_leaves(params.arrays), Tensor(obs), len(ARCH.embed_sizes)).data
    np.testing.assert_array_equal(encoded[:, :NONPLAYER_DIM], obs[:, :NONPLAYER_DIM])
    np.testing.assert_array_equal(encoded[:, NONPLAYER_DIM:], 0.0)


def test_stddev_respects_floor():
    rng = np.random.default_rng(7)
    policy = PolicyNet(ARCH, stddev_floor=1e-3)
    params = policy.init_params(np.random.default_rng(8))
    _, stddev, _ = policy.apply(params, random_obs(rng))
    assert np.all(stddev >= policy.stddev_floor)

    # Push the pre-softplus output far negative: the floor is all that is left.
    params.arrays["stddev.w"][:] = 0.0
    params.arrays["stddev.b"][:] = -1e3
    _, floored, _ = policy.apply(params, random_obs(rng))
    np.testing.assert_allclose(floored, policy.stddev_floor, atol=1e-12)

    with pytest.raises(ValueError):
        PolicyNet(ARCH, stddev_floor=0.0)


def test_feedforward_and_recurrent_cores_agree_when_zeroed():
    # Zero core parameters silence both core types (Elu(0) = 0 and an LSTM
    # with zero weights, bias and state emits 0), so with shared heads the
    # mean collapses to the mean-head bias in both variants.
    ff = PolicyNet(ARCH)
    rec = PolicyNet(ARCH_LSTM)
    ff_params = ff.init_params(np.random.default_rng(9))
    rec_params = rec.init_params(np.random.default_rng(10))
    for params in (ff_params, rec_params):
        for name in params.arrays:
            if name.startswith("core."):
                params.arrays[name][:] = 0.0
    for head in ("mean.w", "mean.b", "stddev.w", "stddev.b"):
        rec_params.arrays[head][:] = ff_params.arrays[head]

    obs = random_obs(np.random.default_rng(11), batch=4)
    mean_ff, stddev_ff, state_ff = ff.apply(ff_params, obs)
    mean_rec, stddev_rec, state_rec = rec.apply(rec_params, obs, rec.zero_state(4))
    np.testing.assert_allclose(mean_ff, mean_rec, atol=1e-9)
    np.testing.assert_allclose(stddev_ff, stddev_rec, atol=1e-9)
    np.testing.assert_allclose(mean_ff, np.broadcast_to(ff_params.arrays["mean.b"], mean_ff.shape), atol=1e-12)
    assert state_ff is None and state_rec is not None


def test_recurrent_state_carries_information():
    policy = PolicyNet(ARCH_LSTM)
    params = policy.init_params(np.random.default_rng(12))
    obs = random_obs(np.random.default_rng(13), batch=2)

    mean0, _, state = policy.apply(params, obs, policy.zero_state(2))
    mean0_again, _, _ = policy.apply(params, obs, policy.zero_state(2))
    np.testing.assert_array_equal(mean0, mean0_again)

    mean_carried, _, _ = policy.apply(params, obs, state)
    assert not np.allclose(mean_carried, mean0)
    assert state[0].shape == (2, ARCH_LSTM.core_size)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("arch", [ARCH, ARCH_LSTM], ids=["ff", "lstm"])
def test_apply_equals_forward_on_leaves_bit_for_bit(arch, batch, monkeypatch):
    rng = np.random.default_rng(30 + batch)
    policy = PolicyNet(arch)
    critic = CriticNet(arch, n_heads=4)
    p_params = policy.init_params(rng)
    c_params = critic.init_params(rng)
    obs = random_obs(rng, batch)
    action = rng.normal(size=(batch, ACTION_DIM))
    p_state, c_state = policy.zero_state(batch), critic.zero_state(batch)
    if arch.recurrent:
        # Carry one step so the state going in is not zero.
        _, _, p_state = policy.apply(p_params, obs, p_state)
        _, c_state = critic.apply(c_params, obs, action, c_state)

    built = []
    original = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    p_got = policy.apply(p_params, obs, p_state)
    c_got = critic.apply(c_params, obs, action, c_state)
    assert built == []

    *p_out, p_new = policy.forward(wrap_leaves(p_params.arrays), Tensor(obs), p_state)
    q, c_new = critic.forward(wrap_leaves(c_params.arrays), Tensor(obs), Tensor(action), c_state)
    expected = [*p_out, q]
    got = [p_got[0], p_got[1], c_got[0]]
    if arch.recurrent:
        expected += [*p_new, *c_new]
        got += [*p_got[2], *c_got[1]]
    else:
        assert p_got[2] is None and c_got[1] is None
    for value, tensor in zip(got, expected, strict=True):
        assert type(value) is np.ndarray and isinstance(tensor, Tensor)
        assert value.shape == tensor.data.shape
        assert value.tobytes() == tensor.data.tobytes()


def test_critic_action_gradient_matches_finite_differences():
    critic = CriticNet(ARCH, n_heads=4)
    params = critic.init_params(np.random.default_rng(14))
    rng = np.random.default_rng(15)
    obs = random_obs(rng, batch=1)
    action = rng.normal(size=(1, ACTION_DIM))

    leaves = wrap_leaves(params.arrays)
    for head in range(4):
        leaf = Tensor(action.copy())
        q, _ = critic.forward(leaves, obs, leaf)
        q[0, head].backward()
        fd = finite_difference(
            lambda a: float(critic.apply(params, obs, a)[0][0, head]), action.copy()
        )
        np.testing.assert_allclose(leaf.grad, fd, atol=1e-6, rtol=1e-4)


def test_critic_appends_action_after_encoding():
    critic = CriticNet(ARCH, n_heads=2)
    params = critic.init_params(np.random.default_rng(16))
    assert params.arrays["trunk.0.w"].shape == (ARCH.encoder_dim + ACTION_DIM, ARCH.trunk_sizes[0])

    policy = PolicyNet(ARCH)
    p_params = policy.init_params(np.random.default_rng(17))
    assert p_params.arrays["trunk.0.w"].shape == (ARCH.encoder_dim, ARCH.trunk_sizes[0])

    rng = np.random.default_rng(18)
    obs = random_obs(rng, batch=1)
    q_a, _ = critic.apply(params, obs, rng.normal(size=(1, ACTION_DIM)))
    q_b, _ = critic.apply(params, obs, rng.normal(size=(1, ACTION_DIM)))
    assert q_a.shape == (1, 2)
    assert not np.allclose(q_a, q_b)


def test_gradients_reach_every_parameter_group():
    policy = PolicyNet(ARCH_LSTM)
    params = policy.init_params(np.random.default_rng(19))
    obs = random_obs(np.random.default_rng(20), batch=2)
    leaves = wrap_leaves(params.arrays)
    # Two carried steps: the recurrent weight only sees gradient once the
    # hidden state is non-zero.
    _, _, state = policy.forward(leaves, obs, policy.zero_state(2))
    mean, stddev, _ = policy.forward(leaves, obs, state)
    (mean.sum() + stddev.sum()).backward()
    for name, leaf in leaves.items():
        assert leaf.grad is not None and np.any(leaf.grad != 0.0), name


def test_desk_arch_is_smaller_but_same_shape_family():
    arch = desk_arch()
    policy = PolicyNet(arch)
    params = policy.init_params(np.random.default_rng(21))
    big = PolicyNet(ArchSpec()).init_params(np.random.default_rng(21))
    assert set(params.arrays) == set(big.arrays)
    assert params.n_scalars() < big.n_scalars()


def test_checkpoint_roundtrip(tmp_path):
    policy = PolicyNet(ARCH)
    critic = CriticNet(ARCH_LSTM, n_heads=4)
    blocks = {
        "policy": policy.init_params(np.random.default_rng(22)),
        "critic": critic.init_params(np.random.default_rng(23)),
    }
    blocks["policy"].bump_version()
    meta = {
        "policy_arch": ARCH.to_json(),
        "critic_arch": ARCH_LSTM.to_json(),
        "frames_learned": 1234,
        "hyperparams": {"actor_lr": 3e-4},
    }
    path = tmp_path / "agent.ckpt"
    save_checkpoint(path, meta, blocks)
    meta_back, blocks_back = load_checkpoint(path)

    assert meta_back == meta
    assert ArchSpec.from_json(meta_back["policy_arch"]) == ARCH
    assert set(blocks_back) == {"policy", "critic"}
    for name, original in blocks.items():
        assert blocks_back[name].version == original.version
        for key, arr in original.arrays.items():
            np.testing.assert_array_equal(blocks_back[name].arrays[key], arr)


def test_checkpoint_rejects_corruption(tmp_path):
    path = tmp_path / "agent.ckpt"
    save_checkpoint(path, {"k": 1}, {"p": ParamSet({"w": np.zeros(3)})})
    raw = path.read_bytes()

    (tmp_path / "bad_magic.ckpt").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "bad_magic.ckpt")

    (tmp_path / "trailing.ckpt").write_bytes(raw + b"\x00")
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "trailing.ckpt")

    (tmp_path / "truncated.ckpt").write_bytes(raw[:-3])
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "truncated.ckpt")
