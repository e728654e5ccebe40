"""Learner oracles: retrace vs the direct double-sum, finite-difference
gradient checks of both losses, optimization sanity, replay and sync rules."""
import numpy as np
import pytest

from soccerlab.env import ACTION_DIM, N_CHANNELS, OBS_DIM
from soccerlab.learner import (
    KNOB_NAMES,
    AgentHyperparams,
    Learner,
    LearnerConfig,
    ReplayBuffer,
    TrajectorySnippet,
    partition_episode,
    retrace_from_values,
    stack_snippets,
)
from soccerlab.nets import ArchSpec, CriticNet, PolicyNet
from soccerlab.netcore import ParamSet, Tensor, gaussian, wrap_leaves

from tests.test_autodiff import finite_difference

TINY = ArchSpec(embed_sizes=(6, 4), trunk_sizes=(8,), core_size=6)
TINY_LSTM = ArchSpec(embed_sizes=(6, 4), trunk_sizes=(8,), core_size=6, recurrent=True)


def direct_retrace(rewards, q_values, next_expected_q, ratios, discounts):
    """The double-sum form: target(t) = Q(t) + sum_s gamma^(s-t) (prod c) delta(s)."""
    batch, horizon, n_channels = rewards.shape
    delta = rewards + discounts * next_expected_q - q_values
    targets = np.zeros_like(q_values)
    for b in range(batch):
        for t in range(horizon):
            for j in range(n_channels):
                acc = q_values[b, t, j]
                for s in range(t, horizon):
                    prod = 1.0
                    for u in range(t + 1, s + 1):
                        prod *= ratios[b, u]
                    acc += discounts[j] ** (s - t) * prod * delta[b, s, j]
                targets[b, t, j] = acc
    return targets


def random_pieces(rng, batch, horizon, n_channels):
    return (
        rng.normal(size=(batch, horizon, n_channels)),
        rng.normal(size=(batch, horizon, n_channels)),
        rng.normal(size=(batch, horizon, n_channels)),
        rng.uniform(0.0, 1.0, size=(batch, horizon)),
        rng.uniform(0.9, 0.999, size=n_channels),
    )


def make_learner(
    recurrent_policy=False,
    recurrent_critic=False,
    channels=True,
    seed=0,
    hyperparams=None,
    **config_kwargs,
):
    config = LearnerConfig(channels=channels, **config_kwargs)
    policy_net = PolicyNet(TINY_LSTM if recurrent_policy else TINY)
    critic_net = CriticNet(TINY_LSTM if recurrent_critic else TINY, n_heads=config.n_critic_heads)
    return Learner(policy_net, critic_net, hyperparams or AgentHyperparams(), config, seed=seed)


def synth_snippet(rng, length, terminal=False, recurrent=False, core=TINY_LSTM.core_size, stddev_zero_at=None):
    behavior_stddev = rng.uniform(0.4, 1.0, size=(length, ACTION_DIM))
    if stddev_zero_at is not None:
        behavior_stddev[stddev_zero_at] = 0.0
    state = (rng.normal(size=(1, core)) * 0.1, rng.normal(size=(1, core)) * 0.1) if recurrent else None
    return TrajectorySnippet(
        observations=rng.normal(size=(length, OBS_DIM)),
        actions=rng.normal(size=(length, ACTION_DIM)) * 0.5,
        rewards=rng.normal(size=(length, N_CHANNELS)) * 0.1,
        behavior_mean=rng.normal(size=(length, ACTION_DIM)) * 0.3,
        behavior_stddev=behavior_stddev,
        final_observation=rng.normal(size=OBS_DIM),
        terminal=terminal,
        policy_state0=state,
        critic_state0=(state[0].copy(), state[1].copy()) if state else None,
    )


def zero_action_columns(params: ParamSet) -> None:
    """Silence the critic's action input: Q becomes action-independent."""
    params.arrays["trunk.0.w"][TINY.encoder_dim :] = 0.0


# -- retrace core ------------------------------------------------------------


def test_retrace_matches_double_sum_on_random_snippets():
    rng = np.random.default_rng(0)
    rewards, q, eq, ratios, discounts = random_pieces(rng, 1000, 5, N_CHANNELS)
    fast = retrace_from_values(rewards, q, eq, ratios, discounts)
    np.testing.assert_allclose(fast, direct_retrace(rewards, q, eq, ratios, discounts), atol=1e-10)


def test_retrace_one_step_is_td_target():
    rng = np.random.default_rng(1)
    rewards, q, eq, ratios, discounts = random_pieces(rng, 8, 1, N_CHANNELS)
    targets = retrace_from_values(rewards, q, eq, ratios, discounts)
    np.testing.assert_allclose(targets, rewards + discounts * eq, atol=1e-12)


def test_retrace_zero_inputs_zero_targets():
    zeros = np.zeros((3, 7, N_CHANNELS))
    targets = retrace_from_values(zeros, zeros, zeros, np.ones((3, 7)), np.full(N_CHANNELS, 0.95))
    np.testing.assert_array_equal(targets, 0.0)


def test_retrace_channel_collapse_to_weighted_scalar():
    rng = np.random.default_rng(2)
    rewards, q, eq, ratios, _ = random_pieces(rng, 50, 6, N_CHANNELS)
    gamma = 0.97
    weights = rng.uniform(0.0, 2.0, size=N_CHANNELS)
    per_channel = retrace_from_values(rewards, q, eq, ratios, np.full(N_CHANNELS, gamma))
    collapsed = retrace_from_values(
        (rewards @ weights)[..., None],
        (q @ weights)[..., None],
        (eq @ weights)[..., None],
        ratios,
        np.array([gamma]),
    )
    np.testing.assert_allclose(per_channel @ weights, collapsed[..., 0], atol=1e-10)


def test_retrace_validates_shapes():
    good = np.zeros((2, 3, 4))
    with pytest.raises(ValueError):
        retrace_from_values(good, good, np.zeros((2, 3, 3)), np.ones((2, 3)), np.ones(4))
    with pytest.raises(ValueError):
        retrace_from_values(good, good, good, np.ones((2, 4)), np.ones(4))
    with pytest.raises(ValueError):
        retrace_from_values(good, good, good, np.ones((2, 3)), np.ones(3))


# -- retrace piece assembly ---------------------------------------------------


def manual_ratios(learner, batch):
    mean, stddev, _ = learner.policy_net.apply(
        learner.policy, batch.observations.reshape(-1, OBS_DIM)
    )
    shape = batch.observations.shape[:2]
    log_pi = gaussian.log_prob_np(
        mean.reshape(*shape, ACTION_DIM), stddev.reshape(*shape, ACTION_DIM), batch.actions
    )
    log_beta = gaussian.log_prob_np(batch.behavior_mean, batch.behavior_stddev, batch.actions)
    return np.minimum(1.0, np.exp(log_pi - log_beta))


def test_targets_match_manual_pieces_with_action_independent_critic():
    learner = make_learner(seed=3, expectation_samples=2)
    zero_action_columns(learner.critic)
    learner.sync_targets()
    rng = np.random.default_rng(4)
    snippets = [synth_snippet(rng, 5, terminal=(i == 1)) for i in range(3)]
    batch = stack_snippets(snippets)
    targets, info = learner.retrace_targets(batch)

    B, T = 3, 5
    flat_obs = batch.observations.reshape(-1, OBS_DIM)
    q_behavior, _ = learner.critic_net.apply(learner.critic_target, flat_obs, batch.actions.reshape(-1, ACTION_DIM))
    q_behavior = q_behavior.reshape(B, T, N_CHANNELS)
    next_obs = np.concatenate([batch.observations[:, 1:], batch.final_observation[:, None]], axis=1)
    eq, _ = learner.critic_net.apply(
        learner.critic_target, next_obs.reshape(-1, OBS_DIM), np.zeros((B * T, ACTION_DIM))
    )
    eq = eq.reshape(B, T, N_CHANNELS)
    eq[batch.terminal, -1] = 0.0
    expected = retrace_from_values(
        batch.rewards, q_behavior, eq, manual_ratios(learner, batch), learner.hyperparams.discounts
    )
    np.testing.assert_allclose(targets, expected, atol=1e-10)
    assert info["ratio_flagged"] == 0


def test_targets_match_manual_pieces_recurrent_nets():
    learner = make_learner(recurrent_policy=True, recurrent_critic=True, seed=5, expectation_samples=2)
    zero_action_columns(learner.critic)
    learner.sync_targets()
    rng = np.random.default_rng(6)
    snippets = [synth_snippet(rng, 4, terminal=(i == 0), recurrent=True) for i in range(2)]
    batch = stack_snippets(snippets)
    targets, _ = learner.retrace_targets(batch)

    B, T = 2, 4
    # Manual recurrent unrolls; the zeroed action path makes the critic state
    # (and value) independent of the action argument.
    zero_act = np.zeros((B, ACTION_DIM))
    state = batch.critic_state0
    q_behavior = np.empty((B, T, N_CHANNELS))
    states = [state]
    for t in range(T):
        q_t, state = learner.critic_net.apply(learner.critic_target, batch.observations[:, t], zero_act, state)
        q_behavior[:, t] = q_t
        states.append(state)
    next_obs = np.concatenate([batch.observations[:, 1:], batch.final_observation[:, None]], axis=1)
    eq = np.empty((B, T, N_CHANNELS))
    for t in range(T):
        eq[:, t] = learner.critic_net.apply(learner.critic_target, next_obs[:, t], zero_act, states[t + 1])[0]
    eq[batch.terminal, -1] = 0.0

    # Ratios under the recurrent online policy, primed with the stored state.
    pstate = batch.policy_state0
    log_pi = np.empty((B, T))
    for t in range(T):
        mean, stddev, pstate = learner.policy_net.apply(learner.policy, batch.observations[:, t], pstate)
        log_pi[:, t] = gaussian.log_prob_np(mean, stddev, batch.actions[:, t])
    log_beta = gaussian.log_prob_np(batch.behavior_mean, batch.behavior_stddev, batch.actions)
    ratios = np.minimum(1.0, np.exp(log_pi - log_beta))

    expected = retrace_from_values(batch.rewards, q_behavior, eq, ratios, learner.hyperparams.discounts)
    np.testing.assert_allclose(targets, expected, atol=1e-10)


def test_on_policy_targets_equal_k_step_returns():
    # With ratios forced to 1 (on-policy) and an action-independent critic the
    # correction terms telescope into the plain k-step return.
    learner = make_learner(seed=7, expectation_samples=2)
    zero_action_columns(learner.critic)
    learner.sync_targets()
    rng = np.random.default_rng(8)
    snippets = [synth_snippet(rng, 6) for _ in range(2)]
    batch = stack_snippets(snippets)
    # On-policy: the stored behavior density is the online policy's output.
    mean, stddev, _ = learner.policy_net.apply(learner.policy, batch.observations.reshape(-1, OBS_DIM))
    batch.behavior_mean[:] = mean.reshape(2, 6, ACTION_DIM)
    batch.behavior_stddev[:] = stddev.reshape(2, 6, ACTION_DIM)
    targets, _ = learner.retrace_targets(batch)

    boot, _ = learner.critic_net.apply(
        learner.critic_target, batch.final_observation, np.zeros((2, ACTION_DIM))
    )
    gammas = learner.hyperparams.discounts
    B, T = 2, 6
    expected = np.empty((B, T, N_CHANNELS))
    for t in range(T):
        acc = gammas ** (T - t) * boot
        for s in range(T - 1, t - 1, -1):
            acc = acc + gammas ** (s - t) * batch.rewards[:, s]
        expected[:, t] = acc
    np.testing.assert_allclose(targets, expected, atol=1e-10)


def test_expectation_sampling_converges_to_independent_estimate():
    learner = make_learner(seed=9, expectation_samples=10_000)
    learner.sync_targets()
    rng = np.random.default_rng(10)
    snippets = [synth_snippet(rng, 5) for _ in range(2)]
    batch = stack_snippets(snippets)
    targets, _ = learner.retrace_targets(batch)

    # Independent Monte-Carlo estimate of E_{a~target policy}[Q_target] with
    # 4x the samples and a different stream.
    B, T, m = 2, 5, 40_000
    next_obs = np.concatenate([batch.observations[:, 1:], batch.final_observation[:, None]], axis=1)
    mean, stddev, _ = learner.policy_net.apply(learner.policy_target, next_obs.reshape(-1, OBS_DIM))
    mc = np.random.default_rng(11)
    eq = np.zeros((B * T, N_CHANNELS))
    for chunk in range(4):
        noise = mc.standard_normal((m // 4, B * T, ACTION_DIM))
        sampled = mean[None] + stddev[None] * noise
        obs_rep = np.broadcast_to(next_obs.reshape(-1, OBS_DIM)[None], (m // 4, B * T, OBS_DIM))
        q, _ = learner.critic_net.apply(
            learner.critic_target, obs_rep.reshape(-1, OBS_DIM), sampled.reshape(-1, ACTION_DIM)
        )
        eq += q.reshape(m // 4, B * T, N_CHANNELS).sum(axis=0)
    eq = (eq / m).reshape(B, T, N_CHANNELS)
    eq[batch.terminal, -1] = 0.0

    q_behavior, _ = learner.critic_net.apply(
        learner.critic_target,
        batch.observations.reshape(-1, OBS_DIM),
        batch.actions.reshape(-1, ACTION_DIM),
    )
    expected = retrace_from_values(
        batch.rewards,
        q_behavior.reshape(B, T, N_CHANNELS),
        eq,
        manual_ratios(learner, batch),
        learner.hyperparams.discounts,
    )
    scale = np.maximum(np.abs(expected), 1.0)
    assert np.max(np.abs(targets - expected) / scale) < 0.01


def test_zero_behavior_density_is_capped_and_flagged():
    learner = make_learner(seed=12)
    rng = np.random.default_rng(13)
    snippets = [synth_snippet(rng, 4, stddev_zero_at=2) for _ in range(2)]
    batch = stack_snippets(snippets)
    targets, info = learner.retrace_targets(batch)
    assert info["ratio_flagged"] == 2
    assert np.all(np.isfinite(targets))


# -- critic update -------------------------------------------------------------


def frozen_batch(learner, rng, batch=2, horizon=3, recurrent=False):
    snippets = [synth_snippet(rng, horizon, recurrent=recurrent) for _ in range(batch)]
    return stack_snippets(snippets)


def test_critic_fixed_point_is_stationary():
    learner = make_learner(seed=14)
    batch = frozen_batch(learner, np.random.default_rng(15))
    q, _ = learner.critic_net.apply(
        learner.critic, batch.observations.reshape(-1, OBS_DIM), batch.actions.reshape(-1, ACTION_DIM)
    )
    before = {k: v.copy() for k, v in learner.critic.arrays.items()}
    metrics = learner.critic_update(batch, q.reshape(2, 3, N_CHANNELS))
    assert metrics["critic_loss"] == pytest.approx(0.0, abs=1e-24)
    for name, arr in learner.critic.arrays.items():
        np.testing.assert_array_equal(arr, before[name])


def test_critic_overfits_a_frozen_batch():
    learner = make_learner(seed=16)
    rng = np.random.default_rng(17)
    batch = frozen_batch(learner, rng)
    targets = rng.normal(size=(2, 3, N_CHANNELS))
    first = learner.critic_update(batch, targets)["critic_loss"]
    for _ in range(99):
        last = learner.critic_update(batch, targets)["critic_loss"]
    assert last < 0.5 * first


@pytest.mark.parametrize("recurrent", [False, True], ids=["ff", "lstm"])
def test_critic_gradient_matches_finite_differences(recurrent):
    learner = make_learner(recurrent_critic=recurrent, seed=18)
    rng = np.random.default_rng(19)
    batch = frozen_batch(learner, rng, recurrent=False)
    targets = rng.normal(size=(2, 3, N_CHANNELS))
    leaves = wrap_leaves(learner.critic.arrays)
    learner.critic_loss(leaves, batch, targets).backward()

    def loss_with(name, arr):
        arrays = dict(learner.critic.arrays)
        arrays[name] = arr
        return float(learner.critic_loss(wrap_leaves(arrays), batch, targets).data)

    for name in ("q.b", "core.b" if not recurrent else "core.wx", "embed.1.b"):
        fd = finite_difference(lambda a: loss_with(name, a), learner.critic.arrays[name].copy())
        np.testing.assert_allclose(leaves[name].grad, fd, rtol=1e-4, atol=1e-6, err_msg=name)


# -- policy update --------------------------------------------------------------


@pytest.mark.parametrize("recurrent", [False, True], ids=["ff", "lstm"])
def test_policy_gradient_matches_finite_differences(recurrent):
    learner = make_learner(
        recurrent_policy=recurrent,
        seed=20,
        hyperparams=AgentHyperparams(entropy_cost=0.05),
    )
    rng = np.random.default_rng(21)
    batch = frozen_batch(learner, rng, recurrent=False)
    noise = rng.standard_normal((1, 2, 3, ACTION_DIM))
    leaves = wrap_leaves(learner.policy.arrays)
    critic_leaves = wrap_leaves(learner.critic.arrays)
    loss, _ = learner.policy_loss(leaves, critic_leaves, batch, noise)
    loss.backward()

    def loss_with(name, arr):
        arrays = dict(learner.policy.arrays)
        arrays[name] = arr
        out, _ = learner.policy_loss(wrap_leaves(arrays), wrap_leaves(learner.critic.arrays), batch, noise)
        return float(out.data)

    for name in ("mean.b", "stddev.b", "embed.0.b", "core.b" if not recurrent else "core.wh"):
        fd = finite_difference(lambda a: loss_with(name, a), learner.policy.arrays[name].copy())
        np.testing.assert_allclose(leaves[name].grad, fd, rtol=1e-4, atol=1e-6, err_msg=name)


@pytest.mark.parametrize("recurrent", [False, True], ids=["ff", "lstm"])
def test_policy_update_holds_the_critic_constant(recurrent, monkeypatch):
    # The critic's weights enter the policy loss as plain arrays, so no
    # graph node (and no gradient) is built over them.
    learner = make_learner(recurrent_policy=recurrent, recurrent_critic=recurrent, seed=24)
    batch = frozen_batch(learner, np.random.default_rng(25), recurrent=recurrent)
    built = []
    original = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    metrics = learner.policy_update(batch)
    assert not metrics["policy_skipped"] and built
    critic_arrays = list(learner.critic.arrays.values())
    assert not any(t.data is arr for t in built for arr in critic_arrays)


def test_policy_update_is_noop_without_value_or_entropy_signal():
    hp = AgentHyperparams(
        entropy_cost=0.0,
        reward_weight_goal=0.0,
        reward_weight_concede=0.0,
        reward_weight_vel_to_ball=0.0,
        reward_weight_vel_ball_to_goal=0.0,
    )
    learner = make_learner(seed=22, hyperparams=hp)
    batch = frozen_batch(learner, np.random.default_rng(23))
    before = {k: v.copy() for k, v in learner.policy.arrays.items()}
    learner.policy_update(batch)
    for name, arr in learner.policy.arrays.items():
        np.testing.assert_array_equal(arr, before[name])


def test_entropy_gradient_alone_increases_entropy():
    hp = AgentHyperparams(
        entropy_cost=0.1,
        reward_weight_goal=0.0,
        reward_weight_concede=0.0,
        reward_weight_vel_to_ball=0.0,
        reward_weight_vel_ball_to_goal=0.0,
    )
    learner = make_learner(seed=24, hyperparams=hp)
    batch = frozen_batch(learner, np.random.default_rng(25))

    def mean_entropy():
        _, stddev, _ = learner.policy_net.apply(learner.policy, batch.observations.reshape(-1, OBS_DIM))
        return float(np.mean(np.log(stddev).sum(axis=-1)))

    before = mean_entropy()
    learner.policy_update(batch)
    assert mean_entropy() > before


class _QuadraticCritic:
    """Stub critic with a known optimum: Q(s, a) = -|a - a*|^2."""

    def __init__(self, optimum):
        self.arch = ArchSpec(embed_sizes=(2,), trunk_sizes=(2,), core_size=2)
        self.n_heads = 1
        self.optimum = np.asarray(optimum)

    def init_params(self, rng):
        return ParamSet({"unused": np.zeros(1)})

    def zero_state(self, batch):
        return None

    def forward(self, leaves, obs, action, state=None):
        diff = action - self.optimum
        return (diff * diff).sum(axis=-1, keepdims=True) * (-1.0), None

    def apply(self, params, obs, action, state=None):
        return self.forward(None, obs, np.asarray(action))


def test_policy_mean_converges_to_quadratic_optimum():
    optimum = np.array([0.3, -0.5, 0.7])
    policy_net = PolicyNet(TINY)
    hp = AgentHyperparams(actor_lr=0.02, entropy_cost=0.0)
    learner = Learner(policy_net, _QuadraticCritic(optimum), hp, LearnerConfig(channels=False), seed=26)
    batch = frozen_batch(learner, np.random.default_rng(27), batch=1, horizon=1)
    for _ in range(500):
        learner.policy_update(batch)
    mean, _, _ = policy_net.apply(learner.policy, batch.observations[0])
    np.testing.assert_allclose(mean[0], optimum, atol=0.05)


# -- counters, sync, replay ------------------------------------------------------


def test_sync_cadence_and_target_equality():
    learner = make_learner(seed=28, batch_size=2, sync_period=10)
    rng = np.random.default_rng(29)
    learner.observe([synth_snippet(rng, 3) for _ in range(4)])
    syncs = 0
    for i in range(100):
        metrics = learner.gradient_step()
        if metrics["synced"]:
            syncs += 1
            for name in learner.critic.arrays:
                np.testing.assert_array_equal(learner.critic_target.arrays[name], learner.critic.arrays[name])
            for name in learner.policy.arrays:
                np.testing.assert_array_equal(learner.policy_target.arrays[name], learner.policy.arrays[name])
    assert syncs == 10
    assert learner.steps_since_sync == 0
    assert learner.gradient_steps == 100
    assert learner.frames_learned == 100 * 2 * 3

    learner.gradient_step()
    assert learner.steps_since_sync == 1
    assert any(
        not np.array_equal(learner.critic_target.arrays[n], learner.critic.arrays[n])
        for n in learner.critic.arrays
    )


def test_gradient_step_without_data_returns_none():
    learner = make_learner(seed=30)
    assert learner.gradient_step() is None


def test_recurrent_gradient_step_smoke():
    learner = make_learner(recurrent_policy=True, recurrent_critic=True, seed=31, batch_size=2)
    rng = np.random.default_rng(32)
    learner.observe([synth_snippet(rng, 3, recurrent=True) for _ in range(3)])
    for _ in range(2):
        metrics = learner.gradient_step()
        assert np.isfinite(metrics["critic_loss"])
        assert not metrics["critic_skipped"] and not metrics["policy_skipped"]
    assert learner.gradient_steps == 2


def test_replay_respects_capacity_and_recency():
    rng = np.random.default_rng(33)
    buffer = ReplayBuffer(capacity=10, recency_threshold=3)
    for i in range(10):
        snippet = synth_snippet(rng, 2)
        snippet.behavior_id = str(i)
        buffer.add(snippet)
    served = {s.behavior_id for _ in range(30) for s in buffer.sample(rng, 4)}
    assert served <= {"7", "8", "9"}

    unlimited = ReplayBuffer(capacity=5)
    for i in range(12):
        snippet = synth_snippet(rng, 2)
        snippet.behavior_id = str(i)
        unlimited.add(snippet)
    assert len(unlimited) == 5
    served = {s.behavior_id for _ in range(30) for s in unlimited.sample(rng, 3)}
    assert served <= {"7", "8", "9", "10", "11"}


def test_replay_sampling_groups_by_length():
    rng = np.random.default_rng(34)
    buffer = ReplayBuffer(capacity=100)
    for length in (5, 3, 5, 3, 5):
        buffer.add(synth_snippet(rng, length))
    for _ in range(10):
        batch = buffer.sample(rng, 4)
        assert len(batch) == 4
        assert len({len(s) for s in batch}) == 1


# -- episode partitioning ----------------------------------------------------------


def episode_arrays(rng, total, core=4):
    return dict(
        observations=rng.normal(size=(total, OBS_DIM)),
        actions=rng.normal(size=(total, ACTION_DIM)),
        rewards=rng.normal(size=(total, N_CHANNELS)),
        behavior_mean=rng.normal(size=(total, ACTION_DIM)),
        behavior_stddev=rng.uniform(0.5, 1.0, size=(total, ACTION_DIM)),
        final_observation=rng.normal(size=OBS_DIM),
        policy_states=[(rng.normal(size=(1, core)), rng.normal(size=(1, core))) for _ in range(total)],
        critic_states=None,
    )


def test_partition_anchors_at_episode_end():
    rng = np.random.default_rng(35)
    data = episode_arrays(rng, 100)
    snippets = partition_episode(**data, terminal=True, snippet_length=40)
    assert [len(s) for s in snippets] == [40, 40]
    assert [s.terminal for s in snippets] == [False, True]
    # The leading 20 steps are dropped; chunks cover [20:60) and [60:100).
    np.testing.assert_array_equal(snippets[0].observations, data["observations"][20:60])
    np.testing.assert_array_equal(snippets[0].final_observation, data["observations"][60])
    np.testing.assert_array_equal(snippets[1].final_observation, data["final_observation"])
    np.testing.assert_array_equal(snippets[0].policy_state0[0], data["policy_states"][20][0])
    np.testing.assert_array_equal(snippets[1].policy_state0[0], data["policy_states"][60][0])
    assert snippets[0].critic_state0 is None


def test_partition_keeps_short_episode_whole():
    rng = np.random.default_rng(36)
    data = episode_arrays(rng, 25)
    snippets = partition_episode(**data, terminal=True, snippet_length=40)
    assert len(snippets) == 1 and len(snippets[0]) == 25 and snippets[0].terminal

    exact = partition_episode(**episode_arrays(rng, 40), terminal=False, snippet_length=40)
    assert len(exact) == 1 and len(exact[0]) == 40 and not exact[0].terminal

    empty = partition_episode(
        observations=np.zeros((0, OBS_DIM)),
        actions=np.zeros((0, ACTION_DIM)),
        rewards=np.zeros((0, N_CHANNELS)),
        behavior_mean=np.zeros((0, ACTION_DIM)),
        behavior_stddev=np.zeros((0, ACTION_DIM)),
        final_observation=np.zeros(OBS_DIM),
        terminal=True,
        snippet_length=40,
    )
    assert empty == []


def test_stack_rejects_mixed_lengths():
    rng = np.random.default_rng(37)
    with pytest.raises(ValueError):
        stack_snippets([synth_snippet(rng, 3), synth_snippet(rng, 4)])
    with pytest.raises(ValueError):
        stack_snippets([])


# -- hyperparams and persistence -----------------------------------------------------


def test_hyperparams_validation_and_roundtrip():
    hp = AgentHyperparams()
    back = AgentHyperparams.from_dict(hp.as_dict())
    assert back == hp
    assert list(hp.as_dict()) == list(KNOB_NAMES)
    with pytest.raises(ValueError):
        AgentHyperparams(actor_lr=0.0)
    with pytest.raises(ValueError):
        AgentHyperparams(discount_goal=1.0)
    with pytest.raises(ValueError):
        AgentHyperparams(reward_weight_goal=-0.1)
    with pytest.raises(ValueError):
        AgentHyperparams.from_dict({"actor_lr": 1e-3, "bogus": 1.0})


def test_learner_checkpoint_roundtrip(tmp_path):
    learner = make_learner(seed=38, batch_size=2)
    rng = np.random.default_rng(39)
    learner.observe([synth_snippet(rng, 3) for _ in range(3)])
    for _ in range(3):
        learner.gradient_step()
    path = tmp_path / "agent.ckpt"
    learner.save(path, extra_meta={"agent_id": "a0"})

    restored, meta = Learner.load(path)
    assert meta["agent_id"] == "a0"
    assert restored.frames_learned == learner.frames_learned
    assert restored.gradient_steps == learner.gradient_steps
    assert restored.hyperparams == learner.hyperparams
    assert restored.policy_adam.step == learner.policy_adam.step
    for name, arr in learner.policy.arrays.items():
        np.testing.assert_array_equal(restored.policy.arrays[name], arr)
    for name, arr in learner.critic_target.arrays.items():
        np.testing.assert_array_equal(restored.critic_target.arrays[name], arr)

    restored.observe([synth_snippet(rng, 3) for _ in range(3)])
    assert restored.gradient_step() is not None


def test_adopt_networks_copies_and_resets():
    child = make_learner(seed=40, batch_size=2)
    parent = make_learner(seed=41, batch_size=2)
    rng = np.random.default_rng(42)
    parent.observe([synth_snippet(rng, 3) for _ in range(3)])
    child.observe([synth_snippet(rng, 3) for _ in range(3)])
    for _ in range(2):
        parent.gradient_step()
        child.gradient_step()
    child.adopt_networks(parent)
    for name, arr in parent.policy.arrays.items():
        np.testing.assert_array_equal(child.policy.arrays[name], arr)
    for name, arr in parent.critic.arrays.items():
        np.testing.assert_array_equal(child.critic.arrays[name], arr)
    assert child.policy_adam.step == 0
    assert np.all(child.policy_adam.m["mean.w"] == 0.0)
    assert len(child.replay) == 0
