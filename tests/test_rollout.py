"""Match rollouts: determinism, trajectory bookkeeping, snippet conversion."""
import numpy as np
import pytest

from soccerlab.env import ACTION_DIM, N_PLAYERS, OBS_DIM, EnvConfig, observe
from soccerlab.nets import ArchSpec, CriticNet, PolicyNet, desk_arch
from soccerlab.rollout import MatchActor, play_match

TINY = ArchSpec(embed_sizes=(6, 4), trunk_sizes=(8,), core_size=6)
TINY_LSTM = ArchSpec(embed_sizes=(6, 4), trunk_sizes=(8,), core_size=6, recurrent=True)
CONFIG = EnvConfig()


def make_actors(seed=0, recurrent_policy=False, with_critic=False, recurrent_critic=False):
    rng = np.random.default_rng(seed)
    actors = []
    for i in range(N_PLAYERS):
        policy_net = PolicyNet(TINY_LSTM if recurrent_policy else TINY)
        critic_net = None
        critic = None
        if with_critic:
            critic_net = CriticNet(TINY_LSTM if recurrent_critic else TINY, n_heads=4)
            critic = critic_net.init_params(rng)
        actors.append(
            MatchActor(
                policy_net=policy_net,
                policy=policy_net.init_params(rng),
                critic_net=critic_net,
                critic=critic,
                agent_id=f"agent{i}",
            )
        )
    return actors


def test_match_is_deterministic_in_seed():
    actors = make_actors()
    a = play_match(CONFIG, actors, seed=5, max_steps=80)
    b = play_match(CONFIG, actors, seed=5, max_steps=80)
    assert a.score == b.score and a.steps == b.steps
    for i in range(N_PLAYERS):
        np.testing.assert_array_equal(a.trajectories[i].actions, b.trajectories[i].actions)
        np.testing.assert_array_equal(a.trajectories[i].observations, b.trajectories[i].observations)

    c = play_match(CONFIG, actors, seed=6, max_steps=80)
    assert not np.array_equal(a.trajectories[0].actions, c.trajectories[0].actions)


def test_trajectories_are_consistent_with_the_environment():
    actors = make_actors(seed=1)
    result = play_match(CONFIG, actors, seed=2, max_steps=60, keep_states=True)
    assert result.steps == 60
    assert len(result.events) == result.steps
    assert len(result.states) == result.steps + 1
    for traj in result.trajectories:
        assert traj.observations.shape == (60, OBS_DIM)
        assert traj.actions.shape == (60, ACTION_DIM)
        assert traj.rewards.shape == (60, 4)
        assert not traj.terminal  # stopped by the step cap we imposed
        assert np.all(traj.behavior_stddev > 0.0)
    # Recorded observations are exactly what the environment would emit.
    np.testing.assert_array_equal(result.trajectories[2].observations[0], observe(result.states[0], 2))
    np.testing.assert_array_equal(
        result.trajectories[1].final_observation, observe(result.states[-1], 1)
    )
    # Actions are the behavior mean plus stddev-scaled noise, never clipped.
    traj = result.trajectories[0]
    noise = (traj.actions - traj.behavior_mean) / traj.behavior_stddev
    assert np.all(np.abs(noise) < 8.0)


def test_full_episode_terminates():
    actors = make_actors(seed=3)
    result = play_match(CONFIG, actors, seed=4)
    assert result.steps <= CONFIG.max_steps
    assert result.trajectories[0].terminal
    assert result.score[0] >= 0 and result.score[1] >= 0


def test_recurrent_states_are_recorded_and_partitioned():
    actors = make_actors(seed=7, recurrent_policy=True, with_critic=True, recurrent_critic=True)
    result = play_match(CONFIG, actors, seed=8, max_steps=50)
    traj = result.trajectories[0]
    assert len(traj.policy_states) == 50
    assert len(traj.critic_states) == 50
    assert traj.policy_states[0][0].shape == (1, TINY_LSTM.core_size)
    # The state stored at step 0 is the zero priming state.
    np.testing.assert_array_equal(traj.policy_states[0][0], 0.0)
    assert np.any(traj.policy_states[1][0] != 0.0)

    snippets = traj.snippets(snippet_length=20)
    assert [len(s) for s in snippets] == [20, 20]
    np.testing.assert_array_equal(snippets[0].policy_state0[0], traj.policy_states[10][0])
    np.testing.assert_array_equal(snippets[1].critic_state0[1], traj.critic_states[30][1])


def test_feedforward_matches_have_no_states():
    actors = make_actors(seed=9)
    result = play_match(CONFIG, actors, seed=10, max_steps=30)
    traj = result.trajectories[0]
    assert traj.policy_states is None and traj.critic_states is None
    snippets = traj.snippets(snippet_length=30)
    assert snippets[0].policy_state0 is None

    rewards = np.array([s.rewards for s in [snippets[0]]])
    assert rewards.shape == (1, 30, 4)


def test_collect_false_skips_trajectories():
    actors = make_actors(seed=11)
    result = play_match(CONFIG, actors, seed=12, max_steps=20, collect=False)
    assert result.trajectories is None
    assert len(result.events) == 20


def test_wrong_actor_count_rejected():
    actors = make_actors(seed=13)
    with pytest.raises(ValueError):
        play_match(CONFIG, actors[:3], seed=0)


def test_initial_state_override_is_respected():
    from soccerlab.env import probe_reset

    actors = make_actors(seed=14)
    start = probe_reset(CONFIG, "left", seed=0)
    result = play_match(CONFIG, actors, seed=15, max_steps=5, keep_states=True)
    probe = play_match(CONFIG, actors, seed=15, max_steps=5, keep_states=True, initial_state=start)
    np.testing.assert_array_equal(probe.states[0].player_pos, start.player_pos)
    assert not np.array_equal(result.states[0].player_pos, probe.states[0].player_pos)


def test_desk_arch_match_smoke():
    rng = np.random.default_rng(16)
    actors = []
    for i in range(N_PLAYERS):
        net = PolicyNet(desk_arch())
        actors.append(MatchActor(policy_net=net, policy=net.init_params(rng)))
    result = play_match(CONFIG, actors, seed=17, max_steps=40)
    assert result.steps == 40
