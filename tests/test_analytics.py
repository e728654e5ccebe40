"""Touch-event statistics, counterfactual divergence, and the probe scenario.

Oracles: hand-enumerated touch sequences, synthetic states with hand-computed
spread/velocity values, Monte-Carlo estimates of the closed-form KL, and the
scripted passer stub whose probe episodes each complete at least one pass."""
import json

import numpy as np
import pytest

from soccerlab.env import EnvConfig, observe, probe_reset
from soccerlab.env.trace import emit_trace, read_trace, write_trace
from soccerlab.learner import AgentHyperparams, Learner, LearnerConfig
from soccerlab.netcore import ParamSet
from soccerlab.nets import ArchSpec, CriticNet, PolicyNet
from soccerlab.rollout import MatchActor, MatchResult, play_match
from soccerlab.evaluation import Entrant, load_entrant
from soccerlab.analytics import (
    SUBSETS,
    BehaviorStats,
    TouchEvent,
    aggregate_stats,
    count_events,
    counterfactual_profile,
    extract_stats,
    gaussian_kl,
    result_from_records,
    result_to_records,
    run_probe,
    touch_sequence,
)
from tests.stubs import PassivePolicy, ScriptedForward

TINY = ArchSpec(embed_sizes=(6, 4), trunk_sizes=(8,), core_size=6)
FIXED = EnvConfig().fixed_pitch()


def scripted_match(seed=5, max_steps=12, collect=False):
    actors = [MatchActor(policy_net=ScriptedForward("goal"), policy=ParamSet()) for _ in range(4)]
    return play_match(FIXED, actors, seed, collect=collect, keep_states=True, max_steps=max_steps)


def tiny_policy(seed=3):
    net = PolicyNet(TINY)
    return net, net.init_params(np.random.default_rng(seed))


def touch(step, player, x, y):
    return TouchEvent(step=step, player=player, team=0 if player < 2 else 1, pos=(x, y))


# -- event counting ----------------------------------------------------------


def test_pass_between_teammates_over_12m():
    touches = [touch(0, 0, 0.0, 0.0), touch(8, 1, 12.0, 0.0)]
    assert count_events(touches) == (1, 0, 1, 0)


def test_same_player_touching_twice_is_no_event():
    touches = [touch(0, 0, 0.0, 0.0), touch(3, 0, 11.0, 0.0)]
    assert count_events(touches) == (0, 0, 0, 0)


def test_five_touch_sequence_matches_manual_enumeration():
    touches = [
        touch(0, 0, 0.0, 0.0),
        touch(4, 1, 11.0, 0.0),   # pass, 11 m
        touch(7, 1, 12.0, 0.0),   # same player, nothing
        touch(9, 2, 14.0, 0.0),   # interception, 2 m
        touch(15, 0, 2.0, 0.0),   # interception, 12 m
    ]
    assert count_events(touches) == (1, 2, 1, 1)


def test_exactly_10m_does_not_count_as_long():
    touches = [touch(0, 0, 0.0, 0.0), touch(5, 1, 10.0, 0.0)]
    assert count_events(touches) == (1, 0, 0, 0)


def test_touch_sequence_flattens_and_orders_step_events():
    events = [
        [{"kind": "throw_in", "pos": [0.0, 0.0]}],
        [
            {"kind": "touch", "player": 2, "team": 1, "pos": [1.0, 2.0]},
            {"kind": "touch", "player": 0, "team": 0, "pos": [1.5, 2.0]},
        ],
        [],
        [{"kind": "touch", "player": 1, "team": 0, "pos": [3.0, 2.0]}],
    ]
    seq = touch_sequence(events)
    assert [t.step for t in seq] == [1, 1, 3]
    assert [t.player for t in seq] == [2, 0, 1]
    assert seq[0].pos == (1.0, 2.0)


# -- per-match statistics ------------------------------------------------------


def synthetic_result(steps=2):
    # Team 0 spread 6 m apart, team 1 only 3 m; only player 0 moves, straight
    # at the ball at 2 m/s. Spread fraction 0.5, mean vel-to-ball 2/4 = 0.5.
    s = probe_reset(FIXED, "left", seed=0)
    s.player_pos = np.array([[0.0, 0.0], [0.0, 6.0], [5.0, 0.0], [5.0, 3.0]])
    s.player_vel = np.zeros((4, 2))
    s.player_vel[0] = [2.0, 0.0]
    s.ball_pos = np.array([3.0, 0.0])
    s.ball_vel = np.zeros(2)
    states = [s.copy() for _ in range(steps + 1)]
    return MatchResult(
        score=(0, 0), steps=steps, events=[[] for _ in range(steps)],
        trajectories=None, states=states, seed=0,
    )


def test_extract_stats_hand_computed_values():
    stats = extract_stats(synthetic_result())
    assert stats.spread_fraction == 0.5
    assert stats.mean_vel_to_ball == 0.5
    assert stats.passes == stats.interceptions == 0
    assert stats.steps == 2 and not stats.empty


def test_extract_stats_empty_trace_is_zeroed_and_flagged():
    actors = [MatchActor(policy_net=PassivePolicy(), policy=ParamSet()) for _ in range(4)]
    result = play_match(FIXED, actors, seed=0, collect=False, keep_states=True, max_steps=0)
    stats = extract_stats(result)
    assert stats.empty and stats.steps == 0
    assert stats.passes == stats.interceptions == 0
    assert stats.spread_fraction == stats.mean_vel_to_ball == 0.0


def test_extract_stats_rejects_stateless_trace():
    result = play_match(
        FIXED,
        [MatchActor(policy_net=PassivePolicy(), policy=ParamSet()) for _ in range(4)],
        seed=0,
        collect=False,
        max_steps=3,
    )
    with pytest.raises(ValueError):
        extract_stats(result)


def test_behavior_stats_json_round_trip_and_validation():
    stats = extract_stats(synthetic_result())
    assert BehaviorStats.from_json(json.loads(json.dumps(stats.to_json()))) == stats
    with pytest.raises(ValueError):
        BehaviorStats(1, 0, 2, 0, 0.5, 0.0, steps=1, empty=False)  # 10m > total
    with pytest.raises(ValueError):
        BehaviorStats(0, 0, 0, 0, 1.5, 0.0, steps=1, empty=False)


def test_aggregate_stats_weights_by_steps():
    a = BehaviorStats(1, 0, 1, 0, 0.1, 1.0, steps=10, empty=False)
    b = BehaviorStats(2, 3, 0, 1, 0.5, 3.0, steps=30, empty=False)
    agg = aggregate_stats([a, b])
    assert agg.passes == 3 and agg.interceptions == 3
    assert agg.passes_10m == 1 and agg.interceptions_10m == 1
    assert agg.spread_fraction == pytest.approx(0.4)
    assert agg.mean_vel_to_ball == pytest.approx(2.5)
    assert agg.steps == 40 and not agg.empty
    assert aggregate_stats([]).empty


# -- trace records ----------------------------------------------------------------


def test_trace_records_round_trip_is_byte_identical(tmp_path):
    result = scripted_match(seed=3, max_steps=40, collect=True)
    records = result_to_records(result, note="test")
    blob = emit_trace(records)
    path = tmp_path / "match.ndjson"
    write_trace(path, records)
    parsed = read_trace(path)
    assert emit_trace(parsed) == blob

    back = result_from_records(parsed)
    assert back.score == result.score
    assert back.steps == result.steps
    assert back.seed == result.seed
    assert extract_stats(back) == extract_stats(result)
    for mine, theirs in zip(back.states, result.states):
        np.testing.assert_array_equal(mine.player_pos, theirs.player_pos)
        np.testing.assert_array_equal(mine.ball_pos, theirs.ball_pos)


def test_result_to_records_requires_full_recording():
    with pytest.raises(ValueError):
        result_to_records(scripted_match(collect=False).__class__(
            score=(0, 0), steps=2, events=[[], []], trajectories=None, states=None, seed=0))
    with pytest.raises(ValueError):
        result_to_records(scripted_match(seed=3, max_steps=5, collect=False))


# -- counterfactual divergence ------------------------------------------------------


def test_gaussian_kl_identity_and_positivity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        mean_p, mean_q = rng.normal(size=3), rng.normal(size=3)
        std_p, std_q = np.exp(rng.normal(size=3)), np.exp(rng.normal(size=3))
        assert gaussian_kl(mean_p, std_p, mean_p, std_p) == 0.0
        assert gaussian_kl(mean_p, std_p, mean_q, std_q) >= 0.0
    # Not symmetric: both directions are positive and they differ.
    forward = gaussian_kl([0.0], [0.5], [1.0], [1.5])
    reverse = gaussian_kl([1.0], [1.5], [0.0], [0.5])
    assert forward > 0.0 and reverse > 0.0 and abs(forward - reverse) > 1e-6


def test_counterfactual_identity_replacement_is_exactly_zero():
    # Re-encoding the observation with the entity left at its true position
    # must reproduce the action distribution bit for bit.
    net, params = tiny_policy()
    state = scripted_match().states[4]
    true_obs = observe(state, 0)
    alt = state.copy()
    alt.ball_pos = state.ball_pos.copy()
    alt_obs = observe(alt, 0)
    m1, s1, _ = net.apply(params, true_obs[None, :], None)
    m2, s2, _ = net.apply(params, alt_obs[None, :], None)
    assert gaussian_kl(m1[0], s1[0], m2[0], s2[0]) == 0.0


def test_ball_blind_policy_has_exactly_zero_ball_divergence():
    net, params = tiny_policy()
    blind = ParamSet({k: v.copy() for k, v in params.arrays.items()})
    blind.arrays["trunk.0.w"][5:7, :] = 0.0  # ball relative-position inputs
    profile = counterfactual_profile(net, blind, scripted_match(), player=1, seed=9)
    assert profile["ball_position"] == 0.0
    for subset in SUBSETS[1:]:
        assert profile[subset] > 0.0


def test_position_blind_policy_has_exactly_zero_player_divergences():
    net, params = tiny_policy()
    blind = ParamSet({k: v.copy() for k, v in params.arrays.items()})
    blind.arrays["embed.0.w"][0:2, :] = 0.0  # relative-position inputs of every player block
    profile = counterfactual_profile(net, blind, scripted_match(), player=2, seed=9)
    assert profile["ball_position"] > 0.0
    for subset in SUBSETS[1:]:
        assert profile[subset] == 0.0


def test_closed_form_kl_matches_monte_carlo_within_one_percent():
    net, params = tiny_policy()
    spread = ParamSet({k: v.copy() for k, v in params.arrays.items()})
    spread.arrays["mean.w"] *= 6.0  # separate the means so the KL is O(10)
    state = scripted_match().states[4]
    alt = state.copy()
    alt.ball_pos = np.array([3.0, -2.0])
    m1, s1, _ = net.apply(spread, observe(state, 0)[None, :], None)
    m2, s2, _ = net.apply(spread, observe(alt, 0)[None, :], None)
    closed = gaussian_kl(m1[0], s1[0], m2[0], s2[0])
    assert closed > 1.0

    rng = np.random.default_rng(0)
    z = m1[0] + s1[0] * rng.standard_normal((100_000, 3))

    def logp(z, mean, std):
        return -0.5 * np.sum(((z - mean) / std) ** 2, axis=1) - np.sum(np.log(std))

    monte_carlo = float(np.mean(logp(z, m1[0], s1[0]) - logp(z, m2[0], s2[0])))
    assert abs(monte_carlo - closed) <= 0.01 * closed


def test_divergence_is_deterministic_and_direction_sensitive():
    net, params = tiny_policy()
    trace = scripted_match()
    forward = counterfactual_profile(net, params, trace, 0, seed=4)["ball_position"]
    assert counterfactual_profile(net, params, trace, 0, seed=4)["ball_position"] == forward
    reverse = counterfactual_profile(net, params, trace, 0, seed=4, reverse=True)["ball_position"]
    assert forward > 0.0 and reverse > 0.0
    assert forward != reverse
    assert counterfactual_profile(net, params, trace, 0, seed=5)["ball_position"] != forward


def test_divergence_rejects_recurrent_policies_and_bad_input():
    trace = scripted_match()
    recurrent = PolicyNet(ArchSpec(embed_sizes=(6, 4), trunk_sizes=(8,), core_size=6, recurrent=True))
    rec_params = recurrent.init_params(np.random.default_rng(0))
    with pytest.raises(ValueError, match="feedforward"):
        counterfactual_profile(recurrent, rec_params, trace, 0)

    net, params = tiny_policy()
    with pytest.raises(ValueError, match="player"):
        counterfactual_profile(net, params, trace, 7)
    with pytest.raises(ValueError):
        counterfactual_profile(net, params, trace, 0, num_alternatives=0)
    empty = MatchResult(score=(0, 0), steps=0, events=[], trajectories=None, states=None, seed=0)
    with pytest.raises(ValueError):
        counterfactual_profile(net, params, empty, 0)


def test_profile_covers_every_subset():
    net, params = tiny_policy()
    profile = counterfactual_profile(net, params, scripted_match(), player=3, seed=2)
    assert set(profile) == set(SUBSETS)
    assert all(v >= 0.0 for v in profile.values())


# -- probe scenario -----------------------------------------------------------------


def passer_entrant():
    return Entrant("passer", ScriptedForward("teammate"), ParamSet())


def test_probe_scripted_passer_completes_a_pass_every_episode():
    for side in ("left", "right"):
        for episode_seed in range(4):
            passes, _ = run_probe(passer_entrant(), side, episodes=1, horizon=100, seed=episode_seed)
            assert passes >= 1
    passes, interceptions = run_probe(passer_entrant(), "left", episodes=25, horizon=100, seed=0)
    assert passes >= 25
    assert interceptions == 0


def test_probe_reports_counts_for_arbitrary_policies():
    net, params = tiny_policy()
    counts = run_probe(Entrant("net", net, params), "left", episodes=3, horizon=25)
    assert isinstance(counts[0], int) and isinstance(counts[1], int)
    assert counts[0] >= 0 and counts[1] >= 0
    repeat = run_probe(Entrant("net", net, params), "left", episodes=3, horizon=25)
    assert counts == repeat


def test_probe_loads_checkpoints_from_disk(tmp_path):
    learner = Learner(
        PolicyNet(TINY), CriticNet(TINY, n_heads=4), AgentHyperparams(), LearnerConfig(), seed=1
    )
    path = tmp_path / "agent.ckpt"
    learner.save(path)
    counts = run_probe(load_entrant(path), "right", episodes=1, horizon=10)
    assert len(counts) == 2


def test_probe_rejects_unknown_side():
    with pytest.raises(ValueError):
        run_probe(passer_entrant(), "center", episodes=1, horizon=5)
