"""Population training mechanics: Elo closed forms, evolution statistics,
grace/burn-in gating, and the training loop's bookkeeping."""
import json

import numpy as np
import pytest

import soccerlab.pbt as pbt
from soccerlab.env import EnvConfig
from soccerlab.learner import KNOB_NAMES, AgentHyperparams, LearnerConfig, Learner
from soccerlab.nets import ArchSpec, CriticNet, PolicyNet
from soccerlab.pbt import (
    DEFAULT_KNOB_BOUNDS,
    PbtConfig,
    PopulationAgent,
    Trainer,
    crossover,
    eligible,
    inherit,
    mutate,
    parent_ready,
    predicted_winrate,
    schedule_match,
    select,
    update_rating,
)
from soccerlab.rollout import play_match

TINY = ArchSpec(embed_sizes=(6, 4), trunk_sizes=(8,), core_size=6)


def make_agent(agent_id="a0", seed=0, replay_capacity=64, batch_size=2, snippet_length=4):
    config = LearnerConfig(
        snippet_length=snippet_length, batch_size=batch_size, replay_capacity=replay_capacity
    )
    learner = Learner(PolicyNet(TINY), CriticNet(TINY, n_heads=4), AgentHyperparams(), config, seed=seed)
    return PopulationAgent(agent_id=agent_id, learner=learner)


def make_population(n=4, **kwargs):
    return [make_agent(agent_id=f"a{i}", seed=i, **kwargs) for i in range(n)]


# -- Elo ------------------------------------------------------------------------


def test_predicted_winrate_closed_forms():
    assert predicted_winrate(1000.0, 1000.0) == pytest.approx(0.5)
    assert predicted_winrate(1400.0, 1000.0) == pytest.approx(10.0 / 11.0)
    assert predicted_winrate(1000.0, 1400.0) == pytest.approx(1.0 / 11.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.uniform(500.0, 1500.0, size=2)
        assert predicted_winrate(a, b) + predicted_winrate(b, a) == pytest.approx(1.0, abs=1e-12)
    grid = np.linspace(-800.0, 800.0, 33)
    rates = [predicted_winrate(1000.0 + d, 1000.0) for d in grid]
    assert np.all(np.diff(rates) > 0.0)


def test_update_rating_matches_hand_values():
    r_i, r_j = update_rating(1000.0, 1000.0, 1, 1, k=0.1)
    assert (r_i, r_j) == (1000.0, 1000.0)  # draw at equal ratings

    r_i, r_j = update_rating(1400.0, 1000.0, 2, 0, k=0.1)
    assert r_i == pytest.approx(1400.0 + 0.1 * (1.0 - 10.0 / 11.0))
    assert r_j == pytest.approx(1000.0 - 0.1 * (1.0 - 10.0 / 11.0))

    r_i, r_j = update_rating(1000.0, 1000.0, 0, 3, k=0.1)
    assert r_i == pytest.approx(1000.0 - 0.05) and r_j == pytest.approx(1000.0 + 0.05)

    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rng.uniform(600.0, 1400.0, size=2)
        s_a, s_b = rng.integers(0, 4, size=2)
        na, nb = update_rating(a, b, int(s_a), int(s_b), k=0.1)
        assert na + nb == pytest.approx(a + b, abs=1e-12)


# -- eligibility / selection -------------------------------------------------------


def eligibility_config(**kwargs):
    defaults = dict(
        population_size=4,
        frames_before_first_eligible=100,
        frames_between_eligible=40,
        frames_burn_in=40,
    )
    defaults.update(kwargs)
    return PbtConfig(**defaults)


def test_eligibility_thresholds_are_inclusive():
    config = eligibility_config()
    agent = make_agent()
    assert not eligible(agent, config)  # fresh agent

    agent.learner.frames_learned = 99
    assert not eligible(agent, config)
    agent.learner.frames_learned = 100
    assert eligible(agent, config)  # both thresholds exactly met

    agent.eligible_mark = 100
    agent.learner.frames_learned = 139
    assert not eligible(agent, config)
    agent.learner.frames_learned = 140
    assert eligible(agent, config)


def test_parent_ready_respects_burn_in_and_grace():
    config = eligibility_config()
    agent = make_agent(replay_capacity=8)
    agent.learner.frames_learned = 200
    assert parent_ready(agent, config)

    agent.evolved_mark = 180
    assert not parent_ready(agent, config)
    agent.learner.frames_learned = 220
    assert parent_ready(agent, config)

    agent.refilling = True  # grace: replay empty, target is 4 snippets
    assert not parent_ready(agent, config)


def test_select_threshold_and_empty_pool():
    config = eligibility_config()
    rng = np.random.default_rng(2)
    population = make_population()
    for agent in population:
        agent.learner.frames_learned = 1000

    # Equal ratings: predicted win rate 0.5 >= 0.47, never selected.
    assert select(population[0], population, config, rng) is None

    population[0].rating = 600.0  # 400 below everyone: s_elo ~ 0.09 < 0.47
    assert select(population[0], population, config, rng) is not None

    # No burn-in-complete candidates.
    for agent in population[1:]:
        agent.evolved_mark = agent.frames
    assert select(population[0], population, config, rng) is None


def test_select_draws_candidates_uniformly():
    config = eligibility_config()
    rng = np.random.default_rng(3)
    population = make_population()
    population[0].rating = 400.0
    for agent in population:
        agent.learner.frames_learned = 1000
    counts = {a.agent_id: 0 for a in population[1:]}
    trials = 10_000
    for _ in range(trials):
        parent = select(population[0], population, config, rng)
        counts[parent.agent_id] += 1
    sigma = np.sqrt((1 / 3) * (2 / 3) / trials)
    for agent_id, count in counts.items():
        assert abs(count / trials - 1 / 3) < 3 * sigma + 1e-9, agent_id


# -- crossover / mutation -----------------------------------------------------------


def distinct_parent_hyperparams():
    return AgentHyperparams(
        actor_lr=9e-4,
        critic_lr=3e-3,
        entropy_cost=3e-3,
        reward_weight_goal=2.0,
        reward_weight_concede=0.5,
        reward_weight_vel_to_ball=0.15,
        reward_weight_vel_ball_to_goal=0.3,
        discount_goal=0.995,
        discount_concede=0.97,
        discount_vel_to_ball=0.92,
        discount_vel_ball_to_goal=0.93,
    )


def test_crossover_mixes_exactly_by_mask():
    rng = np.random.default_rng(4)
    own, parent = AgentHyperparams(), distinct_parent_hyperparams()
    mixed, mask = crossover(own, parent, rng)
    for name in KNOB_NAMES:
        source = own if mask[name] else parent
        assert getattr(mixed, name) == getattr(source, name), name


def test_crossover_keep_rate_is_half():
    rng = np.random.default_rng(5)
    own, parent = AgentHyperparams(), distinct_parent_hyperparams()
    trials = 10_000
    kept = {name: 0 for name in KNOB_NAMES}
    for _ in range(trials):
        _, mask = crossover(own, parent, rng)
        for name, keep in mask.items():
            kept[name] += keep
    sigma = np.sqrt(0.25 / trials)
    for name, count in kept.items():
        assert abs(count / trials - 0.5) < 3 * sigma + 1e-9, name


def test_mutation_rate_factors_and_bounds():
    config = eligibility_config()
    rng = np.random.default_rng(6)
    base = distinct_parent_hyperparams()
    trials = 20_000
    mutated_counts = {name: 0 for name in KNOB_NAMES}
    for _ in range(trials):
        new, factors = mutate(base, config, rng)
        for name, factor in factors.items():
            mutated_counts[name] += 1
            assert factor in (0.8, 1.2)
        for name in KNOB_NAMES:
            lo, hi = DEFAULT_KNOB_BOUNDS[name]
            assert lo <= getattr(new, name) <= hi
    sigma = np.sqrt(0.1 * 0.9 / trials)
    for name, count in mutated_counts.items():
        assert abs(count / trials - 0.1) < 3 * sigma + 1e-9, name


def test_mutation_clamps_at_bounds_and_preserves_zero():
    config = eligibility_config(p_mutate=1.0)
    rng = np.random.default_rng(7)
    top = AgentHyperparams(discount_goal=0.999)
    for _ in range(20):
        new, factors = mutate(top, config, rng)
        assert new.discount_goal <= 0.999
        if factors.get("discount_goal") == 1.2:
            assert new.discount_goal == 0.999  # clamped upward perturbation
    zeroed = AgentHyperparams(reward_weight_vel_to_ball=0.0)
    for _ in range(20):
        new, _ = mutate(zeroed, config, rng)
        assert new.reward_weight_vel_to_ball == 0.0  # multiplicative: zero stays off

    identity, factors = mutate(top, eligibility_config(p_mutate=0.0), rng)
    assert identity == top and factors == {}


# -- scheduling ----------------------------------------------------------------------


def test_schedule_match_uses_distinct_agents():
    rng = np.random.default_rng(8)
    blue, red = schedule_match(4, rng)
    assert sorted(blue + red) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        schedule_match(3, rng)


def test_schedule_match_participation_is_uniform():
    rng = np.random.default_rng(9)
    trials = 100_000
    counts = np.zeros(8)
    for _ in range(trials):
        blue, red = schedule_match(8, rng)
        assert len(set(blue + red)) == 4
        counts[blue + red] += 1
    sigma = np.sqrt(0.5 * 0.5 / trials)
    np.testing.assert_allclose(counts / trials, 0.5, atol=3 * sigma + 1e-9)


# -- inheritance ----------------------------------------------------------------------


def test_inherit_copies_networks_and_starts_grace():
    config = eligibility_config(p_mutate=0.0)
    rng = np.random.default_rng(10)
    child, parent = make_agent("child", seed=1), make_agent("parent", seed=2)
    parent.learner.hyperparams = distinct_parent_hyperparams()
    child.learner.frames_learned = 500
    record = inherit(child, parent, config, rng)

    for name, arr in parent.learner.policy.arrays.items():
        np.testing.assert_array_equal(child.learner.policy.arrays[name], arr)
    for name, arr in parent.learner.critic_target.arrays.items():
        np.testing.assert_array_equal(child.learner.critic_target.arrays[name], arr)
    assert child.learner.policy_adam.step == 0
    assert len(child.learner.replay) == 0
    assert child.evolved_mark == 500
    assert child.refilling and child.in_grace(config)
    assert record["child"] == "child" and record["parent"] == "parent"
    for name in KNOB_NAMES:
        source = record["kept_own"][name]
        expected = (distinct_parent_hyperparams() if not source else AgentHyperparams())
        assert getattr(child.learner.hyperparams, name) == getattr(expected, name)


def test_grace_clears_once_replay_refills():
    config = eligibility_config()
    agent = make_agent(replay_capacity=8)  # grace target: 4 snippets
    agent.refilling = True
    assert agent.in_grace(config)
    from tests.test_learner import synth_snippet

    rng = np.random.default_rng(11)
    agent.learner.observe([synth_snippet(rng, 4) for _ in range(4)])
    assert not agent.in_grace(config)
    assert not agent.refilling  # latched off


# -- training loop ----------------------------------------------------------------------


def fast_env():
    return EnvConfig(episode_seconds=2.0)  # 40-step episodes


def test_rigged_dominant_agent_gains_rating_and_forces_evolution(monkeypatch, tmp_path):
    config = PbtConfig(
        population_size=4,
        elo_k=1.0,
        frames_before_first_eligible=1,
        frames_between_eligible=1,
        frames_burn_in=1,
    )
    agents = make_population(replay_capacity=8)

    real_play_match = play_match

    def rigged(env_config, actors, seed, **kwargs):
        result = real_play_match(env_config, actors, seed, max_steps=3, **kwargs)
        ids = [a.agent_id for a in actors]
        if "a0" in ids[:2]:
            score = (1, 0)
        elif "a0" in ids[2:]:
            score = (0, 1)
        else:
            score = result.score
        return type(result)(
            score=score,
            steps=result.steps,
            events=result.events,
            trajectories=result.trajectories,
            states=result.states,
            seed=result.seed,
        )

    monkeypatch.setattr(pbt, "play_match", rigged)
    trainer = Trainer(fast_env(), agents, config, seed=12, steps_per_match=1, out_dir=tmp_path)
    summary = trainer.run(frame_budget=10**9, max_matches=100)

    assert summary["matches"] == 100
    a0_ratings = [rec["ratings"]["a0"] for rec in trainer.match_log.records if rec["kind"] == "match"]
    diffs = np.diff(a0_ratings)
    assert np.all(diffs > 0.0)  # a0 never loses, so its rating only climbs
    assert summary["evolutions"] >= 1
    total = sum(summary["ratings"].values())
    assert total == pytest.approx(4 * pbt.R_INIT, abs=1e-9)

    evo = trainer.evolution_log.records[0]
    assert evo["child"] != "a0"  # the rigged winner is never the weak agent
    assert set(evo["kept_own"]) == set(KNOB_NAMES)


def test_trainer_runs_real_matches_and_writes_logs(tmp_path):
    config = PbtConfig(population_size=4)
    agents = make_population(replay_capacity=16)
    trainer = Trainer(
        fast_env(), agents, config, seed=13, steps_per_match=1, out_dir=tmp_path, checkpoint_every=2
    )
    summary = trainer.run(frame_budget=32, max_matches=6)
    assert summary["matches"] >= 1
    assert min(summary["frames"].values()) >= 32 or summary["matches"] == 6

    match_lines = (tmp_path / "matches.ndjson").read_text().strip().splitlines()
    parsed = [json.loads(line) for line in match_lines]
    assert all(rec["kind"] == "match" for rec in parsed)
    assert {len(rec["blue"]) for rec in parsed} == {2}

    learner_lines = (tmp_path / "learner.ndjson").read_text().strip().splitlines()
    first = json.loads(learner_lines[0])
    assert {"agent", "frames", "critic_loss", "entropy", "target_abs_mean"} <= set(first)

    for agent in agents:
        path = tmp_path / "checkpoints" / f"{agent.agent_id}.ckpt"
        assert path.exists()
        restored, meta = Learner.load(path)
        assert meta["agent_id"] == agent.agent_id
        assert meta["rating"] == agent.rating
        assert restored.frames_learned == agent.frames


def test_zero_budget_only_writes_initial_checkpoints(tmp_path):
    config = PbtConfig(population_size=4)
    agents = make_population()
    trainer = Trainer(fast_env(), agents, config, seed=14, out_dir=tmp_path)
    summary = trainer.run(frame_budget=0)
    assert summary["matches"] == 0
    assert (tmp_path / "checkpoints" / "a0.ckpt").exists()


def test_failed_match_is_discarded_and_training_continues(monkeypatch, tmp_path):
    config = PbtConfig(population_size=4)
    agents = make_population(replay_capacity=8)
    calls = {"n": 0}
    real = play_match

    def flaky(env_config, actors, seed, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("worker died")
        return real(env_config, actors, seed, max_steps=3, **kwargs)

    monkeypatch.setattr(pbt, "play_match", flaky)
    trainer = Trainer(fast_env(), agents, config, seed=15)
    summary = trainer.run(frame_budget=10**9, max_matches=3)
    assert summary["discarded"] == 1
    assert summary["matches"] == 2
    assert trainer.match_log.records[0]["kind"] == "match_failed"


class _Runaway(BaseException):
    """Escapes `Trainer.run`'s match error handling, so a loop that never
    gives up fails the test instead of hanging it."""


def test_trainer_gives_up_when_every_match_fails(monkeypatch, tmp_path):
    limit = pbt.MAX_FAILED_MATCHES
    calls = {"n": 0}

    def broken(env_config, actors, seed, **kwargs):
        calls["n"] += 1
        if calls["n"] > limit + 1:
            raise _Runaway
        raise RuntimeError("worker died")

    monkeypatch.setattr(pbt, "play_match", broken)
    config = PbtConfig(population_size=4)
    trainer = Trainer(fast_env(), make_population(), config, seed=16, out_dir=tmp_path, checkpoint_every=1)
    sweeps = {"n": 0}
    real_sweep = trainer.save_checkpoints

    def counted_sweep():
        sweeps["n"] += 1
        real_sweep()

    monkeypatch.setattr(trainer, "save_checkpoints", counted_sweep)
    with pytest.raises(RuntimeError, match="worker died"):
        trainer.run(frame_budget=10**9)
    assert calls["n"] == limit
    assert sweeps["n"] == 1  # the initial sweep only: no match was played
    assert [rec["kind"] for rec in trainer.match_log.records] == ["match_failed"] * limit


def test_pbt_config_validation():
    with pytest.raises(ValueError):
        PbtConfig(population_size=2)
    with pytest.raises(ValueError):
        PbtConfig(select_threshold=0.6)
    with pytest.raises(ValueError):
        PbtConfig(p_mutate=1.5)
    with pytest.raises(ValueError):
        PbtConfig(knob_bounds={"actor_lr": (0.0, 1.0)})
