"""Decentralized population training: uniformly scheduled co-play matches,
Elo fitness with team-average updates, and the evolution pipeline of
eligibility, selection, cross-over inheritance, and bounded mutation.

The trainer is single-threaded and deterministic given its seed: matches,
learning, rating updates, and evolution decisions interleave in a fixed
round-robin order, which is the reference mode reproducibility tests rely
on.  All counters are frames processed by the learner (batch x snippet
steps per gradient step), not raw environment steps.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import TEAM_OF, EnvConfig
from .learner import KNOB_NAMES, AgentHyperparams, Learner
from .rollout import MatchActor, play_match

R_INIT = 1000.0

# Matches in a row that may fail before `Trainer.run` gives up: a match that
# keeps raising would otherwise loop forever when nothing caps the count.
MAX_FAILED_MATCHES = 20

DEFAULT_KNOB_BOUNDS: dict[str, tuple[float, float]] = {
    "actor_lr": (1e-6, 1e-2),
    "critic_lr": (1e-6, 1e-2),
    "entropy_cost": (0.0, 1.0),
    "reward_weight_goal": (0.0, 10.0),
    "reward_weight_concede": (0.0, 10.0),
    "reward_weight_vel_to_ball": (0.0, 10.0),
    "reward_weight_vel_ball_to_goal": (0.0, 10.0),
    "discount_goal": (0.9, 0.999),
    "discount_concede": (0.9, 0.999),
    "discount_vel_to_ball": (0.9, 0.999),
    "discount_vel_ball_to_goal": (0.9, 0.999),
}


@dataclass(frozen=True)
class PbtConfig:
    """Population constants; the three frame thresholds keep a 5:1:1
    proportion when scaled up or down together."""

    population_size: int = 4
    elo_k: float = 0.1
    select_threshold: float = 0.47
    p_mutate: float = 0.1
    perturb_scale: float = 0.2
    frames_before_first_eligible: int = 200_000
    frames_between_eligible: int = 40_000
    frames_burn_in: int = 40_000
    grace_fraction: float = 0.5  # of replay capacity, refilled before learning resumes
    evolve: bool = True  # False trains the fixed population (ablation baseline)
    knob_bounds: dict = field(default_factory=lambda: dict(DEFAULT_KNOB_BOUNDS))

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError("population must hold at least one 2v2 match")
        if not 0.0 < self.select_threshold < 0.5:
            raise ValueError("selection threshold must lie in (0, 0.5)")
        for p in (self.p_mutate, self.perturb_scale, self.grace_fraction):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities and fractions must lie in [0, 1]")
        if set(self.knob_bounds) != set(KNOB_NAMES):
            raise ValueError("knob_bounds must cover exactly the evolvable knobs")


# -- Elo ----------------------------------------------------------------------


def predicted_winrate(r_i: float, r_j: float) -> float:
    return 1.0 / (1.0 + 10.0 ** ((r_j - r_i) / 400.0))


def update_rating(r_i: float, r_j: float, s_i: float, s_j: float, k: float) -> tuple[float, float]:
    """One pairwise update from a match result; the rating sum is conserved."""
    s = (np.sign(s_i - s_j) + 1.0) / 2.0
    delta = k * (s - predicted_winrate(r_i, r_j))
    return r_i + delta, r_j - delta


# -- population bookkeeping ---------------------------------------------------


@dataclass
class PopulationAgent:
    """One agent's identity, learner, fitness and evolution counters."""

    agent_id: str
    learner: Learner
    rating: float = R_INIT
    eligible_mark: int = 0  # frames_learned when last judged eligible
    evolved_mark: int = 0  # frames_learned when last evolved
    refilling: bool = False  # grace period after inheritance

    @property
    def frames(self) -> int:
        return self.learner.frames_learned

    @property
    def hyperparams(self) -> AgentHyperparams:
        return self.learner.hyperparams

    def grace_target(self, config: PbtConfig) -> int:
        return int(self.learner.replay.capacity * config.grace_fraction)

    def in_grace(self, config: PbtConfig) -> bool:
        if not self.refilling:
            return False
        if len(self.learner.replay) >= self.grace_target(config):
            self.refilling = False
        return self.refilling


def eligible(agent: PopulationAgent, config: PbtConfig) -> bool:
    return (
        agent.frames >= config.frames_before_first_eligible
        and agent.frames - agent.eligible_mark >= config.frames_between_eligible
    )


def parent_ready(agent: PopulationAgent, config: PbtConfig) -> bool:
    return agent.frames - agent.evolved_mark >= config.frames_burn_in and not agent.in_grace(config)


def select(
    agent: PopulationAgent,
    population: list[PopulationAgent],
    config: PbtConfig,
    rng: np.random.Generator,
) -> PopulationAgent | None:
    """One uniformly drawn burn-in-complete candidate; returned only when the
    predicted win rate against it falls below the selection threshold."""
    candidates = [a for a in population if a is not agent and parent_ready(a, config)]
    if not candidates:
        return None
    candidate = candidates[rng.integers(len(candidates))]
    if predicted_winrate(agent.rating, candidate.rating) < config.select_threshold:
        return candidate
    return None


def crossover(
    own: AgentHyperparams, parent: AgentHyperparams, rng: np.random.Generator
) -> tuple[AgentHyperparams, dict[str, bool]]:
    """Independently keep each own knob with probability 0.5, else inherit."""
    mask = {name: bool(rng.random() < 0.5) for name in KNOB_NAMES}
    mixed = {
        name: (getattr(own, name) if mask[name] else getattr(parent, name)) for name in KNOB_NAMES
    }
    return AgentHyperparams.from_dict(mixed), mask


def mutate(
    hyperparams: AgentHyperparams, config: PbtConfig, rng: np.random.Generator
) -> tuple[AgentHyperparams, dict[str, float]]:
    """Each knob independently perturbed with probability p_mutate by a factor
    1 +- perturb_scale (direction uniform), then clamped to its bounds."""
    values = hyperparams.as_dict()
    factors: dict[str, float] = {}
    for name in KNOB_NAMES:
        if rng.random() >= config.p_mutate:
            continue
        factor = 1.0 + config.perturb_scale if rng.random() < 0.5 else 1.0 - config.perturb_scale
        lo, hi = config.knob_bounds[name]
        values[name] = float(np.clip(values[name] * factor, lo, hi))
        factors[name] = factor
    return AgentHyperparams.from_dict(values), factors


def inherit(
    child: PopulationAgent,
    parent: PopulationAgent,
    config: PbtConfig,
    rng: np.random.Generator,
) -> dict:
    """Copy the parent's networks, cross over hyperparameters, mutate, and
    start the child's grace (replay refill) and burn-in windows."""
    child.learner.adopt_networks(parent.learner)
    mixed, mask = crossover(child.hyperparams, parent.hyperparams, rng)
    mutated, factors = mutate(mixed, config, rng)
    child.learner.hyperparams = mutated
    child.evolved_mark = child.frames
    child.refilling = True
    return {
        "child": child.agent_id,
        "parent": parent.agent_id,
        "kept_own": mask,
        "mutations": factors,
        "hyperparams": mutated.as_dict(),
    }


def schedule_match(population_size: int, rng: np.random.Generator) -> tuple[list[int], list[int]]:
    """Four distinct agents uniformly at random; first two play blue."""
    if population_size < 4:
        raise ValueError("need at least 4 agents for a 2v2 match")
    picks = rng.permutation(population_size)[:4]
    return [int(picks[0]), int(picks[1])], [int(picks[2]), int(picks[3])]


# -- training loop -------------------------------------------------------------


class _NdjsonLog:
    """Line-delimited JSON sink that also retains records for inspection."""

    def __init__(self, path: Path | None):
        self.records: list[dict] = []
        self._fh = open(path, "a", encoding="utf-8") if path is not None else None

    def write(self, record: dict) -> None:
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class Trainer:
    """Single-threaded population training: play a match, feed replay, update
    ratings, step every learner, then run evolution checks."""

    def __init__(
        self,
        env_config: EnvConfig,
        agents: list[PopulationAgent],
        config: PbtConfig,
        seed: int = 0,
        steps_per_match: int = 4,
        out_dir=None,
        checkpoint_every: int = 0,
    ):
        if len(agents) != config.population_size:
            raise ValueError("agent list must match the configured population size")
        self.env_config = env_config
        self.agents = agents
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.steps_per_match = int(steps_per_match)
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.checkpoint_every = int(checkpoint_every)
        self.matches_played = 0
        self.matches_discarded = 0
        self.evolutions = 0
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            (self.out_dir / "checkpoints").mkdir(exist_ok=True)
        self.match_log = _NdjsonLog(self.out_dir / "matches.ndjson" if self.out_dir else None)
        self.evolution_log = _NdjsonLog(self.out_dir / "evolution.ndjson" if self.out_dir else None)
        self.learner_log = _NdjsonLog(self.out_dir / "learner.ndjson" if self.out_dir else None)

    # one snippet length shared by the whole population
    @property
    def snippet_length(self) -> int:
        return self.agents[0].learner.config.snippet_length

    def _actor_for(self, agent: PopulationAgent) -> MatchActor:
        learner = agent.learner
        critic_net = learner.critic_net if learner.critic_net.arch.recurrent else None
        return MatchActor(
            policy_net=learner.policy_net,
            policy=learner.policy,
            critic_net=critic_net,
            critic=learner.critic if critic_net is not None else None,
            agent_id=agent.agent_id,
        )

    def play_training_match(self) -> dict | None:
        """One scheduled match: snippets into the participants' replays and a
        team-average Elo update from the final score."""
        blue, red = schedule_match(len(self.agents), self.rng)
        lineup = blue + red
        seed = int(self.rng.integers(2**63))
        actors = [self._actor_for(self.agents[i]) for i in lineup]
        try:
            result = play_match(self.env_config, actors, seed)
        except Exception as error:  # a broken match must not kill training
            self.matches_discarded += 1
            self.match_log.write({"kind": "match_failed", "seed": seed, "error": repr(error)})
            return None

        for slot, agent_index in enumerate(lineup):
            assert TEAM_OF[slot] == (0 if slot < 2 else 1)
            trajectory = result.trajectories[slot]
            self.agents[agent_index].learner.observe(trajectory.snippets(self.snippet_length))

        # Team matches update through the team-average ratings; every member
        # moves by the same delta, so the population sum is conserved.
        blue_rating = float(np.mean([self.agents[i].rating for i in blue]))
        red_rating = float(np.mean([self.agents[i].rating for i in red]))
        updated_blue, _ = update_rating(
            blue_rating, red_rating, result.score[0], result.score[1], self.config.elo_k
        )
        delta = updated_blue - blue_rating
        for i in blue:
            self.agents[i].rating += delta
        for i in red:
            self.agents[i].rating -= delta

        self.matches_played += 1
        record = {
            "kind": "match",
            "match": self.matches_played,
            "seed": seed,
            "blue": [self.agents[i].agent_id for i in blue],
            "red": [self.agents[i].agent_id for i in red],
            "score": list(result.score),
            "steps": result.steps,
            "frames": {a.agent_id: a.frames for a in self.agents},
            "ratings": {a.agent_id: a.rating for a in self.agents},
        }
        self.match_log.write(record)
        return record

    def learning_phase(self) -> None:
        for agent in self.agents:
            if agent.in_grace(self.config):
                continue
            for _ in range(self.steps_per_match):
                metrics = agent.learner.gradient_step()
                if metrics is None:
                    break
                self.learner_log.write(
                    {
                        "agent": agent.agent_id,
                        "frames": metrics["frames_learned"],
                        "critic_loss": metrics["critic_loss"],
                        "entropy": metrics["entropy"],
                        "target_abs_mean": metrics["target_abs_mean"],
                    }
                )

    def evolution_phase(self) -> None:
        if not self.config.evolve:
            return
        for agent in self.agents:
            if not eligible(agent, self.config):
                continue
            agent.eligible_mark = agent.frames
            parent = select(agent, self.agents, self.config, self.rng)
            if parent is None:
                continue
            record = inherit(agent, parent, self.config, self.rng)
            self.evolutions += 1
            record.update({"kind": "evolution", "match": self.matches_played})
            self.evolution_log.write(record)

    def save_checkpoints(self) -> None:
        if self.out_dir is None:
            return
        for agent in self.agents:
            agent.learner.save(
                self.out_dir / "checkpoints" / f"{agent.agent_id}.ckpt",
                extra_meta={
                    "agent_id": agent.agent_id,
                    "rating": agent.rating,
                    "eligible_mark": agent.eligible_mark,
                    "evolved_mark": agent.evolved_mark,
                },
            )

    def run(self, frame_budget: int, max_matches: int | None = None) -> dict:
        """Train until every agent has learned from `frame_budget` frames."""
        failed_in_a_row = 0
        try:
            self.save_checkpoints()
            while min(a.frames for a in self.agents) < frame_budget:
                if max_matches is not None and self.matches_played + self.matches_discarded >= max_matches:
                    break
                played = self.play_training_match() is not None
                failed_in_a_row = 0 if played else failed_in_a_row + 1
                if failed_in_a_row == MAX_FAILED_MATCHES:
                    last = self.match_log.records[-1]
                    raise RuntimeError(
                        f"{failed_in_a_row} matches in a row failed; the last (seed {last['seed']}): {last['error']}"
                    )
                self.learning_phase()
                self.evolution_phase()
                if played and self.checkpoint_every and self.matches_played % self.checkpoint_every == 0:
                    self.save_checkpoints()
            self.save_checkpoints()
        finally:
            self.match_log.close()
            self.evolution_log.close()
            self.learner_log.close()
        return {
            "matches": self.matches_played,
            "discarded": self.matches_discarded,
            "evolutions": self.evolutions,
            "frames": {a.agent_id: a.frames for a in self.agents},
            "ratings": {a.agent_id: a.rating for a in self.agents},
        }
