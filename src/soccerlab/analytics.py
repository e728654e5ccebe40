"""Post-hoc analysis of match traces.

Three instruments over recorded matches: touch-derived event statistics
(passes, interceptions, spread, chase speed), counterfactual observation
divergence (how much a policy's action distribution shifts when one entity
of the observation is swapped for a random valid alternative), and a fixed
pass/intercept probe scenario replayed from the deterministic layout.

Traces are the immutable (events, states) records produced by
rollout.play_match with keep_states on; everything here is a pure function
of a trace and a seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import (
    N_PLAYERS,
    TEAM_OF,
    TEAMMATE_OF,
    EnvConfig,
    EnvState,
    observe,
    probe_reset,
    shaping_rewards,
    trace,
)
from .rollout import MatchActor, MatchResult, play_match
from .seeding import derive_seed

PASS_DISTANCE = 10.0   # ball travel for the long-pass variants
SPREAD_DISTANCE = 5.0  # teammates at least this far apart count as spread out

# Observation entities whose world position can be counterfactually replaced.
SUBSETS = ("ball_position", "teammate_position", "opponent0_position", "opponent1_position")


# ---- touch events and behavior statistics --------------------------------


@dataclass(frozen=True)
class TouchEvent:
    step: int
    player: int
    team: int
    pos: tuple[float, float]


def touch_sequence(events: list[list[dict]]) -> list[TouchEvent]:
    """Time-ordered ball touches from per-step event lists."""
    touches = []
    for step, batch in enumerate(events):
        for ev in batch:
            if ev.get("kind") == "touch":
                touches.append(
                    TouchEvent(
                        step=step,
                        player=int(ev["player"]),
                        team=int(ev["team"]),
                        pos=(float(ev["pos"][0]), float(ev["pos"][1])),
                    )
                )
    return touches


@dataclass(frozen=True)
class BehaviorStats:
    """Per-match event counts and step-averaged positioning statistics."""

    passes: int
    interceptions: int
    passes_10m: int
    interceptions_10m: int
    spread_fraction: float
    mean_vel_to_ball: float
    steps: int
    empty: bool

    def __post_init__(self):
        if not (0.0 <= self.spread_fraction <= 1.0):
            raise ValueError("spread_fraction must lie in [0, 1]")
        if self.passes_10m > self.passes or self.interceptions_10m > self.interceptions:
            raise ValueError("long-range counts cannot exceed the unrestricted counts")

    def to_json(self) -> dict:
        return {
            "passes": self.passes,
            "interceptions": self.interceptions,
            "passes_10m": self.passes_10m,
            "interceptions_10m": self.interceptions_10m,
            "spread_fraction": self.spread_fraction,
            "mean_vel_to_ball": self.mean_vel_to_ball,
            "steps": self.steps,
            "empty": self.empty,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BehaviorStats":
        return cls(
            passes=int(obj["passes"]),
            interceptions=int(obj["interceptions"]),
            passes_10m=int(obj["passes_10m"]),
            interceptions_10m=int(obj["interceptions_10m"]),
            spread_fraction=float(obj["spread_fraction"]),
            mean_vel_to_ball=float(obj["mean_vel_to_ball"]),
            steps=int(obj["steps"]),
            empty=bool(obj["empty"]),
        )


def count_events(touches: list[TouchEvent]) -> tuple[int, int, int, int]:
    """(passes, interceptions, passes over 10m, interceptions over 10m).

    A pass is a pair of consecutive touches by distinct players of one team;
    an interception is a consecutive pair by opposing teams. A player
    touching twice in a row yields nothing. The long variants additionally
    require the ball to have moved more than 10 m between the touches.
    """
    passes = interceptions = passes_10m = interceptions_10m = 0
    for prev, cur in zip(touches, touches[1:]):
        if cur.player == prev.player:
            continue
        travelled = float(np.hypot(cur.pos[0] - prev.pos[0], cur.pos[1] - prev.pos[1]))
        if cur.team == prev.team:
            passes += 1
            passes_10m += travelled > PASS_DISTANCE
        else:
            interceptions += 1
            interceptions_10m += travelled > PASS_DISTANCE
    return passes, interceptions, passes_10m, interceptions_10m


def _zeroed_stats() -> BehaviorStats:
    return BehaviorStats(0, 0, 0, 0, 0.0, 0.0, steps=0, empty=True)


def extract_stats(result: MatchResult) -> BehaviorStats:
    """Event counts plus spread/chase statistics over the pre-step states."""
    if result.steps == 0:
        return _zeroed_stats()
    if result.states is None or len(result.states) != result.steps + 1:
        raise ValueError("trace has no per-step states; record with keep_states")
    counts = count_events(touch_sequence(result.events))

    spread_hits = 0
    vel_sum = 0.0
    pre = result.states[: result.steps]
    for state in pre:
        for team in (0, 1):
            gap = state.player_pos[2 * team] - state.player_pos[2 * team + 1]
            spread_hits += float(np.hypot(gap[0], gap[1])) >= SPREAD_DISTANCE
        for i in range(N_PLAYERS):
            vel_sum += shaping_rewards(state, i)[0]
    return BehaviorStats(
        *counts,
        spread_fraction=spread_hits / (2 * len(pre)),
        mean_vel_to_ball=vel_sum / (N_PLAYERS * len(pre)),
        steps=result.steps,
        empty=False,
    )


def aggregate_stats(many: list[BehaviorStats]) -> BehaviorStats:
    """Counts sum across matches; fractions and means weight by step count."""
    total_steps = sum(s.steps for s in many)
    if total_steps == 0:
        return _zeroed_stats()
    weight = np.array([s.steps / total_steps for s in many])
    return BehaviorStats(
        passes=sum(s.passes for s in many),
        interceptions=sum(s.interceptions for s in many),
        passes_10m=sum(s.passes_10m for s in many),
        interceptions_10m=sum(s.interceptions_10m for s in many),
        spread_fraction=float(weight @ [s.spread_fraction for s in many]),
        mean_vel_to_ball=float(weight @ [s.mean_vel_to_ball for s in many]),
        steps=total_steps,
        empty=False,
    )


# ---- trace files ----------------------------------------------------------
# env.trace owns the line-delimited format; these bridge full match results
# onto it and back into the subset the statistics need.


def result_to_records(result: MatchResult, note: str = "") -> list[dict]:
    """Header, one step record per control step, final record with the score."""
    if result.states is None or len(result.states) != result.steps + 1:
        raise ValueError("trace has no per-step states; record with keep_states")
    if result.steps > 0 and result.trajectories is None:
        raise ValueError("trace has no actions; record with collect")
    records = [trace.header_record(result.states[0], result.seed, note=note)]
    for t in range(result.steps):
        actions = np.stack([traj.actions[t] for traj in result.trajectories])
        rewards = np.stack([traj.rewards[t] for traj in result.trajectories])
        records.append(trace.step_record(t, result.states[t], actions, rewards, result.events[t]))
    records.append(trace.final_record(result.steps, result.states[-1]))
    return records


def result_from_records(records: list[dict]) -> MatchResult:
    """Rebuild the physical trajectory; actions and rewards are not kept."""
    header = records[0]
    length, width = float(header["pitch"][0]), float(header["pitch"][1])
    body = [r for r in records[1:] if r["type"] in ("step", "final")]
    if not body or body[-1]["type"] != "final":
        raise ValueError("trace must end with a final record")
    score = tuple(int(v) for v in body[-1]["score"])
    states = []
    events = []
    for rec in body:
        players = np.asarray(rec["players"], dtype=float)
        ball = [float(v) for v in rec["ball"]]
        final = rec["type"] == "final"
        states.append(
            EnvState(
                pitch_length=length,
                pitch_width=width,
                player_pos=players[:, 0:2].copy(),
                player_vel=players[:, 2:4].copy(),
                player_heading=players[:, 4].copy(),
                player_angvel=players[:, 5].copy(),
                ball_pos=np.array(ball[0:2]),
                ball_vel=np.array(ball[2:4]),
                ball_spin=ball[4],
                step_count=int(rec["t"]),
                terminal=final,
                score=score if final else (0, 0),
                rng_seed=int(header["seed"]),
                rng_calls=0,
            )
        )
        if not final:
            events.append(rec["events"])
    return MatchResult(
        score=score,
        steps=len(body) - 1,
        events=events,
        trajectories=None,
        states=states,
        seed=int(header["seed"]),
    )


# ---- counterfactual divergence ---------------------------------------------


def gaussian_kl(mean_p, std_p, mean_q, std_q) -> np.ndarray | float:
    """KL(p || q) between diagonal Gaussians, summed over the last axis."""
    mean_p, std_p = np.asarray(mean_p, dtype=float), np.asarray(std_p, dtype=float)
    mean_q, std_q = np.asarray(mean_q, dtype=float), np.asarray(std_q, dtype=float)
    per_dim = np.log(std_q) - np.log(std_p) + (std_p**2 + (mean_p - mean_q) ** 2) / (2.0 * std_q**2) - 0.5
    out = np.sum(per_dim, axis=-1)
    return float(out) if out.ndim == 0 else out


def _entity_index(subset: str, player: int) -> int | None:
    """World entity moved by the subset, from `player`'s point of view; None = ball."""
    if subset == "ball_position":
        return None
    if subset == "teammate_position":
        return TEAMMATE_OF[player]
    opponents = [j for j in range(N_PLAYERS) if TEAM_OF[j] != TEAM_OF[player]]
    if subset == "opponent0_position":
        return opponents[0]
    if subset == "opponent1_position":
        return opponents[1]
    raise ValueError(f"unknown observation subset {subset!r}; expected one of {SUBSETS}")


def _replaced_observation(state: EnvState, player: int, entity: int | None, pos: np.ndarray) -> np.ndarray:
    alt = state.copy()
    if entity is None:
        alt.ball_pos = np.asarray(pos, dtype=float)
    else:
        alt.player_pos[entity] = pos
    return observe(alt, player)


def counterfactual_divergence(
    policy_net,
    policy,
    result: MatchResult,
    player: int,
    subset: str,
    num_alternatives: int = 10,
    seed: int = 0,
    reverse: bool = False,
) -> float:
    """Mean KL(true || counterfactual) action distribution over a trace.

    At every step the chosen entity's world position is replaced by draws
    uniform over the pitch (the placement distribution of a fresh episode)
    and the observation is re-encoded, so exactly that entity's features
    change. Feedforward policies only: a recurrent state would carry the
    true history into the counterfactual branch. `reverse` swaps the KL
    direction.
    """
    return _divergences(policy_net, policy, result, player, (subset,), num_alternatives, seed, reverse)[subset]


def counterfactual_profile(
    policy_net,
    policy,
    result: MatchResult,
    player: int,
    num_alternatives: int = 10,
    seed: int = 0,
    reverse: bool = False,
) -> dict[str, float]:
    """Divergence per observation subset, every subset on the same draws."""
    return _divergences(policy_net, policy, result, player, SUBSETS, num_alternatives, seed, reverse)


def _divergences(policy_net, policy, result, player, subsets, num_alternatives, seed, reverse) -> dict[str, float]:
    """`counterfactual_divergence` for each of `subsets` in one pass over the
    trace: each step observes the true state and runs the policy on it once,
    and every subset replaces its entity with the same draws."""
    entities = {subset: _entity_index(subset, player) for subset in subsets}
    if policy_net.zero_state(1) is not None:
        raise ValueError("counterfactual divergence is only defined for feedforward policies")
    if not 0 <= player < N_PLAYERS:
        raise ValueError("player index out of range")
    if num_alternatives < 1:
        raise ValueError("num_alternatives must be at least 1")
    if result.steps == 0:
        raise ValueError("empty trace")
    if result.states is None or len(result.states) != result.steps + 1:
        raise ValueError("trace has no per-step states; record with keep_states")

    rng = np.random.default_rng([int(seed), N_PLAYERS * len(SUBSETS)])
    totals = dict.fromkeys(subsets, 0.0)
    for state in result.states[: result.steps]:
        half = np.array([state.pitch_length / 2.0, state.pitch_width / 2.0])
        true_mean, true_std, _ = policy_net.apply(policy, observe(state, player)[None, :], None)
        draws = [rng.uniform(-half, half) for _ in range(num_alternatives)]
        for subset, entity in entities.items():
            # One forward pass per alternative, same batch shape as the true
            # pass: identical call shapes keep float reduction order
            # identical, so a policy that is functionally independent of the
            # subset reports a divergence of exactly zero.
            alt_means, alt_stds = [], []
            for pos in draws:
                alt = _replaced_observation(state, player, entity, pos)
                m, s, _ = policy_net.apply(policy, alt[None, :], None)
                alt_means.append(m[0])
                alt_stds.append(s[0])
            alt_mean, alt_std = np.stack(alt_means), np.stack(alt_stds)
            if reverse:
                kl = gaussian_kl(alt_mean, alt_std, true_mean, true_std)
            else:
                kl = gaussian_kl(true_mean, true_std, alt_mean, alt_std)
            totals[subset] += float(np.sum(kl))
    return {subset: total / (result.steps * num_alternatives) for subset, total in totals.items()}


# ---- probe scenario ----------------------------------------------------------


def run_probe(
    entrant,
    side: str,
    episodes: int = 100,
    horizon: int = 100,
    env_config: EnvConfig | None = None,
    seed: int = 0,
) -> tuple[int, int]:
    """(passes, interceptions) within `horizon` steps, summed over episodes.

    Every episode restarts from the fixed probe layout (`side` selects the
    mirrored variant) with all four players driven by the entrant's policy;
    only the action noise varies between episodes. Counts include both
    teams' events. `entrant` is an evaluation.Entrant or a checkpoint path.
    """
    if not hasattr(entrant, "policy_net"):
        from .evaluation import load_entrant

        entrant = load_entrant(entrant)
    if env_config is None:
        env_config = EnvConfig().fixed_pitch()
    actors = [MatchActor(policy_net=entrant.policy_net, policy=entrant.policy) for _ in range(N_PLAYERS)]

    passes = interceptions = 0
    for ep in range(episodes):
        ep_seed = derive_seed(seed, ep)
        state = probe_reset(env_config, side, seed=ep_seed)
        result = play_match(
            env_config, actors, ep_seed, collect=False, max_steps=horizon, initial_state=state
        )
        p, i, _, _ = count_events(touch_sequence(result.events))
        passes += p
        interceptions += i
    return passes, interceptions
