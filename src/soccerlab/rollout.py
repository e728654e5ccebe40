"""Playing matches: sample actions from four Gaussian policies, drive the
environment to termination, and package what happened for the three
consumers: replay snippets for learners, scores for ratings and payoff
matrices, and step events/states for behavior analysis.

Recurrent variants thread the policy LSTM state while acting; when a
recurrent critic is supplied, it is unrolled alongside on the chosen actions
so snippets can prime the learner's critic with the state it would have had.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import ACTION_DIM, N_PLAYERS, EnvConfig, EnvState, observe, reset, step
from .learner import TrajectorySnippet, partition_episode
from .netcore import ParamSet
from .nets import CriticNet, PolicyNet

# Second seed word for the action-noise stream, outside the range the
# environment's own counter-based stream can reach.
_ACTION_STREAM = 2**32


@dataclass
class MatchActor:
    """One player's networks for the duration of a match."""

    policy_net: PolicyNet
    policy: ParamSet
    critic_net: CriticNet | None = None
    critic: ParamSet | None = None
    agent_id: str = ""

    @property
    def tracks_critic_state(self) -> bool:
        return self.critic_net is not None and self.critic_net.arch.recurrent


@dataclass
class PlayerTrajectory:
    """Everything one player contributes to replay, in step order."""

    observations: np.ndarray  # [T, OBS_DIM]
    actions: np.ndarray  # [T, ACTION_DIM]
    rewards: np.ndarray  # [T, N_CHANNELS]
    behavior_mean: np.ndarray
    behavior_stddev: np.ndarray
    final_observation: np.ndarray
    terminal: bool
    policy_states: list | None
    critic_states: list | None

    def snippets(self, snippet_length: int) -> list[TrajectorySnippet]:
        return partition_episode(
            self.observations,
            self.actions,
            self.rewards,
            self.behavior_mean,
            self.behavior_stddev,
            self.final_observation,
            self.terminal,
            snippet_length,
            policy_states=self.policy_states,
            critic_states=self.critic_states,
        )


@dataclass
class MatchResult:
    score: tuple[int, int]
    steps: int
    events: list[list[dict]]  # per control step
    trajectories: list[PlayerTrajectory] | None
    states: list[EnvState] | None  # pre-step states plus the final state
    seed: int


def play_match(
    config: EnvConfig,
    actors: list[MatchActor],
    seed: int,
    collect: bool = True,
    keep_states: bool = False,
    max_steps: int | None = None,
    initial_state: EnvState | None = None,
) -> MatchResult:
    """One episode from reset (or a provided layout) to termination.

    Action noise is drawn from a stream keyed by the match seed, separate
    from the environment's internal stream, so matches are reproducible from
    (config, actors, seed) alone.
    """
    if len(actors) != N_PLAYERS:
        raise ValueError(f"exactly {N_PLAYERS} actors required")
    rng = np.random.default_rng([int(seed), _ACTION_STREAM])
    state = initial_state.copy() if initial_state is not None else reset(config, seed)
    limit = config.max_steps if max_steps is None else min(max_steps, config.max_steps)

    policy_states = [None] * N_PLAYERS
    critic_states = [None] * N_PLAYERS
    for i, actor in enumerate(actors):
        policy_states[i] = actor.policy_net.zero_state(1)
        if actor.tracks_critic_state:
            critic_states[i] = actor.critic_net.zero_state(1)

    obs_log = [[] for _ in range(N_PLAYERS)]
    act_log = [[] for _ in range(N_PLAYERS)]
    rew_log = [[] for _ in range(N_PLAYERS)]
    mean_log = [[] for _ in range(N_PLAYERS)]
    std_log = [[] for _ in range(N_PLAYERS)]
    pstate_log = [[] for _ in range(N_PLAYERS)]
    cstate_log = [[] for _ in range(N_PLAYERS)]
    events: list[list[dict]] = []
    states = [state.copy()] if keep_states else None

    steps = 0
    obs = observe(state)
    while not state.terminal and steps < limit:
        noise = rng.standard_normal((N_PLAYERS, ACTION_DIM))
        actions = np.empty((N_PLAYERS, ACTION_DIM))
        for i, actor in enumerate(actors):
            if collect:
                if policy_states[i] is not None:
                    pstate_log[i].append(tuple(s.copy() for s in policy_states[i]))
                if critic_states[i] is not None:
                    cstate_log[i].append(tuple(s.copy() for s in critic_states[i]))
            mean, stddev, policy_states[i] = actor.policy_net.apply(
                actor.policy, obs[i : i + 1], policy_states[i]
            )
            actions[i] = mean[0] + stddev[0] * noise[i]
            if actor.tracks_critic_state:
                _, critic_states[i] = actor.critic_net.apply(
                    actor.critic, obs[i : i + 1], actions[i : i + 1], critic_states[i]
                )
            if collect:
                obs_log[i].append(obs[i])
                mean_log[i].append(mean[0])
                std_log[i].append(stddev[0])
                act_log[i].append(actions[i].copy())
        out = step(config, state, actions)
        state = out.state
        obs = out.observations
        events.append(out.events)
        if collect:
            for i in range(N_PLAYERS):
                rew_log[i].append(out.rewards[i])
        if keep_states:
            states.append(state.copy())
        steps += 1

    trajectories = None
    if collect and steps > 0:
        trajectories = [
            PlayerTrajectory(
                observations=np.array(obs_log[i]),
                actions=np.array(act_log[i]),
                rewards=np.array(rew_log[i]),
                behavior_mean=np.array(mean_log[i]),
                behavior_stddev=np.array(std_log[i]),
                final_observation=obs[i],
                terminal=bool(state.terminal),
                policy_states=pstate_log[i] if pstate_log[i] else None,
                critic_states=cstate_log[i] if cstate_log[i] else None,
            )
            for i in range(N_PLAYERS)
        ]
    return MatchResult(
        score=state.score,
        steps=steps,
        events=events,
        trajectories=trajectories,
        states=states,
        seed=int(seed),
    )
