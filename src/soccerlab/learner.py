"""Per-agent off-policy learning: replay of trajectory snippets, per-channel
retrace targets, critic regression, and a reparameterized policy update with
entropy regularization against periodically synced target networks.

The retrace recursion itself (`retrace_from_values`) is a pure array function
so it can be checked against the direct double-sum formula; everything that
touches networks lives in the surrounding piece builders.  A learner owns one
policy/critic pair, their target copies, Adam state, a replay buffer and the
step counters that population training reads for eligibility decisions.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import records
from .env import ACTION_DIM, CHANNEL_NAMES, N_CHANNELS, OBS_DIM
from .netcore import AdamState, ParamSet, Tensor, adam_step, collect_grads, gaussian, wrap_leaves
from .nets import ArchSpec, CriticNet, PolicyNet, load_checkpoint, save_checkpoint

# Evolvable knobs, in the order used by cross-over masks and mutation draws.
KNOB_NAMES = (
    "actor_lr",
    "critic_lr",
    "entropy_cost",
    "reward_weight_goal",
    "reward_weight_concede",
    "reward_weight_vel_to_ball",
    "reward_weight_vel_ball_to_goal",
    "discount_goal",
    "discount_concede",
    "discount_vel_to_ball",
    "discount_vel_ball_to_goal",
)


@dataclass
class AgentHyperparams:
    """The evolvable per-agent knobs: optimizer rates, entropy cost, and one
    weight and discount per reward channel."""

    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    entropy_cost: float = 1e-3
    reward_weight_goal: float = 1.0
    reward_weight_concede: float = 1.0
    reward_weight_vel_to_ball: float = 0.05
    reward_weight_vel_ball_to_goal: float = 0.1
    discount_goal: float = 0.99
    discount_concede: float = 0.99
    discount_vel_to_ball: float = 0.95
    discount_vel_ball_to_goal: float = 0.95

    def __post_init__(self):
        if self.actor_lr <= 0.0 or self.critic_lr <= 0.0:
            raise ValueError("learning rates must be positive")
        if self.entropy_cost < 0.0:
            raise ValueError("entropy cost must be non-negative")
        for name in CHANNEL_NAMES:
            if getattr(self, f"reward_weight_{name}") < 0.0:
                raise ValueError(f"reward_weight_{name} must be non-negative")
            gamma = getattr(self, f"discount_{name}")
            if not 0.0 < gamma < 1.0:
                raise ValueError(f"discount_{name} must lie in (0, 1)")

    @property
    def reward_weights(self) -> np.ndarray:
        return np.array([getattr(self, f"reward_weight_{name}") for name in CHANNEL_NAMES])

    @property
    def discounts(self) -> np.ndarray:
        return np.array([getattr(self, f"discount_{name}") for name in CHANNEL_NAMES])

    def as_dict(self) -> dict[str, float]:
        return {name: float(getattr(self, name)) for name in KNOB_NAMES}

    @classmethod
    def from_dict(cls, obj: dict) -> "AgentHyperparams":
        unknown = set(obj) - set(KNOB_NAMES)
        if unknown:
            raise ValueError(f"unknown hyperparameters: {sorted(unknown)}")
        missing = [name for name in KNOB_NAMES if name not in obj]
        if missing:
            raise ValueError(f"missing hyperparameters: {missing}")
        return cls(**{name: float(value) for name, value in obj.items()})

    # Its JSON form, as a section of a run config, is the knob mapping.
    to_json = as_dict
    from_json = from_dict


@dataclass
class TrajectorySnippet:
    """A contiguous run of steps from one episode, with everything needed to
    recompute densities and prime recurrent networks at the first step."""

    observations: np.ndarray  # [T, OBS_DIM]
    actions: np.ndarray  # [T, ACTION_DIM]
    rewards: np.ndarray  # [T, N_CHANNELS]
    behavior_mean: np.ndarray  # [T, ACTION_DIM]
    behavior_stddev: np.ndarray  # [T, ACTION_DIM]
    final_observation: np.ndarray  # [OBS_DIM], the step after the last action
    terminal: bool  # episode ended immediately after the last step
    policy_state0: tuple[np.ndarray, np.ndarray] | None = None
    critic_state0: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.observations.shape != (len(self), OBS_DIM):
            raise ValueError("observation array has wrong shape")
        if self.rewards.shape != (len(self), N_CHANNELS):
            raise ValueError("reward array has wrong shape")

    def __len__(self) -> int:
        return self.actions.shape[0]


def partition_episode(
    observations: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    behavior_mean: np.ndarray,
    behavior_stddev: np.ndarray,
    final_observation: np.ndarray,
    terminal: bool,
    snippet_length: int,
    policy_states: list | None = None,
    critic_states: list | None = None,
) -> list[TrajectorySnippet]:
    """Cut one episode into fixed-length snippets, anchored at the episode end
    so the terminal reward is always covered; a leading remainder shorter than
    `snippet_length` is dropped, but an episode shorter than one snippet is
    kept whole.  `policy_states` / `critic_states` hold the recurrent state
    *before* each step (index t primes a snippet starting at t).
    """
    total = actions.shape[0]
    if total == 0:
        return []
    starts = list(range(total - snippet_length, -1, -snippet_length))
    if not starts:
        starts = [0]
    snippets = []
    for start in sorted(starts):
        end = min(start + snippet_length, total)
        snippets.append(
            TrajectorySnippet(
                observations=observations[start:end].copy(),
                actions=actions[start:end].copy(),
                rewards=rewards[start:end].copy(),
                behavior_mean=behavior_mean[start:end].copy(),
                behavior_stddev=behavior_stddev[start:end].copy(),
                final_observation=(observations[end] if end < total else final_observation).copy(),
                terminal=bool(terminal and end == total),
                policy_state0=_state_at(policy_states, start),
                critic_state0=_state_at(critic_states, start),
            )
        )
    return snippets


def _state_at(states: list | None, index: int):
    if states is None:
        return None
    h, c = states[index]
    return (h.copy(), c.copy())


class ReplayBuffer:
    """Bounded FIFO of snippets.  Sampling is uniform over entries younger
    than the recency threshold (in insertions)."""

    def __init__(self, capacity: int, recency_threshold: int | None = None):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self.recency_threshold = int(recency_threshold if recency_threshold is not None else capacity)
        self._entries: deque[tuple[int, TrajectorySnippet]] = deque()
        self._n_added = 0

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, snippet: TrajectorySnippet) -> None:
        self._entries.append((self._n_added, snippet))
        self._n_added += 1
        while len(self._entries) > self.capacity:
            self._entries.popleft()

    def clear(self) -> None:
        self._entries.clear()

    def _fresh(self) -> list[TrajectorySnippet]:
        oldest_allowed = self._n_added - self.recency_threshold
        while self._entries and self._entries[0][0] < oldest_allowed:
            self._entries.popleft()
        return [snippet for _, snippet in self._entries]

    def sample(self, rng: np.random.Generator, batch: int) -> list[TrajectorySnippet]:
        """Uniformly pick a pivot snippet, then fill the batch from snippets
        of the same length so the result stacks into rectangular arrays."""
        fresh = self._fresh()
        if not fresh:
            return []
        pivot = fresh[rng.integers(len(fresh))]
        group = [s for s in fresh if len(s) == len(pivot)]
        if len(group) >= batch:
            picks = rng.choice(len(group), size=batch, replace=False)
        else:
            picks = rng.integers(len(group), size=batch)
        return [group[i] for i in picks]


def retrace_from_values(
    rewards: np.ndarray,
    q_values: np.ndarray,
    next_expected_q: np.ndarray,
    ratios: np.ndarray,
    discounts: np.ndarray,
) -> np.ndarray:
    """Retrace targets from precomputed pieces, independently per channel.

    rewards, q_values, next_expected_q: [B, T, C]; ratios: [B, T] truncated
    importance weights c_u (c_0 is never used: the product over an empty
    index range is 1); discounts: [C].  Terminal handling is the caller's
    job: zero the last next_expected_q entry of a terminating snippet.

    Computed by the backward recursion
        D(T-1) = delta(T-1),  D(u) = delta(u) + gamma * c_{u+1} * D(u+1),
        target(u) = Q(u) + D(u),
    with delta(u) = r(u) + gamma * E_pi[Q(x_{u+1}, .)] - Q(u), which expands
    to the usual sum over s >= u of gamma^(s-u) * (prod c) * delta(s).
    """
    if rewards.shape != q_values.shape or rewards.shape != next_expected_q.shape:
        raise ValueError("piece arrays must share the [B, T, C] shape")
    batch, horizon, n_channels = rewards.shape
    if ratios.shape != (batch, horizon):
        raise ValueError("ratios must have shape [B, T]")
    if discounts.shape != (n_channels,):
        raise ValueError("one discount per channel required")
    delta = rewards + discounts * next_expected_q - q_values
    targets = np.empty_like(q_values)
    decay = delta[:, horizon - 1]
    targets[:, horizon - 1] = q_values[:, horizon - 1] + decay
    for u in range(horizon - 2, -1, -1):
        decay = delta[:, u] + discounts * ratios[:, u + 1, None] * decay
        targets[:, u] = q_values[:, u] + decay
    return targets


@dataclass(frozen=True)
class LearnerConfig:
    """Structural learning settings shared across a population (the evolvable
    per-agent knobs live in AgentHyperparams)."""

    snippet_length: int = 40
    batch_size: int = 32
    replay_capacity: int = 100_000
    recency_threshold: int | None = None  # defaults to capacity (plain FIFO)
    expectation_samples: int = 4  # m action samples for E_pi[Q]
    policy_samples: int = 1  # reparameterization samples per state
    sync_period: int = 100  # gradient steps between target syncs
    channels: bool = True  # per-channel critic vs weighted-scalar critic

    def __post_init__(self):
        if min(self.snippet_length, self.batch_size, self.expectation_samples, self.policy_samples, self.sync_period) < 1:
            raise ValueError("learner config counts must be positive")

    @property
    def n_critic_heads(self) -> int:
        return N_CHANNELS if self.channels else 1

    to_json = records.to_json
    from_json = classmethod(records.from_json)


@dataclass
class _Batch:
    """Snippets stacked into rectangular arrays for one gradient step."""

    observations: np.ndarray  # [B, T, OBS_DIM]
    actions: np.ndarray  # [B, T, ACTION_DIM]
    rewards: np.ndarray  # [B, T, C]
    behavior_mean: np.ndarray
    behavior_stddev: np.ndarray
    final_observation: np.ndarray  # [B, OBS_DIM]
    terminal: np.ndarray  # [B] bool
    policy_state0: tuple[np.ndarray, np.ndarray] | None
    critic_state0: tuple[np.ndarray, np.ndarray] | None

    @property
    def batch(self) -> int:
        return self.observations.shape[0]

    @property
    def horizon(self) -> int:
        return self.observations.shape[1]


def stack_snippets(snippets: list[TrajectorySnippet]) -> _Batch:
    if not snippets:
        raise ValueError("cannot stack an empty snippet list")
    lengths = {len(s) for s in snippets}
    if len(lengths) != 1:
        raise ValueError("snippets in one batch must share a length")
    return _Batch(
        observations=np.stack([s.observations for s in snippets]),
        actions=np.stack([s.actions for s in snippets]),
        rewards=np.stack([s.rewards for s in snippets]),
        behavior_mean=np.stack([s.behavior_mean for s in snippets]),
        behavior_stddev=np.stack([s.behavior_stddev for s in snippets]),
        final_observation=np.stack([s.final_observation for s in snippets]),
        terminal=np.array([s.terminal for s in snippets]),
        policy_state0=_stack_states([s.policy_state0 for s in snippets]),
        critic_state0=_stack_states([s.critic_state0 for s in snippets]),
    )


def _stack_states(states: list) -> tuple[np.ndarray, np.ndarray] | None:
    if states[0] is None:
        return None
    return (
        np.concatenate([s[0] for s in states], axis=0),
        np.concatenate([s[1] for s in states], axis=0),
    )


def _arrays(params: dict) -> dict:
    """The plain arrays of `params`, which may be wrap_leaves() leaves."""
    return {name: p.data if isinstance(p, Tensor) else p for name, p in params.items()}


def _unroll(net, params: dict, seqs: tuple, state0) -> tuple[tuple, list | None, object]:
    """Run `net` over its [B, T, ...] input sequences `seqs`.

    Returns the outputs stacked to [B, T, ...]; for a recurrent net, the
    T+1 states before each step (index t primes a query at x_t, the last
    one a query at the observation after the sequence); and the caches
    `_unroll_backward` needs.  A feedforward net has no state and runs as
    one flat call.
    """
    batch, horizon = seqs[0].shape[:2]
    if not net.arch.recurrent:
        outs, _, cache = net.forward(params, *(x.reshape(batch * horizon, -1) for x in seqs))
        return tuple(out.reshape(batch, horizon, -1) for out in outs), None, cache
    state = state0 if state0 is not None else net.zero_state(batch)
    states, steps, caches = [state], [], []
    for t in range(horizon):
        outs, state, cache = net.forward(params, *(x[:, t] for x in seqs), state)
        steps.append(outs)
        states.append(state)
        caches.append(cache)
    return tuple(np.stack(outs, axis=1) for outs in zip(*steps)), states, caches


def _unroll_backward(net, params: dict, caches, d_outs: tuple, grads: dict) -> None:
    """Add to `grads` the parameter gradients of an `_unroll` whose stacked
    outputs have the gradients `d_outs`: back-propagation through time for
    a recurrent net, one flat call for a feedforward one."""
    batch, horizon = d_outs[0].shape[:2]
    if not net.arch.recurrent:
        net.backward(params, caches, tuple(d.reshape(batch * horizon, -1) for d in d_outs), None, grads)
        return
    d_state = None
    for t in range(horizon - 1, -1, -1):
        _, d_state = net.backward(params, caches[t], tuple(d[:, t] for d in d_outs), d_state, grads)


def _rows(x: np.ndarray, samples: int) -> np.ndarray:
    """[B, T, D] repeated along a leading sample axis, as [S*B*T, D] rows."""
    return np.broadcast_to(x, (samples, *x.shape)).reshape(-1, x.shape[-1])


def _critic_at(net: CriticNet, params: dict, obs_seq: np.ndarray, actions, query_states: list | None):
    """Critic values at `actions` [S, B, T, act] taken at the observations
    `obs_seq` [B, T, obs], as [S, B, T, heads], in one forward call, and
    that call's cache.  A recurrent critic is primed at step t by
    `query_states[t]`, held constant."""
    samples = actions.shape[0]
    state = None
    if query_states is not None:
        state = tuple(_rows(np.stack(part, axis=1), samples) for part in zip(*query_states))
    (q,), _, cache = net.forward(params, _rows(obs_seq, samples), actions.reshape(-1, ACTION_DIM), state)
    return q.reshape(*actions.shape[:3], -1), cache


class Learner:
    """One agent's training state: online and target networks, optimizers,
    replay, and the gradient-step loop with periodic target syncing."""

    def __init__(
        self,
        policy_net: PolicyNet,
        critic_net: CriticNet,
        hyperparams: AgentHyperparams,
        config: LearnerConfig,
        seed: int = 0,
    ):
        if critic_net.n_heads != config.n_critic_heads:
            raise ValueError("critic head count does not match the channels setting")
        self.policy_net = policy_net
        self.critic_net = critic_net
        self.hyperparams = hyperparams
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.policy = policy_net.init_params(self.rng)
        self.critic = critic_net.init_params(self.rng)
        self.policy_target = self.policy.copy()
        self.critic_target = self.critic.copy()
        self.policy_adam = AdamState.for_params(self.policy)
        self.critic_adam = AdamState.for_params(self.critic)
        self.replay = ReplayBuffer(config.replay_capacity, config.recency_threshold)
        self.frames_learned = 0
        self.gradient_steps = 0
        self.steps_since_sync = 0

    # -- data ---------------------------------------------------------------

    def observe(self, snippets: list[TrajectorySnippet]) -> None:
        for snippet in snippets:
            self.replay.add(snippet)

    # -- targets ------------------------------------------------------------

    def _channel_rewards(self, rewards: np.ndarray) -> np.ndarray:
        if self.config.channels:
            return rewards
        collapsed = rewards @ self.hyperparams.reward_weights
        return collapsed[..., None]

    def _channel_discounts(self) -> np.ndarray:
        if self.config.channels:
            return self.hyperparams.discounts
        # Single-channel variant: one discount drives the collapsed reward.
        return self.hyperparams.discounts[:1]

    def _policy_weights(self) -> np.ndarray:
        if self.config.channels:
            return self.hyperparams.reward_weights
        return np.ones(1)

    def retrace_targets(self, batch: _Batch) -> tuple[np.ndarray, dict]:
        """Per-step per-channel targets from the target networks, with
        truncated importance ratios computed under the online policy."""
        (mean_on, stddev_on), _, _ = _unroll(
            self.policy_net, self.policy.arrays, (batch.observations,), batch.policy_state0
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pi = gaussian.log_prob_np(mean_on, stddev_on, batch.actions)
            log_beta = gaussian.log_prob_np(batch.behavior_mean, batch.behavior_stddev, batch.actions)
            log_diff = log_pi - log_beta
        # A vanishing behavior density makes the ratio meaningless; the
        # truncation convention caps those at 1, and we count them.
        bad = ~np.isfinite(log_diff)
        ratios = np.exp(np.minimum(np.where(bad, 0.0, log_diff), 0.0))
        ratios[bad] = 1.0

        # Distributions of the target policy at x_1 .. x_T, with correct
        # recurrent state: one unroll over the extended sequence.
        extended = np.concatenate([batch.observations, batch.final_observation[:, None]], axis=1)
        (mean_tp, stddev_tp), _, _ = _unroll(self.policy_net, self.policy_target.arrays, (extended,), batch.policy_state0)
        critic = self.critic_target.arrays
        (q_behavior,), states, _ = _unroll(
            self.critic_net, critic, (batch.observations, batch.actions), batch.critic_state0
        )
        noise = self.rng.standard_normal((self.config.expectation_samples, batch.batch, batch.horizon, ACTION_DIM))
        sampled = mean_tp[:, 1:] + stddev_tp[:, 1:] * noise
        # The behavior unroll's state before consuming x_{t+1} primes the
        # sampled-action query there.
        query_states = None if states is None else states[1:]
        q_next, _ = _critic_at(self.critic_net, critic, extended[:, 1:], sampled, query_states)
        next_expected_q = q_next.mean(axis=0)
        next_expected_q[batch.terminal, -1] = 0.0

        targets = retrace_from_values(
            self._channel_rewards(batch.rewards),
            q_behavior,
            next_expected_q,
            ratios,
            self._channel_discounts(),
        )
        info = {"ratio_flagged": int(bad.sum()), "ratio_mean": float(ratios.mean())}
        return targets, info

    # -- updates ------------------------------------------------------------

    def _descend(self, params: ParamSet, adam: AdamState, lr: float, loss_of, skipped_key: str) -> dict:
        """One Adam step on `params` down the scalar Tensor that
        `loss_of(leaves)` returns with its metrics; a non-finite loss or
        gradient skips the step, and `skipped_key` records whether it did."""
        leaves = wrap_leaves(params.arrays)
        loss, metrics = loss_of(leaves)
        metrics[skipped_key] = True
        if np.isfinite(loss.data):
            loss.backward()
            metrics[skipped_key] = not adam_step(params, collect_grads(leaves), adam, lr)
        return metrics

    def critic_loss(self, leaves: dict, batch: _Batch, targets: np.ndarray) -> Tensor:
        """Mean over batch and time of the squared error, summed over channels."""
        params = _arrays(leaves)
        (q_pred,), _, caches = _unroll(
            self.critic_net, params, (batch.observations, batch.actions), batch.critic_state0
        )
        err = q_pred - targets
        scale = 1.0 / (batch.batch * batch.horizon)

        def grads_of() -> dict:
            grads: dict = {}
            _unroll_backward(self.critic_net, params, caches, ((2.0 * scale) * err,), grads)
            return grads

        return Tensor((err * err).sum(axis=2).sum() * scale, leaves, grads_of)

    def critic_update(self, batch: _Batch, targets: np.ndarray) -> dict:
        def loss_of(leaves):
            loss = self.critic_loss(leaves, batch, targets)
            return loss, {"critic_loss": float(loss.data)}

        return self._descend(self.critic, self.critic_adam, self.hyperparams.critic_lr, loss_of, "critic_skipped")

    def policy_loss(self, leaves: dict, critic: dict, batch: _Batch, noise: np.ndarray) -> tuple[Tensor, dict]:
        """Negated surrogate: combined critic value at reparameterized actions
        plus the entropy bonus; `noise` is [samples, B, T, act].  `critic`
        is this learner's critic, as plain arrays or as leaves; either way
        it is held constant, and the loss differentiates through it to the
        action only."""
        params = _arrays(leaves)
        (mean, stddev), _, policy_caches = _unroll(
            self.policy_net, params, (batch.observations,), batch.policy_state0
        )
        entropy_scale = 1.0 / (batch.batch * batch.horizon)
        entropy = gaussian.entropy(stddev).sum() * entropy_scale
        query_states = None
        if self.critic_net.arch.recurrent:
            # Query states replay the behavior unroll and are held constant.
            _, states, _ = _unroll(
                self.critic_net, self.critic.arrays, (batch.observations, batch.actions), batch.critic_state0
            )
            query_states = states[:-1]
        critic = _arrays(critic)
        q, critic_cache = _critic_at(self.critic_net, critic, batch.observations, mean + stddev * noise, query_states)
        weights = self._policy_weights()
        value_scale = 1.0 / (noise.shape[0] * batch.batch * batch.horizon)
        value = (q * weights).sum(axis=-1).sum() * value_scale
        entropy_cost = self.hyperparams.entropy_cost

        def grads_of() -> dict:
            d_q = np.broadcast_to(-value_scale * weights, q.shape).reshape(-1, q.shape[-1])
            d_action, _ = self.critic_net.backward(critic, critic_cache, (d_q,), None, None)
            d_sampled = d_action.reshape(noise.shape)
            d_stddev = (d_sampled * noise).sum(axis=0) + (-entropy_cost * entropy_scale) / stddev
            grads: dict = {}
            _unroll_backward(self.policy_net, params, policy_caches, (d_sampled.sum(axis=0), d_stddev), grads)
            return grads

        loss = Tensor(-(value + entropy_cost * entropy), leaves, grads_of)
        return loss, {"policy_value": float(value), "entropy": float(entropy)}

    def policy_update(self, batch: _Batch) -> dict:
        noise = self.rng.standard_normal((self.config.policy_samples, batch.batch, batch.horizon, ACTION_DIM))
        return self._descend(
            self.policy,
            self.policy_adam,
            self.hyperparams.actor_lr,
            lambda leaves: self.policy_loss(leaves, self.critic.arrays, batch, noise),
            "policy_skipped",
        )

    def sync_targets(self) -> None:
        self.policy_target.copy_from(self.policy)
        self.critic_target.copy_from(self.critic)
        self.steps_since_sync = 0

    def gradient_step(self) -> dict | None:
        """One critic + policy update pair on a replay batch; returns metrics,
        or None when the replay cannot serve a batch yet."""
        snippets = self.replay.sample(self.rng, self.config.batch_size)
        if not snippets:
            return None
        batch = stack_snippets(snippets)
        targets, target_info = self.retrace_targets(batch)
        metrics = {"gradient_steps": self.gradient_steps + 1, **target_info}
        metrics["target_abs_mean"] = [float(v) for v in np.abs(targets).mean(axis=(0, 1))]
        metrics.update(self.critic_update(batch, targets))
        metrics.update(self.policy_update(batch))
        self.gradient_steps += 1
        self.steps_since_sync += 1
        self.frames_learned += batch.batch * batch.horizon
        metrics["frames_learned"] = self.frames_learned
        metrics["synced"] = False
        if self.steps_since_sync >= self.config.sync_period:
            self.sync_targets()
            metrics["synced"] = True
        return metrics

    # -- inheritance and persistence -----------------------------------------

    def adopt_networks(self, other: "Learner") -> None:
        """Copy another learner's online and target parameters and reset the
        optimizer moments; replay is cleared so stale self-play data cannot
        leak across the inheritance."""
        self.policy.copy_from(other.policy)
        self.critic.copy_from(other.critic)
        self.policy_target.copy_from(other.policy_target)
        self.critic_target.copy_from(other.critic_target)
        self.policy_adam = AdamState.for_params(self.policy)
        self.critic_adam = AdamState.for_params(self.critic)
        self.replay.clear()
        self.steps_since_sync = 0

    def meta(self) -> dict:
        return {
            "policy_arch": self.policy_net.arch.to_json(),
            "critic_arch": self.critic_net.arch.to_json(),
            "stddev_floor": self.policy_net.stddev_floor,
            "learner_config": self.config.to_json(),
            "hyperparams": self.hyperparams.as_dict(),
            "frames_learned": self.frames_learned,
            "gradient_steps": self.gradient_steps,
            "steps_since_sync": self.steps_since_sync,
            "adam_steps": {"policy": self.policy_adam.step, "critic": self.critic_adam.step},
        }

    def blocks(self) -> dict[str, ParamSet]:
        return {
            "policy": self.policy,
            "critic": self.critic,
            "policy_target": self.policy_target,
            "critic_target": self.critic_target,
            "policy_adam_m": ParamSet(self.policy_adam.m),
            "policy_adam_v": ParamSet(self.policy_adam.v),
            "critic_adam_m": ParamSet(self.critic_adam.m),
            "critic_adam_v": ParamSet(self.critic_adam.v),
        }

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = self.meta()
        if extra_meta:
            meta.update(extra_meta)
        save_checkpoint(path, meta, self.blocks())

    @classmethod
    def load(cls, path, seed: int = 0) -> tuple["Learner", dict]:
        meta, blocks = load_checkpoint(path)
        config = LearnerConfig.from_json(meta["learner_config"])
        policy_net = PolicyNet(ArchSpec.from_json(meta["policy_arch"]), stddev_floor=meta["stddev_floor"])
        critic_net = CriticNet(ArchSpec.from_json(meta["critic_arch"]), n_heads=config.n_critic_heads)
        learner = cls(policy_net, critic_net, AgentHyperparams.from_dict(meta["hyperparams"]), config, seed=seed)
        learner.policy.copy_from(blocks["policy"])
        learner.critic.copy_from(blocks["critic"])
        learner.policy_target.copy_from(blocks["policy_target"])
        learner.critic_target.copy_from(blocks["critic_target"])
        learner.policy_adam = AdamState(
            m=blocks["policy_adam_m"].arrays, v=blocks["policy_adam_v"].arrays, step=meta["adam_steps"]["policy"]
        )
        learner.critic_adam = AdamState(
            m=blocks["critic_adam_m"].arrays, v=blocks["critic_adam_v"].arrays, step=meta["adam_steps"]["critic"]
        )
        learner.frames_learned = int(meta["frames_learned"])
        learner.gradient_steps = int(meta["gradient_steps"])
        learner.steps_since_sync = int(meta["steps_since_sync"])
        return learner, meta

