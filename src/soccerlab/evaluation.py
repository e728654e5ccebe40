"""Tournament evaluation and game-theoretic ranking.

Entrants play round-robin matches on the fixed-size pitch; outcomes are
aggregated into an antisymmetric expected-goal-difference matrix plus
win-or-draw rates.  On top of that sit maximum-likelihood Elo ratings,
maximum-entropy Nash averaging, and the Nash-weighted expected goal
difference used to score an agent against a population of evaluators.

Matches are embarrassingly parallel: every match seed is derived from
(tournament seed, pair, index), so any worker count yields the same matrix.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp, softmax

from .env import EnvConfig
from .netcore import ParamSet
from .nets import ArchSpec, PolicyNet, load_checkpoint
from .rollout import MatchActor, play_match
from .seeding import derive_seed


@dataclass(frozen=True)
class Entrant:
    """One tournament team: a policy that controls both of its players."""

    agent_id: str
    policy_net: PolicyNet
    policy: ParamSet


def load_entrant(path) -> Entrant:
    """Build an entrant from a learner checkpoint (policy block only)."""
    meta, blocks = load_checkpoint(path)
    net = PolicyNet(ArchSpec.from_json(meta["policy_arch"]), stddev_floor=meta["stddev_floor"])
    agent_id = str(meta.get("agent_id", Path(path).stem))
    return Entrant(agent_id=agent_id, policy_net=net, policy=blocks["policy"])


@dataclass(frozen=True)
class PayoffMatrix:
    """Pairwise results: mean goal difference (antisymmetric), win-or-draw
    rates, and the raw win/draw/match counts they were computed from."""

    agent_ids: tuple[str, ...]
    goal_difference: np.ndarray  # [N, N] row vs column mean
    win_or_draw: np.ndarray  # [N, N] fraction of matches row did not lose
    wins: np.ndarray  # [N, N] matches row beat column
    draws: np.ndarray  # [N, N] symmetric
    counts: np.ndarray  # [N, N] symmetric matches played

    def __post_init__(self):
        n = len(self.agent_ids)
        object.__setattr__(self, "agent_ids", tuple(str(a) for a in self.agent_ids))
        object.__setattr__(self, "goal_difference", np.asarray(self.goal_difference, dtype=float))
        object.__setattr__(self, "win_or_draw", np.asarray(self.win_or_draw, dtype=float))
        for name in ("wins", "draws", "counts"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        for name in ("goal_difference", "win_or_draw", "wins", "draws", "counts"):
            if getattr(self, name).shape != (n, n):
                raise ValueError(f"{name} must be {n}x{n}")
        if np.max(np.abs(self.goal_difference + self.goal_difference.T), initial=0.0) > 1e-9:
            raise ValueError("goal difference must be antisymmetric")
        if not (
            np.array_equal(self.draws, self.draws.T) and np.array_equal(self.counts, self.counts.T)
        ):
            raise ValueError("draws and counts must be symmetric")
        if not np.array_equal(self.wins + self.wins.T + self.draws, self.counts):
            raise ValueError("wins + losses + draws must equal counts")
        played = self.counts > 0
        expected = np.divide(self.wins + self.draws, self.counts, where=played, out=np.zeros((n, n)))
        if not np.allclose(self.win_or_draw[played], expected[played], atol=1e-9):
            raise ValueError("win_or_draw inconsistent with counts")

    def to_json(self) -> dict:
        return {
            "agent_ids": list(self.agent_ids),
            "goal_difference": self.goal_difference.tolist(),
            "win_or_draw": self.win_or_draw.tolist(),
            "wins": self.wins.tolist(),
            "draws": self.draws.tolist(),
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PayoffMatrix":
        return cls(
            agent_ids=tuple(obj["agent_ids"]),
            goal_difference=obj["goal_difference"],
            win_or_draw=obj["win_or_draw"],
            wins=obj["wins"],
            draws=obj["draws"],
            counts=obj["counts"],
        )


def _play_spec(spec) -> tuple[int, int]:
    env_config, net_a, params_a, net_b, params_b, seed, max_steps = spec
    actors = [
        MatchActor(policy_net=net_a, policy=params_a),
        MatchActor(policy_net=net_a, policy=params_a),
        MatchActor(policy_net=net_b, policy=params_b),
        MatchActor(policy_net=net_b, policy=params_b),
    ]
    result = play_match(env_config, actors, seed, collect=False, max_steps=max_steps)
    return result.score


def _map_specs(specs: list, workers: int) -> list[tuple[int, int]]:
    if workers <= 1:
        return [_play_spec(spec) for spec in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(specs) // (4 * workers))
        return list(pool.map(_play_spec, specs, chunksize=chunk))


def run_tournament(
    entrants: list[Entrant],
    matches_per_pair: int,
    seed: int = 0,
    env_config: EnvConfig | None = None,
    workers: int = 1,
    max_steps: int | None = None,
) -> PayoffMatrix:
    """Round-robin over unordered pairs on the fixed-size pitch."""
    if len(entrants) < 2:
        raise ValueError("a tournament needs at least two entrants")
    ids = [e.agent_id for e in entrants]
    if len(set(ids)) != len(ids):
        raise ValueError("entrant ids must be unique")
    if matches_per_pair < 1:
        raise ValueError("matches_per_pair must be positive")
    if env_config is None:
        env_config = EnvConfig().fixed_pitch()

    n = len(entrants)
    index_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    specs = []
    labels = []
    for i, j in index_pairs:
        for m in range(matches_per_pair):
            specs.append(
                (
                    env_config,
                    entrants[i].policy_net,
                    entrants[i].policy,
                    entrants[j].policy_net,
                    entrants[j].policy,
                    derive_seed(seed, i, j, m),
                    max_steps,
                )
            )
            labels.append((i, j))

    wins = np.zeros((n, n), dtype=np.int64)
    draws = np.zeros((n, n), dtype=np.int64)
    counts = np.zeros((n, n), dtype=np.int64)
    goal_sum = np.zeros((n, n), dtype=float)
    for (i, j), (a, b) in zip(labels, _map_specs(specs, workers)):
        counts[i, j] += 1
        counts[j, i] += 1
        goal_sum[i, j] += a - b
        goal_sum[j, i] += b - a
        if a > b:
            wins[i, j] += 1
        elif b > a:
            wins[j, i] += 1
        else:
            draws[i, j] += 1
            draws[j, i] += 1

    played = counts > 0
    goal_difference = np.divide(goal_sum, counts, where=played, out=np.zeros((n, n)))
    win_or_draw = np.divide(wins + draws, counts, where=played, out=np.zeros((n, n)))
    return PayoffMatrix(
        agent_ids=tuple(ids),
        goal_difference=goal_difference,
        win_or_draw=win_or_draw,
        wins=wins,
        draws=draws,
        counts=counts,
    )


def weighted_goal_difference(
    entrant: Entrant,
    evaluators: list[Entrant],
    weights,
    matches_per_pair: int,
    seed: int = 0,
    env_config: EnvConfig | None = None,
    workers: int = 1,
    max_steps: int | None = None,
) -> float:
    """Sum_k w_k x (mean goal difference of `entrant` vs evaluator k)."""
    weights = np.asarray(weights, dtype=float)
    if len(evaluators) == 0:
        raise ValueError("evaluator set must not be empty")
    if weights.shape != (len(evaluators),):
        raise ValueError("one weight per evaluator required")
    if env_config is None:
        env_config = EnvConfig().fixed_pitch()

    specs = []
    for k, evaluator in enumerate(evaluators):
        for m in range(matches_per_pair):
            specs.append(
                (
                    env_config,
                    entrant.policy_net,
                    entrant.policy,
                    evaluator.policy_net,
                    evaluator.policy,
                    derive_seed(seed, k, m),
                    max_steps,
                )
            )
    results = _map_specs(specs, workers)
    goal_diff = np.zeros(len(evaluators))
    for index, (a, b) in enumerate(results):
        goal_diff[index // matches_per_pair] += (a - b) / matches_per_pair
    return float(np.dot(weights, goal_diff))


# -- Elo fitting -----------------------------------------------------------------

_ELO_SCALE = math.log(10.0) / 400.0


def _elo_nll(r: np.ndarray, scores: np.ndarray, counts: np.ndarray) -> tuple[float, np.ndarray]:
    diff = r[:, None] - r[None, :]
    log_p = -np.logaddexp(0.0, -_ELO_SCALE * diff)  # log P(row beats column)
    p = np.exp(log_p)
    nll = -float(np.sum(scores * log_p))
    grad = -_ELO_SCALE * np.sum(scores - counts * p, axis=1)
    return nll, grad


def _elo_hessian(r: np.ndarray, counts: np.ndarray) -> np.ndarray:
    diff = r[:, None] - r[None, :]
    p = 1.0 / (1.0 + np.exp(-_ELO_SCALE * diff))
    w = _ELO_SCALE**2 * counts * p * (1.0 - p)
    return np.diag(np.sum(w, axis=1)) - w


def _components(counts: np.ndarray) -> list[list[int]]:
    n = counts.shape[0]
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        queue, component = [start], []
        seen[start] = True
        while queue:
            node = queue.pop()
            component.append(node)
            for other in np.flatnonzero(counts[node] > 0):
                if not seen[other]:
                    seen[other] = True
                    queue.append(int(other))
        components.append(sorted(component))
    return components


def fit_elo_scores(
    scores, counts, anchor: float = 1000.0, grad_tol: float = 1e-8
) -> np.ndarray:
    """Maximum-likelihood logistic ratings (base 10, scale 400) from total
    scores per ordered pair, draws already folded in as half wins.  Each
    connected component of the comparison graph is fit separately and its
    mean rating anchored; fitting runs until the gradient is below tolerance.
    """
    scores = np.asarray(scores, dtype=float)
    counts = np.asarray(counts, dtype=float)
    n = scores.shape[0]
    if scores.shape != (n, n) or counts.shape != (n, n):
        raise ValueError("scores and counts must be square and same-shaped")
    if np.any(counts < 0) or np.any(scores < 0):
        raise ValueError("scores and counts must be nonnegative")
    if not np.allclose(counts, counts.T, atol=1e-9):
        raise ValueError("counts must be symmetric")
    if not np.allclose(scores + scores.T, counts, atol=1e-9):
        raise ValueError("scores of a pair must sum to its match count")
    if np.any(np.diag(counts) != 0):
        raise ValueError("self-matches are not ratable")

    components = _components(counts)
    if len(components) > 1:
        warnings.warn("comparison graph is disconnected; anchoring each component separately")

    ratings = np.full(n, anchor, dtype=float)
    for component in components:
        if len(component) == 1:
            continue
        idx = np.asarray(component)
        s_sub = scores[np.ix_(idx, idx)]
        n_sub = counts[np.ix_(idx, idx)]
        result = minimize(
            _elo_nll,
            np.zeros(len(idx)),
            args=(s_sub, n_sub),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 50_000, "ftol": 1e-18, "gtol": 1e-12},
        )
        r = result.x
        # Newton polish: L-BFGS-B's own stop tests can trigger before the
        # gradient reaches tolerance on flat likelihoods.
        for _ in range(50):
            nll, grad = _elo_nll(r, s_sub, n_sub)
            if np.max(np.abs(grad)) <= grad_tol:
                break
            hess = _elo_hessian(r, n_sub) + 1e-9 * np.eye(len(idx))
            direction = np.linalg.solve(hess, grad)
            step = 1.0
            while step > 1e-12 and _elo_nll(r - step * direction, s_sub, n_sub)[0] > nll:
                step *= 0.5
            r = r - step * direction
        else:
            warnings.warn("rating fit stopped above gradient tolerance")
        ratings[idx] = r - np.mean(r) + anchor
    return ratings


def fit_tournament_elo(matrix: PayoffMatrix, anchor: float = 1000.0) -> np.ndarray:
    """Ratings from a payoff matrix, counting draws as half wins."""
    return fit_elo_scores(matrix.wins + 0.5 * matrix.draws, matrix.counts, anchor=anchor)


# -- Nash averaging ----------------------------------------------------------------

@dataclass(frozen=True)
class NashResult:
    """Maximum-entropy symmetric equilibrium of the zero-sum meta game."""

    weights: np.ndarray
    support: tuple[int, ...]
    exploitability: float  # max_i (A p)_i; 0 at an exact equilibrium
    entropy: float

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))


def _dual_value(lam: np.ndarray, payoff: np.ndarray) -> tuple[float, np.ndarray]:
    # min_{lam >= 0} logsumexp(A lam) is the dual of maximising entropy over
    # symmetric equilibria; its softmax iterate is the primal candidate.
    z = payoff @ lam
    return float(logsumexp(z)), -(payoff @ softmax(z))


def _polish_support(payoff: np.ndarray, p: np.ndarray, floor: float) -> tuple[np.ndarray, float] | None:
    """Exact equilibrium on the iterate's support, when one exists: the
    normalized null vector of the support submatrix.  Rejected when the null
    space is not one-dimensional (the equilibrium would be ambiguous and the
    iterate's maximum-entropy tie-break must stand)."""
    support = np.flatnonzero(p > floor)
    if support.size == 0:
        return None
    sub = payoff[np.ix_(support, support)]
    singular, basis = np.linalg.svd(sub)[1:]
    if support.size > 1 and singular[-2] < 1e-9:
        return None
    null = basis[-1]
    if np.sum(null) < 0.0:
        null = -null
    if np.any(null < -1e-10):
        return None
    null = np.clip(null, 0.0, None)
    total = float(np.sum(null))
    if total <= 0.0:
        return None
    full = np.zeros(len(p))
    full[support] = null / total
    return full, float(np.max(payoff @ full))


def nash_average(
    payoff: PayoffMatrix | np.ndarray,
    tol: float = 1e-6,
    support_threshold: float = 1e-3,
    restarts: int = 8,
    seed: int = 0,
) -> NashResult:
    """Maxent Nash of an antisymmetric payoff matrix.

    Solved through the entropy dual: p = softmax(A lam) with lam >= 0
    minimising logsumexp(A lam); the KKT conditions of that bound-constrained
    problem are exactly the symmetric-equilibrium conditions, and the softmax
    form selects the maximum-entropy equilibrium.  If no restart reaches the
    exploitability tolerance the best iterate is returned as-is.
    """
    A = payoff.goal_difference if isinstance(payoff, PayoffMatrix) else np.asarray(payoff, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError("payoff must be a nonempty square matrix")
    n = A.shape[0]
    if np.max(np.abs(A + A.T), initial=0.0) > 1e-9:
        raise ValueError("payoff must be antisymmetric")

    scale = float(np.max(np.abs(A)))
    if scale == 0.0:
        weights = np.full(n, 1.0 / n)
        return NashResult(weights=weights, support=tuple(range(n)), exploitability=0.0, entropy=float(np.log(n)))
    scaled = A / scale  # equilibria are invariant to positive scaling

    rng = np.random.default_rng(seed)
    best_p, best_e = None, np.inf
    for trial in range(max(1, restarts)):
        lam0 = np.zeros(n) if trial == 0 else rng.uniform(0.0, 5.0, size=n)
        result = minimize(
            _dual_value,
            lam0,
            args=(scaled,),
            jac=True,
            method="L-BFGS-B",
            bounds=[(0.0, None)] * n,
            options={"maxiter": 20_000, "ftol": 1e-18, "gtol": 1e-14},
        )
        p = softmax(scaled @ result.x)
        exploitability = float(np.max(A @ p))
        if exploitability < best_e:
            best_p, best_e = p, exploitability
        if best_e <= tol:
            break
    # Sharpen the iterate to an exact equilibrium on its support where
    # possible; re-solves of equivalent games then agree far below `tol`.
    for floor in (1e-3, 1e-6, 1e-9):
        polished = _polish_support(A, best_p, floor)
        if polished is not None and polished[1] <= min(tol, best_e):
            best_p, best_e = polished
            break

    support = tuple(int(i) for i in np.flatnonzero(best_p >= support_threshold))
    safe = np.maximum(best_p, 1e-300)
    entropy = float(-np.sum(np.where(best_p > 0.0, best_p * np.log(safe), 0.0)))
    return NashResult(weights=best_p, support=support, exploitability=best_e, entropy=entropy)
