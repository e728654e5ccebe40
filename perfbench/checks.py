"""Correctness checks on the files the lab writes.

Every check reads the program's outputs and recomputes what it tests
apart from the program: its own checkpoint-header parser, its own rating
formula, its own touch rule and an LP solver. None compares against a
stored copy of earlier output. Each returns a list of failure messages;
an empty list is a pass.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

R_INIT = 1000.0
NASH_TOL = 1e-6


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_ndjson(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def checkpoint_meta(path) -> dict:
    """The JSON header of a checkpoint: magic, u64 version, u32 length, JSON."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) != 16 or head[:4] != b"SLCK":
            raise ValueError(f"{path}: not a checkpoint")
        (length,) = struct.unpack("<I", head[12:16])
        return json.loads(fh.read(length).decode("utf-8"))


# -- training ------------------------------------------------------------------


def check_frames(run_dir, batch_size: int, snippet_length: int) -> list[str]:
    """summary.json frames = learner.ndjson rows x batch x snippet = final checkpoint frames."""
    run_dir = Path(run_dir)
    summary = json.loads((run_dir / "summary.json").read_text())
    rows = Counter(record["agent"] for record in read_ndjson(run_dir / "learner.ndjson"))
    errors = []
    for agent, frames in summary["frames"].items():
        from_log = rows[agent] * batch_size * snippet_length
        stored = checkpoint_meta(run_dir / "checkpoints" / f"{agent}.ckpt")["frames_learned"]
        if not frames == from_log == stored:
            errors.append(f"{agent}: summary {frames} frames, learner log {from_log}, checkpoint {stored}")
    return errors


def check_matches(run_dir, episode_limit: int, population_size: int) -> list[str]:
    """At most one goal per match, exactly one when it ends early, and a
    conserved population rating sum in every match record."""
    errors = []
    for record in read_ndjson(Path(run_dir) / "matches.ndjson"):
        if record["kind"] != "match":
            continue
        goals, steps, n = sum(record["score"]), record["steps"], record["match"]
        if goals > 1 or steps > episode_limit:
            errors.append(f"match {n}: {goals} goals in {steps} steps")
        if steps < episode_limit and goals != 1:
            errors.append(f"match {n} stopped at step {steps} with {goals} goals")
        total = math.fsum(record["ratings"].values())
        if abs(total - population_size * R_INIT) > 1e-6:
            errors.append(f"match {n}: rating sum {total!r}")
    return errors


TRAIN_LOGS = ("matches.ndjson", "learner.ndjson", "evolution.ndjson", "summary.json")


def train_digests(run_dir) -> dict[str, str]:
    return {name: digest(Path(run_dir) / name) for name in TRAIN_LOGS}


# -- evaluation ----------------------------------------------------------------


def check_pair_counts(matrix: dict, matches_per_pair: int) -> list[str]:
    counts = np.asarray(matrix["counts"])
    expected = matches_per_pair * (1 - np.eye(len(counts), dtype=int))
    if counts.shape != expected.shape or not np.array_equal(counts, expected):
        return [f"pair match counts {counts.tolist()} differ from {matches_per_pair} per pair"]
    return []


def check_nash(payoff, weights) -> list[str]:
    """Weights on the simplex and max_i (A p)_i <= NASH_TOL."""
    A = np.asarray(payoff, dtype=float)
    p = np.asarray(weights, dtype=float)
    errors = []
    if p.shape != (len(A),) or np.any(p < 0.0) or abs(math.fsum(p) - 1.0) > 1e-9:
        errors.append(f"weights {p.tolist()} are not on the simplex")
    elif float(np.max(A @ p)) > NASH_TOL:
        errors.append(f"max_i (A p)_i = {float(np.max(A @ p))!r} > {NASH_TOL}")
    return errors


def _entropy(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def check_nash_against_lp(payoff, weights) -> list[str]:
    """Compare with equilibria from linprog. Per coordinate, the min and max
    LPs over the equilibrium set {p in simplex: A p <= 0} show whether it is
    one point; then the weights must equal it. Otherwise their entropy must
    be at least that of the mean of those LP solutions, itself an
    equilibrium since the set is convex."""
    A = np.asarray(payoff, dtype=float)
    n = len(A)
    constraints = dict(A_ub=A, b_ub=np.zeros(n), A_eq=np.ones((1, n)), b_eq=[1.0], bounds=[(0.0, None)] * n)
    solutions = []
    for i in range(n):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[i] = sign
            result = linprog(c, method="highs", **constraints)
            if result.status != 0:
                return [f"linprog found no equilibrium: {result.message}"]
            solutions.append(result.x)
    solutions = np.array(solutions)
    p = np.asarray(weights, dtype=float)
    if float(np.max(np.ptp(solutions, axis=0))) < 1e-7:
        gap = float(np.max(np.abs(p - solutions[0])))
        return [] if gap <= 1e-6 else [f"unique equilibrium {solutions[0].tolist()} differs by {gap!r}"]
    reference = solutions.mean(axis=0)
    if _entropy(p) < _entropy(reference) - 1e-9:
        return [f"entropy {_entropy(p)!r} below an LP equilibrium's {_entropy(reference)!r}"]
    return []


def check_elo(matrix: dict, ratings) -> list[str]:
    """Maximum-likelihood condition: sum_j n_ij s(r_i - r_j) = sum_j s_ij,
    with s(d) = 1 / (1 + 10^(-d/400)) and draws as half wins."""
    counts = np.asarray(matrix["counts"], dtype=float)
    scores = np.asarray(matrix["wins"], dtype=float) + 0.5 * np.asarray(matrix["draws"], dtype=float)
    r = np.asarray(ratings, dtype=float)
    expected = 1.0 / (1.0 + 10.0 ** (-(r[:, None] - r[None, :]) / 400.0))
    residual = np.sum(counts * expected, axis=1) - np.sum(scores, axis=1)
    worst = float(np.max(np.abs(residual)))
    return [] if worst <= 1e-5 else [f"rating likelihood residual {worst!r}"]


def recount_touches(records: list[dict]) -> tuple[int, int]:
    """(passes, interceptions): consecutive touches by two players of one
    team, or of opposite teams; a player touching twice in a row counts nothing."""
    touches = [
        (event["player"], event["team"])
        for record in records
        if record["type"] == "step"
        for event in record["events"]
        if event["kind"] == "touch"
    ]
    passes = interceptions = 0
    for (prev_player, prev_team), (player, team) in zip(touches, touches[1:]):
        if player == prev_player:
            continue
        if team == prev_team:
            passes += 1
        else:
            interceptions += 1
    return passes, interceptions


def check_analysis(report: dict) -> list[str]:
    """Per trace: recounted passes and interceptions equal analyze's, the
    final score equals the goal events, every divergence is finite and >= 0."""
    errors = []
    for entry in report["traces"]:
        records = read_ndjson(entry["trace"])
        recounted = recount_touches(records)
        stats = entry["stats"]
        if recounted != (stats["passes"], stats["interceptions"]):
            errors.append(f"{entry['trace']}: recount {recounted}, analyze {stats['passes'], stats['interceptions']}")
        goals = [0, 0]
        for record in records:
            if record["type"] == "step":
                for event in record["events"]:
                    if event["kind"] == "goal":
                        goals[event["team"]] += 1
        if records[-1]["type"] != "final" or records[-1]["score"] != goals:
            errors.append(f"{entry['trace']}: final score differs from goal events {goals}")
        for subset, value in entry.get("divergence", {}).items():
            if not (math.isfinite(value) and value >= 0.0):
                errors.append(f"{entry['trace']}: divergence {subset} = {value!r}")
        if "divergence" not in entry:
            errors.append(f"{entry['trace']}: no divergence reported")
    return errors
