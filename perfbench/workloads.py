"""The three workloads: what one unit of fixed work is, and how its outputs
are checked.

A unit is one `soccerlab` command sequence run in this process through
`soccerlab.cli.main`, into a fresh directory. Every unit of a run uses the
same seed, so every unit must write byte-identical outputs.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
# Input paths are given relative to the working directory: the probe and
# analyze reports name them, and must not depend on where the checkout is.
ENTRANTS = sorted(os.path.relpath(p) for p in (HERE / "entrants").glob("*.ckpt"))

EPISODE_SECONDS = 15.0  # 300 control steps

# train-ff and train-lstm: rounds (matches) per unit, checkpoint sweep cadence.
TRAIN_ROUNDS = 1
TRAIN_VARIANT = {"train-ff": "+rwd_shp", "train-lstm": "+channels"}
CHECKPOINT_EVERY = 1

# evaluate: sizes of each step of the pipeline.
TOURNAMENT_MATCHES = 1  # per pair of entrants
TOURNAMENT_STEPS = 30
TOURNAMENT_TOTAL = len(ENTRANTS) * (len(ENTRANTS) - 1) // 2 * TOURNAMENT_MATCHES
PROBE_EPISODES = 2
PROBE_HORIZON = 50
TRACE_MATCHES = 2
TRACE_STEPS = 40
GAME_AGENTS = 10
GAME_MATCHES = 20  # per pair in the generated game
GAME_DECISIVE = 0.6  # share of generated matches that are not draws


@dataclass
class UnitOutcome:
    attempted: int
    failed: int
    digests: dict[str, str] = field(default_factory=dict)


def _cli(argv: list[str]) -> int:
    from soccerlab import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


class Train:
    """`soccerlab train` from a fresh desk-preset population for a fixed budget."""

    def __init__(self, name: str, seed: int, out: Path):
        self.name = name
        self.seed = seed
        self.out = out
        self.rounds = TRAIN_ROUNDS

    def setup(self) -> None:
        from soccerlab.runconfig import build_population, desk_run_config, load_run_config

        preset = desk_run_config(seed=self.seed, variant=TRAIN_VARIANT[self.name]).to_json()
        learner = preset["learner"]
        frames_per_round = preset["steps_per_match"] * learner["batch_size"] * learner["snippet_length"]
        preset.update(
            frame_budget=self.rounds * frames_per_round,
            max_matches=self.rounds,
            checkpoint_every=CHECKPOINT_EVERY,
        )
        preset["env"]["episode_seconds"] = EPISODE_SECONDS
        self.config = load_run_config(preset)
        build_population(self.config)
        self.config_path = self.out / "config.json"
        self.config_path.write_text(json.dumps(self.config.to_json(), indent=2), encoding="utf-8")

    def unit(self, run_dir: Path, counts) -> UnitOutcome:
        shutil.rmtree(run_dir, ignore_errors=True)
        code = _cli(["train", "--config", self.config_path, "--out", run_dir])
        outcome = UnitOutcome(attempted=1, failed=int(code != 0))
        if code != 0:
            return outcome
        kinds = [r["kind"] for r in checks.read_ndjson(run_dir / "matches.ndjson")]
        outcome.attempted += len(kinds) + counts["learner.gradient_steps"]
        outcome.failed += kinds.count("match_failed") + counts["learner.skipped_steps"]
        outcome.digests = checks.train_digests(run_dir)
        return outcome

    def check(self, run_dir: Path, counts) -> list[str]:
        cfg = self.config
        errors = checks.check_frames(run_dir, cfg.learner.batch_size, cfg.learner.snippet_length)
        errors += checks.check_matches(run_dir, cfg.env.max_steps, cfg.pbt.population_size)
        matches = [r for r in checks.read_ndjson(run_dir / "matches.ndjson") if r["kind"] == "match"]
        if len(matches) != self.rounds:
            errors.append(f"{len(matches)} matches played, {self.rounds} scheduled")
        if counts["env.steps"] != sum(r["steps"] for r in matches):
            errors.append(f"{counts['env.steps']} env steps counted, match log says {sum(r['steps'] for r in matches)}")
        rows = len(checks.read_ndjson(run_dir / "learner.ndjson"))
        if counts["learner.gradient_steps"] != rows:
            errors.append(f"{counts['learner.gradient_steps']} gradient steps counted, learner log has {rows}")
        return errors

    def after(self, run_dir: Path, digests) -> tuple[int, int, list[str]]:
        return 0, 0, []


def generated_game(seed: int) -> dict:
    """A seeded antisymmetric payoff matrix in `matrix.json` form: skill plus a
    non-transitive part, each match decided by at most one goal."""
    rng = np.random.default_rng([seed, GAME_AGENTS, GAME_MATCHES])
    n = GAME_AGENTS
    skill = rng.normal(0.0, 1.0, n)
    cycle = rng.normal(0.0, 1.5, (n, n))
    logit = skill[:, None] - skill[None, :] + cycle - cycle.T
    p_win = 1.0 / (1.0 + np.exp(-logit))
    wins = np.zeros((n, n), dtype=np.int64)
    draws = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            p = p_win[i, j]
            w_i, w_j, d = rng.multinomial(GAME_MATCHES, [GAME_DECISIVE * p, GAME_DECISIVE * (1 - p), 1 - GAME_DECISIVE])
            wins[i, j], wins[j, i] = w_i, w_j
            draws[i, j] = draws[j, i] = d
    counts = GAME_MATCHES * (1 - np.eye(n, dtype=np.int64))
    played = counts > 0
    return {
        "agent_ids": [f"gen{i:02d}" for i in range(n)],
        "goal_difference": ((wins - wins.T) / GAME_MATCHES).tolist(),
        "win_or_draw": np.divide(wins + draws, counts, where=played, out=np.zeros((n, n))).tolist(),
        "wins": wins.tolist(),
        "draws": draws.tolist(),
        "counts": counts.tolist(),
    }


class Evaluate:
    """Tournament, Elo fits, Nash, probes, trace export and analysis on the
    fixed entrants, plus Elo and Nash on a generated game."""

    def __init__(self, name: str, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self.tournament_s: list[float] = []

    def setup(self) -> None:
        from soccerlab.evaluation import load_entrant

        for path in ENTRANTS:
            load_entrant(path)
        self.game_path = self.out / "game.json"
        self.game = generated_game(self.seed)
        self.game_path.write_text(json.dumps(self.game), encoding="utf-8")

    def _tournament(self, out: Path, workers: int) -> list:
        return ["tournament", *ENTRANTS, "--matches", TOURNAMENT_MATCHES, "--seed", self.seed,
                "--workers", workers, "--max-steps", TOURNAMENT_STEPS, "--out", out]

    def unit(self, run_dir: Path, counts) -> UnitOutcome:
        from soccerlab.evaluation import PayoffMatrix, fit_tournament_elo

        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        seed = self.seed
        best, second = ENTRANTS[-1], ENTRANTS[-2]
        outcome = UnitOutcome(attempted=0, failed=0)

        def run(argv, matches=0):
            code = _cli(argv)
            outcome.attempted += 1 + matches
            outcome.failed += (1 + matches) * (code != 0)

        started = time.perf_counter()
        run(self._tournament(run_dir / "tournament", 1), TOURNAMENT_TOTAL)
        self.tournament_s.append(time.perf_counter() - started)
        ratings = fit_tournament_elo(PayoffMatrix.from_json(self.game))
        (run_dir / "game_elo.json").write_text(json.dumps([float(r) for r in ratings]), encoding="utf-8")
        run(["nash", "--matrix", run_dir / "tournament" / "matrix.json", "--out", run_dir / "nash.json"])
        run(["nash", "--matrix", self.game_path, "--out", run_dir / "game_nash.json"])
        for side in ("left", "right"):
            run(["probe", "--checkpoint", best, "--side", side, "--episodes", PROBE_EPISODES,
                 "--horizon", PROBE_HORIZON, "--seed", seed, "--out", run_dir / f"probe_{side}.json"], PROBE_EPISODES)
        traces = run_dir / "traces"
        run(["export-traces", "--checkpoint", best, "--opponent", second, "--matches", TRACE_MATCHES,
             "--seed", seed, "--max-steps", TRACE_STEPS, "--out", traces], TRACE_MATCHES)
        trace_files = sorted(os.path.relpath(p) for p in traces.glob("*.ndjson"))
        run(["analyze", *trace_files, "--policy", best, "--player", 0,
             "--seed", seed, "--out", run_dir / "analysis.json"])
        outcome.digests = {
            str(path.relative_to(run_dir)): checks.digest(path) for path in sorted(run_dir.rglob("*")) if path.is_file()
        }
        return outcome

    def check(self, run_dir: Path, counts) -> list[str]:
        matrix = json.loads((run_dir / "tournament" / "matrix.json").read_text())
        elo = json.loads((run_dir / "tournament" / "elo.json").read_text())
        errors = checks.check_pair_counts(matrix, TOURNAMENT_MATCHES)
        errors += checks.check_elo(matrix, [elo["ratings"][a] for a in matrix["agent_ids"]])
        nash = json.loads((run_dir / "nash.json").read_text())
        errors += checks.check_nash(matrix["goal_difference"], nash["weights"])
        game_nash = json.loads((run_dir / "game_nash.json").read_text())
        errors += checks.check_nash(self.game["goal_difference"], game_nash["weights"])
        errors += checks.check_nash_against_lp(self.game["goal_difference"], game_nash["weights"])
        errors += checks.check_elo(self.game, json.loads((run_dir / "game_elo.json").read_text()))
        errors += checks.check_analysis(json.loads((run_dir / "analysis.json").read_text()))
        return errors

    def after(self, run_dir: Path, digests) -> tuple[int, int, list[str]]:
        """The same tournament at 2 workers must write the same matrix.json."""
        out = self.out / "tournament-2-workers"
        started = time.perf_counter()
        code = _cli(self._tournament(out, 2))
        print(f"tournament of {TOURNAMENT_TOTAL} matches: {min(self.tournament_s):.3f} s at 1 worker "
              f"(fastest unit), {time.perf_counter() - started:.3f} s at 2 workers")
        if code != 0:
            return 1, 1, []
        if checks.digest(out / "matrix.json") != digests["tournament/matrix.json"]:
            return 1, 0, ["matrix.json at 2 workers differs from the 1-worker run"]
        return 1, 0, []


WORKLOADS = {"train-ff": Train, "train-lstm": Train, "evaluate": Evaluate}
