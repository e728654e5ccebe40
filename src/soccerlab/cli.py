"""Operator surface: one binary, six subcommands.

    soccerlab train --config run.json --out myrun
    soccerlab tournament runs/*/checkpoints/*.ckpt --matches 8 --out report
    soccerlab nash --matrix report/matrix.json
    soccerlab probe --checkpoint agent.ckpt --side left
    soccerlab analyze --policy agent.ckpt traces/*.ndjson
    soccerlab export-traces --checkpoint agent.ckpt --matches 3 --out traces

Relative output paths land under $SOCCERLAB_OUT (default: the working
directory). Every artifact is JSON or line-delimited JSON, written in
canonical form so emit -> parse -> emit is byte-identical. Exit codes:
0 success, 1 usage error, 2 unreadable or malformed data, 3 internal error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

from . import __version__
from .analytics import (
    SUBSETS,
    aggregate_stats,
    counterfactual_profile,
    extract_stats,
    result_from_records,
    result_to_records,
    run_probe,
)
from .env import EnvConfig
from .env.trace import read_trace, write_trace
from .evaluation import (
    Entrant,
    PayoffMatrix,
    fit_tournament_elo,
    load_entrant,
    nash_average,
    run_tournament,
)
from .learner import Learner
from .pbt import PopulationAgent, Trainer
from .rollout import MatchActor, play_match
from .runconfig import RunConfig, build_population, load_run_config
from .seeding import derive_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code contract."""

    def error(self, message):
        raise UsageError(message)


def _out_root() -> Path:
    return Path(os.environ.get("SOCCERLAB_OUT", "."))


def _resolve_out(path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else _out_root() / p


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(_dump(obj), encoding="utf-8")


def _report(out: str | None, report: dict) -> None:
    """Write `report` to the `--out` file and print its path, or print the
    report itself when `--out` is omitted."""
    if out:
        path = _resolve_out(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_json(path, report)
        print(path)
    else:
        sys.stdout.write(_dump(report))


def _read_json(path: Path, what: str) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} is not valid JSON: {path}: {exc}")


# -- train ---------------------------------------------------------------------


def _load_config(args) -> RunConfig:
    file_obj = _read_json(Path(args.config), "config file") if args.config else None
    try:
        return load_run_config(file_obj, args.set or [])
    except (ValueError, TypeError) as exc:
        raise DataError(f"invalid run config: {exc}")


def _restore_population(config: RunConfig, run_dir: Path) -> list[PopulationAgent]:
    agents = []
    for k in range(config.pbt.population_size):
        agent_id = f"agent{k:02d}"
        path = run_dir / "checkpoints" / f"{agent_id}.ckpt"
        seed = derive_seed(config.seed, k, 1)
        try:
            learner, meta = Learner.load(path, seed=seed)
        except (OSError, ValueError, KeyError) as exc:
            raise DataError(f"cannot restore {path}: {exc}")
        agents.append(
            PopulationAgent(
                agent_id=meta.get("agent_id", agent_id),
                learner=learner,
                rating=float(meta.get("rating", 1000.0)),
                eligible_mark=int(meta.get("eligible_mark", 0)),
                evolved_mark=int(meta.get("evolved_mark", 0)),
            )
        )
    return agents


def cmd_train(args) -> int:
    if args.resume:
        if not args.out:
            raise UsageError("--resume requires --out")
        run_dir = _resolve_out(args.out)
        stored = _read_json(run_dir / "config.json", "run config")
        try:
            config = load_run_config(stored, args.set or [])
        except (ValueError, TypeError) as exc:
            raise DataError(f"invalid run config: {exc}")
        agents = _restore_population(config, run_dir)
    else:
        config = _load_config(args)
        out = args.out or config.out
        if not out:
            raise UsageError("no output directory: pass --out or set 'out' in the config")
        run_dir = _resolve_out(out)
        if run_dir.exists():
            raise DataError(f"output directory already exists: {run_dir} (use --resume)")
        run_dir.mkdir(parents=True)
        agents = build_population(config)

    _write_json(run_dir / "config.json", config.to_json())
    _write_json(
        run_dir / "manifest.json",
        {"tool": "soccerlab", "version": __version__, "seed": config.seed, "variant": config.variant},
    )
    trainer = Trainer(
        config.env,
        agents,
        config.resolved_pbt(),
        seed=config.seed,
        steps_per_match=config.steps_per_match,
        out_dir=run_dir,
        checkpoint_every=config.checkpoint_every,
    )
    summary = trainer.run(config.frame_budget, max_matches=config.max_matches or None)
    _write_json(run_dir / "summary.json", summary)
    print(run_dir)
    return EXIT_OK


# -- tournament -----------------------------------------------------------------


def _load_entrants(paths: list[str]) -> tuple[list[Entrant], list[dict]]:
    entrants, skipped = [], []
    for path in paths:
        try:
            entrants.append(load_entrant(path))
        except (OSError, ValueError, KeyError) as exc:
            skipped.append({"checkpoint": str(path), "error": str(exc)})
            print(f"skipping {path}: {exc}", file=sys.stderr)
    return entrants, skipped


def cmd_tournament(args) -> int:
    entrants, skipped = _load_entrants(args.checkpoints)
    if len(entrants) < 2:
        raise DataError(f"need at least two loadable checkpoints, have {len(entrants)}")
    workers = 1 if args.deterministic else args.workers
    matrix = run_tournament(
        entrants,
        matches_per_pair=args.matches,
        seed=args.seed,
        workers=workers,
        max_steps=args.max_steps,
    )
    ratings = fit_tournament_elo(matrix)
    out_dir = _resolve_out(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "matrix.json", matrix.to_json())
    _write_json(
        out_dir / "elo.json",
        {
            "ratings": {agent: float(r) for agent, r in zip(matrix.agent_ids, ratings)},
            "matches_per_pair": args.matches,
            "seed": args.seed,
            "skipped": skipped,
        },
    )
    print(out_dir)
    return EXIT_OK


# -- nash ------------------------------------------------------------------------


def cmd_nash(args) -> int:
    obj = _read_json(Path(args.matrix), "payoff matrix")
    try:
        matrix = PayoffMatrix.from_json(obj)
    except (ValueError, TypeError, KeyError) as exc:
        raise DataError(f"malformed payoff matrix {args.matrix}: {exc}")
    result = nash_average(matrix)
    report = {
        "agent_ids": list(matrix.agent_ids),
        "weights": [float(w) for w in result.weights],
        "support": list(result.support),
        "support_ids": [matrix.agent_ids[i] for i in result.support],
        "exploitability": float(result.exploitability),
        "entropy": float(result.entropy),
    }
    _report(args.out, report)
    return EXIT_OK


# -- probe ------------------------------------------------------------------------


def cmd_probe(args) -> int:
    try:
        entrant = load_entrant(args.checkpoint)
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(f"cannot load checkpoint {args.checkpoint}: {exc}")
    passes, interceptions = run_probe(
        entrant, args.side, episodes=args.episodes, horizon=args.horizon, seed=args.seed
    )
    report = {
        "checkpoint": str(args.checkpoint),
        "side": args.side,
        "episodes": args.episodes,
        "horizon": args.horizon,
        "passes": passes,
        "interceptions": interceptions,
    }
    _report(args.out, report)
    return EXIT_OK


# -- analyze -----------------------------------------------------------------------


def cmd_analyze(args) -> int:
    policy = None
    if args.policy:
        try:
            policy = load_entrant(args.policy)
        except (OSError, ValueError, KeyError) as exc:
            raise DataError(f"cannot load checkpoint {args.policy}: {exc}")
        if policy.policy_net.zero_state(1) is not None:
            raise DataError("counterfactual divergence needs a feedforward policy checkpoint")

    per_trace = []
    stats_list = []
    for path in args.traces:
        try:
            records = read_trace(path)
            result = result_from_records(records)
        except (OSError, ValueError, KeyError) as exc:
            raise DataError(f"unreadable trace {path}: {exc}")
        stats = extract_stats(result)
        stats_list.append(stats)
        entry = {"trace": str(path), "stats": stats.to_json()}
        if policy is not None and result.steps > 0:
            entry["divergence"] = counterfactual_profile(
                policy.policy_net, policy.policy, result, args.player, seed=args.seed
            )
        per_trace.append(entry)

    report = {
        "traces": per_trace,
        "aggregate": aggregate_stats(stats_list).to_json(),
        "player": args.player,
        "subsets": list(SUBSETS),
    }
    _report(args.out, report)
    return EXIT_OK


# -- export-traces -------------------------------------------------------------------


def cmd_export_traces(args) -> int:
    try:
        blue = load_entrant(args.checkpoint)
        red = load_entrant(args.opponent) if args.opponent else blue
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(f"cannot load checkpoint: {exc}")
    out_dir = _resolve_out(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    env_config = EnvConfig().fixed_pitch()
    actors = [
        MatchActor(policy_net=blue.policy_net, policy=blue.policy),
        MatchActor(policy_net=blue.policy_net, policy=blue.policy),
        MatchActor(policy_net=red.policy_net, policy=red.policy),
        MatchActor(policy_net=red.policy_net, policy=red.policy),
    ]
    for m in range(args.matches):
        seed = derive_seed(args.seed, m)
        result = play_match(
            env_config, actors, seed, collect=True, keep_states=True, max_steps=args.max_steps
        )
        note = f"{blue.agent_id} vs {red.agent_id} match {m}"
        write_trace(out_dir / f"trace_{m:03d}.ndjson", result_to_records(result, note=note))
    print(out_dir)
    return EXIT_OK


# -- entry point -----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="soccerlab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="run population training from a config")
    p.add_argument("--config", help="run config JSON; defaults apply when omitted")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="dotted config override")
    p.add_argument("--out", help="run directory (under $SOCCERLAB_OUT if relative); default: the config's 'out'")
    p.add_argument("--resume", action="store_true", help="continue an existing run directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tournament", help="round-robin between checkpoints, matrix + ratings")
    p.add_argument("checkpoints", nargs="+", help="agent checkpoint files")
    p.add_argument("--matches", type=int, default=4, help="matches per pair")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--deterministic", action="store_true", help="force a single worker")
    p.add_argument("--max-steps", type=int, default=None, help="cap on control steps per match")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_tournament)

    p = sub.add_parser("nash", help="maxent equilibrium weights for a payoff matrix")
    p.add_argument("--matrix", required=True, help="matrix.json from the tournament command")
    p.add_argument("--out", help="report file; stdout when omitted")
    p.set_defaults(func=cmd_nash)

    p = sub.add_parser("probe", help="pass/interception counts from the fixed scenario")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="report file; stdout when omitted")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("analyze", help="behavior statistics and divergence over trace files")
    p.add_argument("traces", nargs="*", help="trace files from export-traces")
    p.add_argument("--policy", help="feedforward checkpoint for counterfactual divergence")
    p.add_argument("--player", type=int, default=0, help="player index the divergence is measured for")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="report file; stdout when omitted")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("export-traces", help="record self-play matches as trace files")
    p.add_argument("--checkpoint", required=True, help="policy for the blue pair")
    p.add_argument("--opponent", help="policy for the red pair; blue plays itself when omitted")
    p.add_argument("--matches", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--out", required=True, help="trace directory")
    p.set_defaults(func=cmd_export_traces)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
