"""Make the fixed entrants of the `evaluate` workload.

Trains one seeded desk-preset `+rwd_shp` population (15 s episodes) and
writes a policy-only checkpoint of its best-rated agent at fixed stages;
stage 0 is the random initial policy. The files are committed, so the
benchmark never trains them again. Run from the repository root:

    python3 perfbench/make_entrants.py

About 160 rounds; a few minutes on a 2-core machine.
"""
from __future__ import annotations

import dataclasses
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from soccerlab.nets import save_checkpoint  # noqa: E402
from soccerlab.pbt import Trainer  # noqa: E402
from soccerlab.runconfig import build_population, desk_run_config  # noqa: E402

SEED = 1902
STAGES = (0, 40, 80, 120, 160)
EPISODE_SECONDS = 15.0
OUT = Path(__file__).resolve().parent / "entrants"


def save_policy(agent, stage: int) -> Path:
    learner = agent.learner
    meta = {
        "agent_id": f"stage{stage:03d}",
        "policy_arch": learner.policy_net.arch.to_json(),
        "stddev_floor": learner.policy_net.stddev_floor,
        "frames_learned": learner.frames_learned,
        "source": {"seed": SEED, "variant": "+rwd_shp", "round": stage, "agent": agent.agent_id},
    }
    path = OUT / f"stage{stage:03d}.ckpt"
    save_checkpoint(path, meta, {"policy": learner.policy})
    return path


def main() -> int:
    config = desk_run_config(seed=SEED, variant="+rwd_shp")
    config = dataclasses.replace(config, env=dataclasses.replace(config.env, episode_seconds=EPISODE_SECONDS))
    agents = build_population(config)
    trainer = Trainer(config.env, agents, config.resolved_pbt(), seed=config.seed, steps_per_match=config.steps_per_match)
    OUT.mkdir(exist_ok=True)
    for stage in range(STAGES[-1] + 1):
        if stage in STAGES:
            best = max(agents, key=lambda a: (a.rating, -agents.index(a)))
            print(save_policy(best, stage), best.agent_id, best.rating, flush=True)
        if stage == STAGES[-1]:
            break
        if trainer.play_training_match() is None:
            raise SystemExit("a training match failed")
        trainer.learning_phase()
        trainer.evolution_phase()
    return 0


if __name__ == "__main__":
    sys.exit(main())
