"""The one JSON codec behind every record the lab writes: run configs,
checkpoint meta, payoff matrices and behaviour statistics."""
import json
from dataclasses import fields

import numpy as np
import pytest

from soccerlab.analytics import BehaviorStats
from soccerlab.env import EnvConfig
from soccerlab.evaluation import PayoffMatrix
from soccerlab.learner import LearnerConfig
from soccerlab.nets import desk_arch
from soccerlab.pbt import PbtConfig
from soccerlab.runconfig import RunConfig, desk_run_config, load_run_config

RECORDS = {
    "EnvConfig": EnvConfig().fixed_pitch(),
    "PbtConfig": PbtConfig(population_size=6, evolve=False),
    "LearnerConfig": LearnerConfig(recency_threshold=500, channels=False),
    "ArchSpec": desk_arch(recurrent=True),
    "RunConfig": desk_run_config(seed=3, variant="lstm", frame_budget=1280),
    "BehaviorStats": BehaviorStats(3, 1, 1, 0, 0.25, 0.5, steps=40, empty=False),
    "PayoffMatrix": PayoffMatrix(
        agent_ids=("a", "b"),
        goal_difference=np.array([[0.0, 0.5], [-0.5, 0.0]]),
        win_or_draw=np.array([[0.0, 1.0], [0.5, 0.0]]),
        wins=np.array([[0, 1], [0, 0]]),
        draws=np.array([[0, 1], [1, 0]]),
        counts=np.array([[0, 2], [2, 0]]),
    ),
}


def same_record(a, b) -> bool:
    pairs = [(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)]
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs
    )


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_codec_contract(name):
    record = RECORDS[name]
    cls = type(record)
    blob = json.dumps(record.to_json())
    back = cls.from_json(json.loads(blob))
    assert same_record(back, record)
    assert json.dumps(back.to_json()) == blob

    obj = record.to_json()
    with pytest.raises(ValueError, match="surplus_key"):
        cls.from_json({**obj, "surplus_key": 1})
    for key in obj:
        with pytest.raises(ValueError, match=key):
            cls.from_json({k: v for k, v in obj.items() if k != key})


def test_run_config_sections_follow_the_contract():
    obj = RECORDS["RunConfig"].to_json()
    for section, key in (("pbt", "evolve"), ("learner", "channels"), ("arch", "recurrent")):
        assert key not in obj[section]
        with pytest.raises(ValueError, match=f"{section}.{key}"):
            RunConfig.from_json({**obj, section: {**obj[section], key: True}})
    with pytest.raises(ValueError, match="substeps"):
        RunConfig.from_json({**obj, "env": {k: v for k, v in obj["env"].items() if k != "substeps"}})
    hyperparams = {k: v for k, v in obj["hyperparams"].items() if k != "entropy_cost"}
    with pytest.raises(ValueError, match="entropy_cost"):
        RunConfig.from_json({**obj, "hyperparams": hyperparams})


def test_run_config_integers_load_as_ints():
    plain = load_run_config({"seed": 5, "arch": {"core_size": 64}})
    floats = load_run_config({"seed": 5.0, "arch": {"core_size": 64.0}})
    assert type(floats.seed) is int and type(floats.arch.core_size) is int
    assert json.dumps(floats.to_json()) == json.dumps(plain.to_json())
    obj = {**plain.to_json(), "seed": 5.0}
    assert type(RunConfig.from_json(obj).seed) is int
