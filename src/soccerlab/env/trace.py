"""Line-delimited match traces: one header record, then one record per step.

Each step record carries the pre-action state, the actions taken from it,
the per-channel rewards of the transition, and any events. Serialisation
is canonical JSON (sorted keys, fixed separators, shortest-roundtrip float
repr) so emit -> parse -> emit reproduces files byte for byte.
"""
from __future__ import annotations

import json
from typing import Iterable

import numpy as np

from .sim import N_PLAYERS, TEAM_OF, EnvState

SCHEMA = "soccerlab.trace@1"


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)


def header_record(state: EnvState, seed: int, note: str = "") -> dict:
    return {
        "type": "header",
        "schema": SCHEMA,
        "pitch": [state.pitch_length, state.pitch_width],
        "teams": list(TEAM_OF),
        "seed": int(seed),
        "note": note,
    }


def step_record(step_index: int, state: EnvState, actions, rewards, events: list[dict]) -> dict:
    """Record the state the actions were computed from plus the transition outcome."""
    players = np.concatenate(
        [
            state.player_pos,
            state.player_vel,
            state.player_heading[:, None],
            state.player_angvel[:, None],
        ],
        axis=1,
    )
    return {
        "type": "step",
        "t": int(step_index),
        "players": [[float(v) for v in row] for row in players],
        "ball": [float(v) for v in (*state.ball_pos, *state.ball_vel, state.ball_spin)],
        "actions": [[float(v) for v in row] for row in np.asarray(actions)],
        "rewards": [[float(v) for v in row] for row in np.asarray(rewards)],
        "events": events,
    }


def final_record(step_index: int, state: EnvState) -> dict:
    rec = step_record(step_index, state, np.zeros((N_PLAYERS, 3)), np.zeros((N_PLAYERS, 4)), [])
    rec["type"] = "final"
    del rec["actions"]
    del rec["rewards"]
    del rec["events"]
    rec["score"] = list(state.score)
    return rec


def write_trace(path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(_canonical(record))
            fh.write("\n")


def read_trace(path) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: malformed trace line {line_no}") from exc
    if not records or records[0].get("type") != "header":
        raise ValueError(f"{path}: trace must start with a header record")
    if records[0].get("schema") != SCHEMA:
        raise ValueError(f"{path}: unsupported trace schema {records[0].get('schema')!r}")
    return records


def emit_trace(records: Iterable[dict]) -> str:
    return "".join(_canonical(r) + "\n" for r in records)
