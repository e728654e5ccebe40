"""The JSON form of the lab's dataclass records: run configs, checkpoint
meta, payoff matrices and behaviour statistics.

A record's JSON form maps each field to its value. Tuples and arrays become
lists, and a nested record becomes its own JSON form. Reading accepts exactly
the keys that writing produces; a missing or unknown key is a ValueError that
names it. Every other check, coercions included, is the record's
`__post_init__`. A record class takes both directions from here:

    to_json = records.to_json
    from_json = classmethod(records.from_json)

Checkpoints and the trainer state are replaced through `write_atomically`.
"""
from __future__ import annotations

import os
from dataclasses import fields
from pathlib import Path
from typing import BinaryIO, Callable, get_type_hints

import numpy as np


def to_json(record) -> dict:
    """The JSON form of a dataclass record, field by field."""
    return {f.name: _plain(getattr(record, f.name)) for f in fields(record)}


def _plain(value):
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def from_json(cls, obj: dict):
    """Build a `cls` record from its JSON form."""
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(obj).__name__}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(obj) - set(names))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {unknown}")
    missing = [name for name in names if name not in obj]
    if missing:
        raise ValueError(f"missing {cls.__name__} keys: {missing}")
    kinds = get_type_hints(cls)
    return cls(**{name: _decode(kinds[name], obj[name]) for name in names})


def _decode(kind, value):
    return kind.from_json(value) if hasattr(kind, "from_json") else value


def write_atomically(path, write: Callable[[BinaryIO], object]) -> None:
    """Write a file through `write(fh)` into a temp file beside it, then
    move it into place: an exception mid-write leaves the previous file as
    it was and no temp file behind. (No fsync: this guards against the
    process failing, not the machine.)"""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
