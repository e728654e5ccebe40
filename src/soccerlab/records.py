"""The JSON form of the lab's dataclass records: run configs, checkpoint
meta, payoff matrices and behaviour statistics.

A record's JSON form maps each field to its value. Tuples and arrays become
lists, and a nested record becomes its own JSON form. Reading accepts exactly
the keys that writing produces; a missing or unknown key is a ValueError that
names it. Every other check, coercions included, is the record's
`__post_init__`. A record class takes both directions from here:

    to_json = records.to_json
    from_json = classmethod(records.from_json)
"""
from __future__ import annotations

from dataclasses import fields
from typing import get_type_hints

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
