"""Content-addressed seeds: one 64-bit seed per tuple of integer words, so a
derived stream depends on what it is for, not on when it is drawn."""
from __future__ import annotations

import numpy as np


def derive_seed(*words: int) -> int:
    return int(np.random.SeedSequence([int(w) for w in words]).generate_state(1, np.uint64)[0])
