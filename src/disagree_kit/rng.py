"""Deterministic RNG stream derivation.

Every stochastic operation owns a 64-bit seed and derives independent
substreams from it with integer keys, so results never depend on the
order in which tasks run. Streams are counter-based (Philox), which
keeps derivation cheap and collision-free across (seed, key) pairs.
"""

from __future__ import annotations

import numpy as np

# Fixed stream tags; never reuse a value.
TAG_NODES = 1
TAG_RETURNS = 2
TAG_SPARSIFY = 3
TAG_SKETCH = 4  # one stream for all rows, 64 sign bits a word, row-major
TAG_NOISE = 5
TAG_WALKS = 6
TAG_GAP = 7
TAG_CELL = 8

_MASK63 = (1 << 63) - 1


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Return a generator for stream ``key`` of the root ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK63,
                                spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse a stream key to a plain 63-bit child seed."""
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK63,
                                spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0] & _MASK63)
