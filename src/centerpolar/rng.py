"""Seeded random streams.

Every random draw in this package comes from a Philox-4x64 counter-based
generator keyed by (seed, stream id).  Philox is a fixed, documented
algorithm (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"),
so a given (seed, stream) pair reproduces the same values on any platform
and any process, independent of global RNG state.

Stream ids are allocated statically below.  Keeping streams separate means
e.g. drawing one extra sample during benchmark generation cannot shift the
values used for model initialization.
"""

from __future__ import annotations

import numpy as np

# benchmark generation
STREAM_PROTOTYPES = 0
STREAM_TRAIN_NOISE = 1
STREAM_DOMAIN_BASE = 100  # domain k uses STREAM_DOMAIN_BASE + k

# domain transforms (keyed by the transform's own seeds)
STREAM_TRANSFORM_ROTATION = 200
STREAM_TRANSFORM_BIAS = 201

# training
STREAM_MODEL_INIT = 1000
STREAM_BATCH_ORDER = 1001

MAX_SEED = 2**64 - 1
# the rules of a seed field of a config dataclass (see `schema.check_fields`)
SEED_RULES = {"min": 0, "below": MAX_SEED + 1}


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return int(seed)


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent generator for (seed, stream_id)."""
    key = np.array([check_seed(seed), check_seed(stream_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
