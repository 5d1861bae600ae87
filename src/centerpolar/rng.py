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

from . import schema

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

# the rules of a seed: a field of a config dataclass (see `schema.check_fields`)
# and each half of a stream's key
SEED_RULES = {"min": 0, "below": 2**64}


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent generator for (seed, stream_id); each must be an integer
    in [0, 2**64), else FieldError names which one is bad."""
    key = [
        schema.check_value(int, value, name, SEED_RULES)
        for name, value in (("seed", seed), ("stream_id", stream_id))
    ]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
