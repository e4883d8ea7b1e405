"""Counter-based random number streams.

All randomness in mixcast flows through generators built here, seeded
explicitly and threaded through call signatures.  Philox is counter
based, so (seed, stream) fully determines the bit stream regardless of
how many draws other parts of the program make: runs are reproducible
bit-for-bit and independent streams never collide.

Dropout reads raw 64-bit outputs as four 16-bit lanes, lane j being bits
16j..16j+15, so its masks are defined by arithmetic and match on any host.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

# Conventional stream ids.  Any int works; these keep call sites readable.
STREAM_INIT = 0
STREAM_SHUFFLE = 1
STREAM_DROPOUT = 2


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a Generator for (seed, stream), independent across streams;
    every seed in mixcast becomes a generator here, and must be >= 0."""
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.Philox([int(seed), int(stream)]))
