"""Seeded random streams.

One user-facing seed drives every random draw in the package. Each consumer
(weight init, dataset synthesis, per-epoch shuffling, ...) derives its own
independent stream from the seed plus a fixed stream id, so adding draws in
one place never perturbs another, and reruns are bit-identical.
"""

import numpy as np

# Stream ids. Values are arbitrary but frozen; changing them changes replays.
STREAM_INIT = 1
STREAM_DATA = 2
STREAM_BATCH = 3

_MASK64 = (1 << 64) - 1


def generator(seed, *key):
    """Return a ``numpy.random.Generator`` for (seed, *key).

    The same (seed, key) always yields the same stream; distinct keys yield
    statistically independent streams.
    """
    entropy = [int(x) & _MASK64 for x in (seed, *key)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
