"""Seeded random streams.

One user-facing seed drives every random draw in the package. Each consumer
(weight init, dataset synthesis, per-epoch shuffling, ...) derives its own
independent stream from the seed plus a fixed stream id, so adding draws in
one place never perturbs another, and reruns are bit-identical.
"""

import numpy as np

from .errors import ConfigError

# Stream ids. Values are arbitrary but frozen; changing them changes replays.
STREAM_INIT = 1
STREAM_DATA = 2
STREAM_BATCH = 3

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def _is_int(x):
    """A Python or numpy integer; bools are not counts, classes or seeds."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_seed(seed):
    """``seed`` if it is a Python or numpy integer in [0, 2**64), else a
    :class:`ConfigError`. Every key is masked to 64 bits, so a negative or
    larger seed would replay another one, and ``int()`` would quietly turn a
    float or a bool into one."""
    if not _is_int(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def generator(seed, *key):
    """Return a ``numpy.random.Generator`` for (seed, *key).

    The same (seed, key) always yields the same stream; distinct keys yield
    statistically independent streams. ``seed`` goes through
    :func:`check_seed`.
    """
    check_seed(seed)
    # SeedSequence splits each int of its entropy into uint32 words, least
    # significant first. Handing it those words as one array gives the same
    # stream without its per-int conversions, half of its set-up time.
    words = []
    for x in (seed, *key):
        x = int(x) & _MASK64
        words += (x & _MASK32, x >> 32) if x > _MASK32 else (x,)
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
