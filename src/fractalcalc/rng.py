"""Counter-based random number streams.

Streams are keyed by (seed, stream_id) on top of numpy's Philox bit
generator, so draws are reproducible regardless of which order parallel
workers consume their streams. The return annotation is a string, so
``numpy.random`` (which numpy loads lazily) is imported at the first
``stream`` call, not with the package.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, stream_id: int = 0) -> "np.random.Generator":
    """Return the Generator for the given (seed, stream_id) key."""
    key = [int(seed) & _MASK64, int(stream_id) & _MASK64]
    return np.random.Generator(np.random.Philox(key=key))
