"""Counter-based random streams for reproducible simulation.

Uniform variates come from hashing a 64-bit counter with the splitmix64
finalizer; normal variates apply the Box-Muller transform to consecutive
uniform pairs. Streams are stateless functions of (seed, stream, counter),
so any trial can be regenerated in isolation and parallel execution cannot
change the numbers. The scalar helpers ``mix64`` and ``stream_key`` work on
Python ints; every array of variates comes from the block functions, so
single streams and blocks share one hashing and one Box-Muller path.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_TO_UNIT = 2.0 ** -53


def mix64(z):
    """splitmix64 finalizer on a Python int (wraps at 64 bits)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def stream_key(seed, stream):
    """Avalanche-mixed key identifying substream ``stream`` of ``seed``."""
    return mix64((seed + (stream + 1) * GOLDEN) & _MASK)


def _mix_u64(z):
    # uint64 array wraparound is intended throughout
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def stream_keys(seed, start, stop):
    """Vectorized ``stream_key`` for streams ``start .. stop-1``."""
    idx = np.arange(start + 1, stop + 1, dtype=np.uint64)
    return _mix_u64(np.uint64(seed & _MASK) + idx * np.uint64(GOLDEN))


def uniforms(key, start, count):
    """``count`` uniforms in (0, 1) at counter positions ``start`` on."""
    return uniforms_block(np.array([key], dtype=np.uint64), start, count)[0]


def uniforms_block(keys, start, count):
    """Row r holds ``uniforms(keys[r], start, count)``."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = _mix_u64(keys[:, None] + idx[None, :] * np.uint64(GOLDEN))
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * _TO_UNIT


def _box_muller(u, out_len):
    u1 = u[..., 0::2]
    u2 = u[..., 1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(u.shape[:-1] + (u.shape[-1],))
    out[..., 0::2] = radius * np.cos(angle)
    out[..., 1::2] = radius * np.sin(angle)
    return out[..., :out_len]


def normals(key, start_pair, count):
    """``count`` standard normals; pair ``m`` consumes uniform counters
    ``2 m`` and ``2 m + 1`` offset by ``2 * start_pair``."""
    return normals_block(np.array([key], dtype=np.uint64), start_pair, count)[0]


def normals_block(keys, start_pair, count):
    """Row r holds ``normals(keys[r], start_pair, count)``."""
    pairs = (count + 1) // 2
    return _box_muller(uniforms_block(keys, 2 * start_pair, 2 * pairs), count)


class CounterRng:
    """Stateful cursor over one substream; draws advance in whole pairs.

    ``CounterRng(seed, stream=t)`` regenerates the exact stream used for
    trial ``t`` of a simulation seeded with ``seed``.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._key = stream_key(self.seed, self.stream)
        self._pair_cursor = 0

    def normals(self, count):
        """Draw ``count`` standard normals, advancing the cursor."""
        if count < 0:
            raise ValueError("count must be non-negative")
        out = normals(self._key, self._pair_cursor, count)
        self._pair_cursor += (count + 1) // 2
        return out
