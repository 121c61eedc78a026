"""Counter-based random streams for reproducible simulation.

Uniform variates come from hashing a 64-bit counter with the splitmix64
finalizer; normal variates apply the Box-Muller transform to consecutive
uniform pairs. Streams are stateless functions of (seed, stream, counter),
so any trial can be regenerated in isolation and parallel execution cannot
change the numbers. Trial ``t`` of a simulation seeded with ``seed`` has the
key ``stream_keys(seed, t, t + 1)[0]``; normal pair ``m`` uses counters
``2 m + 1`` and ``2 m + 2``; the signal normals fill columns ``0 … n - 1``
and the noise normals start at column ``2 ⌈n / 2⌉``. ``normals_block``
runs in place in one scratch array per call, reused for every block of rows.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_TO_UNIT = 2.0 ** -53
_BLOCK_PAIRS = 1 << 15  # Box-Muller pairs per block of rows: 256 KiB per scratch buffer


def _mix_u64(z, spare):
    """splitmix64 finalizer on a uint64 array, in place; returns ``z``.

    ``spare`` is a uint64 array of the same shape that the shifts go into.
    """
    # uint64 array wraparound is intended throughout
    np.right_shift(z, np.uint64(30), out=spare)
    z ^= spare
    z *= np.uint64(_MIX_A)
    np.right_shift(z, np.uint64(27), out=spare)
    z ^= spare
    z *= np.uint64(_MIX_B)
    np.right_shift(z, np.uint64(31), out=spare)
    z ^= spare
    return z


def stream_keys(seed, start, stop):
    """Keys of streams ``start .. stop-1``: splitmix64 of ``seed + (t + 1) * GOLDEN``."""
    idx = np.arange(start + 1, stop + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + idx * np.uint64(GOLDEN)
    return _mix_u64(z, np.empty_like(z))


def _unit(keys, offsets, out, spare):
    """Uniforms of every key at counter offsets ``c * GOLDEN``, in place.

    ``out`` and ``spare`` are uint64 arrays of shape
    ``(len(keys), len(offsets))``; the uniforms overwrite ``out``, which is
    returned viewed as float64, and ``spare`` is left as garbage.
    """
    z = _mix_u64(np.add(keys[:, None], offsets[None, :], out=out), spare)
    z >>= np.uint64(11)
    # the top 53 bits convert exactly; the doubles overwrite the integers
    u = z.view(np.float64)
    np.add(z.view(np.int64), 0.5, out=u, casting="unsafe")
    u *= _TO_UNIT
    return u


def normals_block(keys, start_pair, count, out=None):
    """Row r holds ``count`` standard normals of ``keys[r]`` from pair
    ``start_pair`` on; pair ``m`` takes counters ``2 m + 1`` and ``2 m + 2``.

    ``out``, if given, is a float64 array of shape ``(len(keys), 2 * pairs)``
    with ``pairs = (count + 1) // 2``; the normals are written into it and
    the first ``count`` columns are returned as a view.
    """
    pairs = (count + 1) // 2
    if out is None:
        out = np.empty((keys.shape[0], 2 * pairs))
    # Box-Muller: pair m takes u1 from uniform position 2 m (counter 2 m + 1)
    # and u2 from the next one, each hashed as one contiguous array
    first = np.arange(2 * start_pair + 1, 2 * (start_pair + pairs), 2,
                      dtype=np.uint64) * np.uint64(GOLDEN)
    second = first + np.uint64(GOLDEN)
    # rows go in blocks of at most _BLOCK_PAIRS pairs (one row if a row is
    # longer), and every step of a block runs in place in one scratch array
    step = max(1, _BLOCK_PAIRS // max(pairs, 1))
    scratch = np.empty((3, min(step, keys.shape[0]) * pairs), dtype=np.uint64)
    for lo in range(0, keys.shape[0], step):
        block = keys[lo:lo + step]
        radius, angle, spare = (s[:block.shape[0] * pairs].reshape(block.shape[0], pairs)
                                for s in scratch)
        radius = _unit(block, first, radius, spare)
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle = _unit(block, second, angle, spare)
        angle *= 2.0 * np.pi
        trig = spare.view(np.float64)
        np.cos(angle, out=trig)
        np.multiply(radius, trig, out=out[lo:lo + step, 0::2])
        np.sin(angle, out=trig)
        np.multiply(radius, trig, out=out[lo:lo + step, 1::2])
    return out[:, :count]
