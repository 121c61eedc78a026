"""Hot Monte Carlo kernel in numpy.

The kernel draws its normals from the counter streams of :mod:`._rng` in
fixed chunks of trials, so a fixed seed gives the same result bit for bit
on every run.
"""

from __future__ import annotations

import numpy as np

from . import _rng

__all__ = ["active_backend", "calibration_mse"]


def active_backend():
    """Name of the backend answering kernel calls."""
    # numpy is the only backend; the name stays for callers that report it
    return "numpy"


# Fixed accumulation chunk: bounds temporary memory and pins the
# floating-point summation order run to run.
_CHUNK = 256


def calibration_mse(seed, trials, vectors, scale, estimator, sample, sigma):
    """Per-node mean squared estimation error over seeded trials.

    Trial t draws a signal ``vectors @ (scale * xi)`` with ``xi`` standard
    normal from substream t, observes it on ``sample`` with noise scale
    ``sigma``, applies the linear ``estimator`` and accumulates squared
    per-node errors.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    scale = np.ascontiguousarray(scale, dtype=np.float64)
    estimator = np.ascontiguousarray(estimator, dtype=np.float64)
    sample = np.ascontiguousarray(sample, dtype=np.int64)
    seed = int(seed)
    sigma = float(sigma)
    n = vectors.shape[0]
    pair_offset = (n + 1) // 2
    n_s = sample.shape[0]
    acc = np.zeros(n)
    for lo in range(0, trials, _CHUNK):
        hi = min(lo + _CHUNK, trials)
        keys = _rng.stream_keys(seed, lo, hi)
        xi = _rng.normals_block(keys, 0, n)
        eta = _rng.normals_block(keys, pair_offset, n_s)
        signals = (xi * scale) @ vectors.T
        observed = signals[:, sample] + sigma * eta
        estimates = observed @ estimator.T
        err = estimates - signals
        acc += (err * err).sum(axis=0)
    return acc / trials
