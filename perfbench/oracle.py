"""Reference answers made with numpy alone, independent of graphbayes.

``calibration_mse`` restates the simulation contract of graphbayes: trial
t draws from substream t of a splitmix64 counter generator, normals come
from Box-Muller on consecutive uniform pairs, and the signal uses the
eigenbasis sign-fixed so that its first entry above 1e-12 in magnitude is
positive. Its result is the parent commit's mse to rounding.
"""

from __future__ import annotations

import numpy as np

from workloads import laplacian_np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _normals(keys, start_pair, count):
    pairs = (count + 1) // 2
    idx = np.arange(2 * start_pair + 1, 2 * start_pair + 2 * pairs + 1, dtype=np.uint64)
    z = _mix(keys[:, None] + idx[None, :] * _GOLDEN)
    u = ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    out = np.empty((keys.shape[0], 2 * pairs))
    out[:, 0::2] = radius * np.cos(angle)
    out[:, 1::2] = radius * np.sin(angle)
    return out[:, :count]


def calibration_mse(lap, eps, sigma2, trials, seed, chunk=1000):
    """Per-node mse of the posterior mean under a fully observed graph."""
    n = lap.shape[0]
    values, vectors = np.linalg.eigh(lap)
    for k in range(n):
        nonzero = np.flatnonzero(np.abs(vectors[:, k]) > 1e-12)
        if nonzero.size and vectors[nonzero[0], k] < 0:
            vectors[:, k] = -vectors[:, k]
    scale = 1.0 / np.sqrt(values + eps)
    estimator = np.linalg.inv(lap + (eps + 1.0 / sigma2) * np.eye(n)) / sigma2
    sigma = np.sqrt(sigma2)
    acc = np.zeros(n)
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        keys = _mix(np.uint64(seed) + np.arange(lo + 1, hi + 1, dtype=np.uint64) * _GOLDEN)
        signals = (_normals(keys, 0, n) * scale) @ vectors.T
        observed = signals + sigma * _normals(keys, (n + 1) // 2, n)
        err = observed @ estimator.T - signals
        acc += (err * err).sum(axis=0)
    return acc / trials


def references(workload, inp):
    """Oracle answers the checks of ``workload`` compare against."""
    if workload == "denoise":
        a = inp["n_observed"]
        lap = laplacian_np(inp["n"], inp["edges"])[:a, :a]
        precision = lap + np.eye(a) / inp["sigma2"]
        cov = np.linalg.inv(precision)
        directional = [d[:a] @ cov @ d[:a] / (d @ d) for d in inp["directions"][:2]]
        return {
            "mean": np.linalg.solve(precision, inp["observed"] / inp["sigma2"]),
            "variances": np.diag(cov).copy(),
            "directional": np.array(directional),
        }
    if workload == "calibrate":
        lap = laplacian_np(inp["n"], inp["edges"])
        return {
            "variance": np.diag(np.linalg.inv(
                lap + (inp["eps"] + 1.0 / inp["sigma2"]) * np.eye(inp["n"]))).copy(),
            "mse": calibration_mse(lap, inp["eps"], inp["sigma2"], inp["trials"],
                                   inp["mc_seed"]),
        }
    return {}
