"""Hot Monte Carlo kernel in numpy.

The kernel draws its normals from the counter streams of :mod:`._rng` in
fixed chunks of trials, so a fixed seed gives the same result bit for bit
on every run.
"""

from __future__ import annotations

import os
import threading

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


def _cores():
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def calibration_mse(seed, trials, vectors, scale, estimator, sample, sigma):
    """Per-node mean squared estimation error over seeded trials.

    Trial t draws a signal ``vectors @ (scale * xi)`` with ``xi`` standard
    normal from substream t, observes it on ``sample`` with noise scale
    ``sigma``, applies the linear ``estimator`` and accumulates squared
    per-node errors.

    Chunks of trials run on up to one thread per core (numpy releases the
    GIL in its loops and BLAS calls); their sums are added in chunk order,
    so the result does not depend on the number of threads.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float64)
    scale = np.ascontiguousarray(scale, dtype=np.float64)
    estimator = np.ascontiguousarray(estimator, dtype=np.float64)
    sample = np.ascontiguousarray(sample, dtype=np.int64)
    seed = int(seed)
    sigma = float(sigma)
    n = vectors.shape[0]
    eta_at = 2 * ((n + 1) // 2)  # the noise pairs start where the signal pairs end
    count = eta_at + sample.shape[0]
    observe_all = np.array_equal(sample, np.arange(n))
    n_chunks = -(-trials // _CHUNK)
    workers = max(1, min(_cores(), n_chunks))
    rows = min(_CHUNK, trials)
    # Each worker reuses one draw and one signal buffer. They are allocated
    # here, on the calling thread, so that their memory goes back to its
    # allocator afterwards instead of staying with a finished thread.
    buffers = [(np.empty((rows, 2 * ((count + 1) // 2))), np.empty((rows, n)))
               for _ in range(workers)]

    def chunk_sum(chunk, draw_buffer, signal_buffer):
        lo = chunk * _CHUNK
        hi = min(lo + _CHUNK, trials)
        keys = _rng.stream_keys(seed, lo, hi)
        draw = _rng.normals_block(keys, 0, count, out=draw_buffer[:hi - lo])
        xi = draw[:, :n]
        xi *= scale
        signals = np.matmul(xi, vectors.T, out=signal_buffer[:hi - lo])
        eta = draw[:, eta_at:]
        eta *= sigma
        eta += signals if observe_all else signals[:, sample]
        err = np.matmul(eta, estimator.T, out=xi)  # over the spent signal normals
        err -= signals
        err *= err
        return err.sum(axis=0)

    sums = [None] * n_chunks
    failures = []
    acc = np.zeros(n)
    added = 0

    def work(first):
        nonlocal acc, added
        try:
            for chunk in range(first, n_chunks, workers):
                if failures:
                    return
                sums[chunk] = chunk_sum(chunk, *buffers[first])
                # the calling thread adds the finished sums in chunk order
                while first == 0 and added < n_chunks and sums[added] is not None:
                    acc += sums[added]
                    sums[added] = None
                    added += 1
        except BaseException as exc:  # re-raised on the calling thread
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    for chunk in range(added, n_chunks):
        acc += sums[chunk]
    return acc / trials
