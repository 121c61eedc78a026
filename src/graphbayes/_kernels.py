"""Hot Monte Carlo kernel in numpy.

The kernel draws its normals from the counter streams of :mod:`._rng` in
fixed chunks of trials, so a fixed seed gives the same result bit for bit
on every run. Its chunks, and greedy selection's stacked eigendecompositions,
run through one ordered thread pool, :func:`map_in_order`.
"""

from __future__ import annotations

import collections
import os
import queue

import numpy as np

from . import _rng

__all__ = ["active_backend", "calibration_mse", "map_in_order"]


def active_backend():
    """Name of the backend answering kernel calls: numpy, the only one. It
    stays because the benchmark's worker records it with every run."""
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


def map_in_order(work, tasks, workers):
    """``[work(task) for task in tasks]``, on a pool of ``workers`` threads
    when that is two or more; with one, the calling thread runs every task.

    ``tasks`` is iterated on the calling thread, at most one task ahead of
    those running, so a generator that builds them holds at most
    ``workers + 1`` at once. Results are taken in task order, so the first
    failing task's exception is raised; it cancels the tasks not started,
    and no pool thread outlives the call.
    """
    if workers <= 1:
        return [work(task) for task in tasks]
    # imported here, so that a process that never starts a pool does not
    # load concurrent.futures and logging (0.4 MB of peak RSS, 5 ms of import)
    from concurrent.futures import ThreadPoolExecutor

    results, pending = [], collections.deque()
    pool = ThreadPoolExecutor(workers)
    try:
        for task in tasks:
            pending.append(pool.submit(work, task))
            if len(pending) > workers:
                results.append(pending.popleft().result())
        results.extend(future.result() for future in pending)
    finally:
        pool.shutdown(cancel_futures=True)
    return results


def calibration_mse(seed, trials, vectors, scale, estimator, sample, sigma):
    """Per-node mean squared estimation error over seeded trials.

    Trial t draws a signal ``vectors @ (scale * xi)`` with ``xi`` standard
    normal from substream t, observes it on ``sample`` with noise scale
    ``sigma``, applies the linear ``estimator`` and accumulates squared
    per-node errors.

    Chunks of trials run through :func:`map_in_order` on up to one thread
    per core (numpy releases the GIL in its loops and BLAS calls), in
    whatever order the pool takes them; their sums are added in chunk
    order, so the result does not depend on the number of threads.
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
    # One draw and one signal buffer per thread, which a running chunk
    # borrows from the queue. They are allocated here, on the calling thread,
    # so that their memory goes back to its allocator afterwards instead of
    # staying with a finished thread.
    buffers = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put((np.empty((rows, 2 * ((count + 1) // 2))), np.empty((rows, n))))

    def chunk_sum(chunk):
        draw_buffer, signal_buffer = buffers.get()
        try:
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
        finally:
            buffers.put((draw_buffer, signal_buffer))

    acc = np.zeros(n)
    for part in map_in_order(chunk_sum, range(n_chunks), workers):
        acc += part
    return acc / trials
