"""Hot Monte Carlo kernel in numpy.

The kernel draws its normals from the counter streams of :mod:`._rng` in
fixed chunks of trials, so a fixed seed gives the same result bit for bit
on every run. Its chunks, and greedy selection's stacked eigendecompositions,
run through :func:`map_in_order`: on the calling thread and its helpers.
"""

from __future__ import annotations

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
    """``[work(task) for task in tasks]``, run on the calling thread and, when
    ``workers`` is two or more, on ``workers - 1`` helper threads.

    ``tasks`` is iterated on the calling thread, which hands a task to the
    helpers while they hold fewer than ``workers`` unfinished ones and runs
    it itself otherwise, so a generator that builds them holds at most
    ``workers + 1`` at once; when the tasks run out, it takes back and runs
    those no helper has started. Results are taken in task order, so the
    first failing task's exception is raised; a failure cancels the tasks
    not started, and no helper thread outlives the call.
    """
    if workers <= 1:
        return [work(task) for task in tasks]
    # imported here, so that a process that never starts a pool does not
    # load concurrent.futures and logging (0.4 MB of peak RSS, 5 ms of import)
    from concurrent.futures import Future, ThreadPoolExecutor

    slots, queued = [], {}  # a future per task; {slot: task} of unfinished helper tasks

    def run_here(i, task):
        slots[i:i + 1] = [Future()]  # the slot of a task taken back, or a new one
        try:
            slots[i].set_result(work(task))
        except Exception as error:  # raised in task order, by result() below
            slots[i].set_exception(error)
        return slots[i].exception()

    pool = ThreadPoolExecutor(workers - 1)
    try:
        for task in tasks:
            finished = [i for i in queued if slots[i].done()]
            if any(slots[i].exception() for i in finished):
                break
            queued = {i: t for i, t in queued.items() if i not in finished}
            if len(queued) < workers:
                queued[len(slots)] = task
                slots.append(pool.submit(work, task))
            elif run_here(len(slots), task):
                break
        else:
            for i, task in queued.items():
                if slots[i].cancel() and run_here(i, task):
                    break
    finally:
        pool.shutdown(cancel_futures=True)
    return [slot.result() for slot in slots if not slot.cancelled()]


def calibration_mse(seed, trials, vectors, scale, estimator, sample, sigma):
    """Per-node mean squared estimation error over seeded trials.

    Trial t draws a signal ``vectors @ (scale * xi)`` with ``xi`` standard
    normal from substream t, observes it on ``sample`` with noise scale
    ``sigma``, applies the linear ``estimator`` and accumulates squared
    per-node errors.

    Chunks run through :func:`map_in_order` on the calling thread and one
    helper per further core (numpy releases the GIL in its loops and BLAS
    calls), the caller taking back those no helper has started; their sums
    are added in chunk order, so the result does not depend on the threads.

    The arguments are used as given; the bits hold for C-contiguous float64
    ``vectors``, ``scale`` and ``estimator``, an int64 ``sample``, int
    ``seed`` and ``trials`` and a float ``sigma``.
    """
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
