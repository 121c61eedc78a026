"""Shared graph builders, referees and fakes for the test-suite."""

import collections
import itertools
import math
import operator
import os
import tracemalloc
from fractions import Fraction

import numpy as np

from graphbayes import Graph, SamplingOperator, _rng, sampling_eval


def random_graph(rng, n, edge_prob=0.3):
    """Erdos-Renyi style test graph; may be disconnected."""
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.uniform() < edge_prob
    ]
    return Graph(n, edges)


def random_connected_graph(rng, n, extra_prob=0.2):
    """Random spanning tree plus extra edges: always connected."""
    order = rng.permutation(n)
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((int(order[i]), int(order[j])))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < extra_prob:
                edges.append((i, j))
    return Graph(n, edges)


def components(graph):
    """Connected components as lists of node ids, by depth-first search."""
    neighbours = {v: [] for v in range(graph.n)}
    for i, j in graph.edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    label = [-1] * graph.n
    found = []
    for start in range(graph.n):
        if label[start] >= 0:
            continue
        label[start] = len(found)
        stack, members = [start], []
        while stack:
            v = stack.pop()
            members.append(v)
            for w in neighbours[v]:
                if label[w] < 0:
                    label[w] = label[start]
                    stack.append(w)
        found.append(sorted(members))
    return found


def two_component_graph():
    """Two 5-node connected blobs with no edges between them."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2),
             (5, 6), (6, 7), (7, 8), (8, 9), (5, 7)]
    return Graph(10, edges)


ExactPosterior = collections.namedtuple("ExactPosterior", "flat zero variances mean")


def _row_reduced(rows, width):
    """``rows`` (lists of Fractions) in reduced row echelon form over their
    first ``width`` columns, by Gauss-Jordan elimination, and the pivot
    column of each leading row."""
    pivots = []
    for col in range(width):
        top = len(pivots)
        pick = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if pick is None:
            continue
        rows[top], rows[pick] = rows[pick], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for r, row in enumerate(rows):
            if r != top and row[col]:
                rows[r] = [x - row[col] * y for x, y in zip(row, rows[top])]
        pivots.append(col)
    return rows, pivots


def exact_posterior(graph, eps, sigma2, samples, pins):
    """The posterior of the smoothness prior ``L + eps I`` given noisy
    ``samples`` and noise-free ``pins`` (both ``{node: value}``), in exact
    rational arithmetic: the referee of the three-way split on small graphs.

    The fused precision is ``P = L + eps I + diag(1/sigma2 on the samples)``.
    Float inputs are exact rationals, so with ``sigma2`` and ``eps`` powers
    of two (or ``eps = 0``) nothing is rounded. The pins are eliminated by
    index: they are the zero-variance directions, and the free block gets
    the information ``h_f - P_fp d_p``. The flat directions are the exact
    null space of ``P_ff``. A free node has variance ``inf`` when a flat
    direction touches it, and otherwise ``x_v`` for any solution of
    ``P_ff x = e_v``. The mean is the minimum-norm solution of
    ``P_ff x = h_f - P_fp d_p`` on the free nodes and the pinned values on
    the pins.

    Returns ``ExactPosterior(flat, zero, variances, mean)``: the two counts,
    then one Fraction (or ``math.inf``) per node and one Fraction per node.
    """
    n = graph.n
    precision = [[Fraction(0)] * n for _ in range(n)]
    for i, j in graph.edges:
        precision[i][j] = precision[j][i] = Fraction(-1)
        precision[i][i] += 1
        precision[j][j] += 1
    info = [Fraction(0)] * n
    for v in range(n):
        precision[v][v] += Fraction(eps)
    for v, value in samples.items():
        precision[v][v] += 1 / Fraction(sigma2)
        info[v] = Fraction(value) / Fraction(sigma2)
    free = [v for v in range(n) if v not in pins]
    m = len(free)
    # [P_ff | I | h_f - P_fp d_p], reduced over P_ff: the pivot rows give a
    # solution for each of the last m + 1 columns
    rows, pivots = _row_reduced(
        [[precision[a][b] for b in free] + [Fraction(a == b) for b in free]
         + [info[a] - sum(precision[a][p] * Fraction(d) for p, d in pins.items())]
         for a in free], m)
    assert not any(row[-1] for row in rows[len(pivots):]), "information outside range(P_ff)"
    # one null vector per column without a pivot: 1 there, minus that column of the pivot rows
    null = []
    for c in sorted(set(range(m)) - set(pivots)):
        z = [Fraction(k == c) for k in range(m)]
        for row, p in zip(rows, pivots):
            z[p] = -row[c]
        null.append(z)
    solved = {p: row for row, p in zip(rows, pivots)}
    # minimum norm: take from the solution with x = 0 off the pivots its
    # projection on the null space, from the Gram system of the null vectors
    x = [solved[a][-1] if a in solved else Fraction(0) for a in range(m)]
    gram, _ = _row_reduced([[sum(map(operator.mul, y, z)) for z in null]
                            + [sum(map(operator.mul, y, x))] for y in null], len(null))
    for row, z in zip(gram, null):
        x = [xa - row[-1] * za for xa, za in zip(x, z)]
    variances = [Fraction(0)] * n
    mean = [Fraction(pins.get(v, 0.0)) for v in range(n)]
    for a, v in enumerate(free):
        flat = any(z[a] for z in null)
        variances[v] = math.inf if flat else solved[a][m + a]
        mean[v] = x[a]
    return ExactPosterior(len(null), len(pins), variances, mean)


def score(prior, nodes, sigma2, metric):
    """The covariance metric of one ``fuse`` of ``prior`` with zero data on
    ``nodes``. Both steps are looked up through ``sampling_eval``, so that a
    name rebound there is called."""
    return sampling_eval.covariance_metric(sampling_eval._posterior(prior, nodes, sigma2), metric)


def reference_greedy(prior, budget, sigma2, metric="trace"):
    """Greedy selection that scores every candidate with one ``fuse``, the
    rule ``greedy_select`` must reproduce set for set."""
    selected = []
    remaining = list(range(prior.n))
    for _ in range(budget):
        best_node = min(remaining, key=lambda v: score(prior, selected + [v], sigma2, metric))
        selected.append(best_node)
        remaining.remove(best_node)
    return tuple(sorted(selected))


def exhaustive_select(prior, budget, sigma2, metric="trace"):
    """Exact minimizer over all size-``budget`` subsets, one ``fuse`` each:
    exponential, an oracle for the greedy baseline on a dozen nodes or
    fewer. Bit-identical scores go to the lexicographically smallest set."""
    best_set = min(itertools.combinations(range(prior.n), budget),
                   key=lambda nodes: score(prior, nodes, sigma2, metric))
    return SamplingOperator(n=prior.n, nodes=best_set)


# splitmix64's constants (Steele, Lea & Flood, OOPSLA 2014), restated here
# so that the scalar reference below does not read them from the library
_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def allocated_beyond_result(call):
    """Run ``call`` and return (its result, the bytes its peak allocation
    exceeded the memory still held once it returned), as tracemalloc, to
    which numpy reports its array buffers, counts them."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - current


def mix64(z):
    """splitmix64 finalizer on a Python int (wraps at 64 bits): the scalar
    reference that the library's uint64 array path is checked against."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_key(seed, stream):
    """Key of substream ``stream`` of ``seed``, from Python ints."""
    return mix64((seed + (stream + 1) * GOLDEN) & _MASK)


def uniforms_block(keys, start, count):
    """Row r holds the ``count`` uniforms in (0, 1) of ``keys[r]`` from
    counter ``start + 1``, by the library's ``_rng._unit``, the step that
    ``_rng.normals_block`` runs on each half of a Box-Muller pair."""
    offsets = np.arange(start + 1, start + count + 1, dtype=np.uint64) * np.uint64(_rng.GOLDEN)
    out = np.empty((keys.shape[0], count), dtype=np.uint64)
    return _rng._unit(keys, offsets, out, np.empty_like(out))


class TrialStream:
    """The normals of trial ``trial`` of a simulation seeded with ``seed``,
    in the layout of ``_kernels.calibration_mse``: the trial's key is
    ``stream_keys(seed, trial, trial + 1)[0]``, and each draw starts at the
    pair after the last one drawn, so the signal's n normals come from
    pair 0 and the noise normals from pair ⌈n/2⌉ (column 2⌈n/2⌉)."""

    def __init__(self, seed, trial=0):
        self.keys = _rng.stream_keys(seed, trial, trial + 1)
        self.pair = 0

    def normals(self, count):
        out = _rng.normals_block(self.keys, self.pair, count)[0]
        self.pair += (count + 1) // 2
        return out


def draw_prior_signal(spectrum, eps, rng):
    """One signal from the regularized smoothness prior, ``vectors @ (xi /
    sqrt(values + eps))`` with ``xi`` standard normal from the
    :class:`TrialStream` ``rng``: one trial of the calibration kernel, whose
    covariance is ``(L + eps I)^-1``."""
    scale = 1.0 / np.sqrt(spectrum.values + eps)
    return spectrum.vectors @ (scale * rng.normals(spectrum.n))


def observe(signal, sigma2, sampling, rng):
    """``signal`` on the nodes of ``sampling`` (every node when None) plus
    noise of variance ``sigma2`` from the :class:`TrialStream` ``rng``, which
    gives the same number of variates whatever ``sigma2``: one trial's
    observation in the calibration kernel."""
    sampled = signal if sampling is None else signal[list(sampling.nodes)]
    return sampled + np.sqrt(sigma2) * rng.normals(sampled.shape[0])


def fake_physical_memory(monkeypatch, nbytes):
    """Make ``os.sysconf`` report ``nbytes`` of physical memory, in 4 KiB
    pages, so that a memory guard can be tested without allocating."""
    real, pages = os.sysconf, {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": nbytes // 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name] if name in pages else real(name))
