"""Shared graph builders, referees and fakes for the test-suite."""

import collections
import itertools
import math
import operator
import os
import tracemalloc
from fractions import Fraction

import numpy as np

from graphbayes import DIRECTION_TOL, Graph, InfiniteVarianceError, SamplingOperator, _rng
from graphbayes import sampling_eval


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
    return _connected(neighbours)


def _connected(neighbours):
    """Connected components, as sorted lists, of the graph on nodes
    ``0 .. len(neighbours) - 1`` in which ``neighbours[v]`` lists v's."""
    label = [-1] * len(neighbours)
    found = []
    for start in range(len(neighbours)):
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


class FactoredSummary:
    """A posterior held in factored form, with no eigenbasis: the pins by
    index, and the connected components of the free subgraph, each with a
    dense inverse of its block of the fused precision (a pseudo-inverse on
    a flat component). It answers the queries of ``PosteriorSummary``, so
    that the public functions and the referees take it in place of one;
    its ``eigen_factor`` raises. ``factored_fuse`` builds it."""

    def __init__(self, mean, pins, blocks):
        self.mean, self.n, self.pins = mean, mean.shape[0], pins
        self.blocks = blocks  # (node ids, finite covariance, flat?) per component
        self.flat = [ids for ids, _, flat in blocks if flat]

    @property
    def counts(self):
        return self.n - len(self.pins) - len(self.flat), len(self.flat), len(self.pins)

    def eigen_factor(self):
        raise TypeError("a factored posterior holds no eigenbasis")

    def finite_spectrum(self):
        # a flat component's pseudo-inverse has its one 0 on the indicator,
        # below every variance
        return np.concatenate([np.linalg.eigvalsh(cov)[int(flat):]
                               for _, cov, flat in self.blocks] + [np.zeros(0)])

    def flat_projector(self):
        projector = np.zeros((self.n, self.n))
        for ids in self.flat:
            projector[np.ix_(ids, ids)] = 1.0 / ids.size
        return projector

    def _finite_covariance(self):
        cov = np.zeros((self.n, self.n))
        for ids, block, _ in self.blocks:
            cov[np.ix_(ids, ids)] = block
        return cov

    def covariance(self):
        if self.flat:
            raise InfiniteVarianceError("posterior has directions of infinite variance")
        return self._finite_covariance()

    def node_variances(self):
        variances = np.diagonal(self._finite_covariance()).copy()
        for ids in self.flat:
            variances[ids] = math.inf
        return variances

    def variances_along(self, vectors):
        vectors = vectors / np.max(np.abs(vectors), axis=0)
        norms = np.linalg.norm(vectors, axis=0)
        variances = np.sum(vectors * (self._finite_covariance() @ vectors), axis=0) / norms**2
        flat_mass = np.linalg.norm(self.flat_projector() @ vectors, axis=0) / norms
        variances[flat_mass > DIRECTION_TOL] = math.inf
        return variances


def factored_fuse(prior, observation):
    """The posterior of ``fuse(prior, observation)`` as a
    :class:`FactoredSummary`, for a fused precision ``P`` that is a graph
    Laplacian plus a non-negative diagonal and constraint rows that pin
    nodes. The pins take their rows and columns out of ``P``, and the free
    block ``P_ff`` gets the information ``h_f - P_fp d_p``. A connected
    component of the free subgraph (the pattern of ``P_ff``) is flat
    exactly where every row of ``P_ff`` sums to 0: its block is then a
    connected Laplacian, flat along the component's indicator ``1``, and
    its finite part ``inv(B + 11'/c) - 11'/c`` for a block ``B`` of ``c``
    nodes. Every other block is positive definite and inverted as it is.
    The mean is each finite part times the information."""
    n = prior.n
    precision = sum(np.diag(p) if p.ndim == 1 else p
                    for p in (prior.precision, observation.precision))
    rows = np.vstack([prior.constraints, observation.constraints])
    pins = np.argmax(rows, axis=1)
    assert np.array_equal(rows, np.eye(n)[pins]), "constraint rows that are not pins"
    values = np.concatenate([prior.targets, observation.targets])
    free = np.setdiff1d(np.arange(n), pins)
    block = precision[np.ix_(free, free)]
    rhs = (prior.info + observation.info)[free] - precision[np.ix_(free, pins)] @ values
    mean = np.zeros(n)
    mean[pins] = values
    blocks = []
    linked = (block != 0) & ~np.eye(free.size, dtype=bool)
    for members in _connected([np.flatnonzero(row) for row in linked]):
        inner = block[np.ix_(members, members)]
        flat = not block[members].sum(axis=1).any()
        mass = np.full(inner.shape, flat / len(members))
        cov = np.linalg.inv(inner + mass) - mass
        mean[free[members]] = cov @ rhs[members]
        blocks.append((free[members], cov, flat))
    return FactoredSummary(mean, pins, blocks)


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
