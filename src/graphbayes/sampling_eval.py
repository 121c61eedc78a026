"""Covariance-based scoring of sampling sets and a greedy selection baseline."""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .belief import SamplingOperator, _observed, partial_observation
from .graph_core import _as_index, _as_scalar, _symmetrized
from .inference import _eigen_split, _flat_nodes, _projected, fuse

__all__ = ["METRICS", "covariance_metric", "greedy_select"]

METRICS = ("trace", "logdet", "max_eig")


def covariance_metric(summary, metric):
    """Scalar score of the posterior covariance; smaller is better.

    Any flat (infinite-variance) direction makes every metric ``inf``.
    ``logdet`` is taken over the finite-variance block; when zero-variance
    directions are present it is ``-inf``, the count of such directions
    being readable off ``summary.zero_basis``.
    """
    _require_metric(metric)
    return _metric_rule(summary.cov_values, summary.null_basis.shape[1],
                        summary.zero_basis.shape[1], metric)


def _require_metric(metric):
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")


def _metric_rule(values, flat, zero, metric):
    """:func:`covariance_metric` of a posterior with finite variances
    ``values``, ``flat`` flat directions and ``zero`` zero-variance ones."""
    if flat > 0:
        return math.inf
    if metric == "trace":
        return float(values.sum())
    if metric == "max_eig":
        return float(values.max()) if values.size else 0.0
    if zero > 0:
        return -math.inf
    return float(np.log(values).sum())


# Candidates whose closed-form score lies within this relative distance of
# the lowest one, or of the base score when that is larger, are scored
# exactly by fuse; when a confirmed score misses its estimate by more, the
# round scores every candidate exactly.
_SCREEN_RTOL = 1e-8

# Bytes of the candidate matrices of one chunk, which a round symmetrizes
# straight into preallocated stacks for eigh: at most workers + 1 stacks are
# in flight (_kernels.map_in_order), each candidate's matrix held once, in
# its slot; never all of a round.
_SLICE_BYTES = 1 << 19


def _posterior(prior, nodes, sigma2):
    op = SamplingOperator(n=prior.n, nodes=tuple(nodes))
    return fuse(prior, partial_observation(op, np.zeros(op.n_s), sigma2))


def _screen(base, sigma2, metric):
    """Closed-form score of adding each node to the sampling set behind
    ``base``, with the size of the base score that bounds their rounding;
    ``inf`` for every node where none is known: ``max_eig``, and ``logdet``
    when σ² = 0 or a direction has zero variance (``-inf`` whatever the node).

    With Σ the finite covariance and one flat direction ``z``, a sample at
    node v fixes ``z`` and leaves Σ as it is: the trace grows by
    (σ² + Σ_vv)/z_v² and the logdet falls by log(z_v²/σ²). With no flat
    direction it is the rank-one downdate of Σ by Σe_v. One sample cannot
    remove two flat directions, so then every score is ``inf``.

    Σ = B diag(λ) Bᵀ with orthonormal ``cov_basis`` B and ``cov_values``
    λ, so Σ_vv = (B∘B)λ and ‖Σe_v‖² = (B∘B)λ² come from B∘B without
    forming Σ.
    """
    values, basis, flat = base.cov_values, base.cov_basis, base.null_basis
    if metric == "max_eig" or flat.shape[1] > 1 or (
            metric == "logdet" and (sigma2 == 0 or base.zero_basis.shape[1])):
        return np.full(base.n, math.inf), math.inf
    if metric == "trace":
        total = size = values.sum()
    else:
        logs = np.log(values)
        total, size = logs.sum(), np.abs(logs).sum()
    squares = basis**2
    diag = squares @ values
    if flat.shape[1] == 1:
        z = flat[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            if metric == "trace":
                scores = total + (sigma2 + diag) / z**2
            else:
                scores = total - np.log(z**2 / sigma2)
        scores[~_flat_nodes(base)] = math.inf
        return scores, size
    if metric == "logdet":
        return total - np.log1p(diag / sigma2), size
    denom = sigma2 + diag
    drop = np.divide(squares @ values**2, denom, out=np.zeros(base.n), where=denom > 0)
    return total - drop, size


def _exact_scores(prior, selected, candidates, sigma2, metric):
    """The ``covariance_metric`` of ``_posterior(prior, selected + [v], sigma2)``
    for each ``v`` of ``candidates``, bit for bit, from stacked eigendecompositions.

    ``candidates`` is cut into chunks of at most ``_SLICE_BYTES``, about as
    many per thread. The calling thread builds each candidate's projected
    precision, the matrix :func:`fuse` eigendecomposes, from its
    observation arrays by index (``belief._observed``, no belief per
    candidate; ``sigma2`` is a checked float), and symmetrizes it straight
    into its slot of a stack preallocated for the rest of the chunk; a new
    stack starts only where the kernel size changes. Each stack goes to
    :func:`_eigen_split`, which runs on the caller and one helper per
    further core, the caller taking back stacks no helper has started;
    ``eigh`` takes a stack one matrix at a time, so neither the chunking
    nor the thread count moves a bit.
    """
    n = prior.n
    per_slice = max(1, _SLICE_BYTES // (8 * n * n))  # a kernel has at most n dims
    slices = -(-len(candidates) // per_slice)
    workers = max(1, min(_kernels._cores(), slices))
    # as many slices for each thread, of as many candidates each
    per_slice = -(-len(candidates) // (workers * -(-slices // workers)))

    observed = np.zeros(len(selected) + 1)

    def build():
        for lo in range(0, len(candidates), per_slice):
            chunk, taus, zeros = candidates[lo:lo + per_slice], [], []
            for i, v in enumerate(chunk):
                projected, _, zero_basis, _, _, tau = _projected(
                    prior, _observed(n, selected + [v], observed, sigma2))
                if taus and projected.shape != stack.shape[1:]:
                    yield stack[:len(taus)], taus, zeros
                    taus, zeros = [], []
                if not taus:  # a stack for the rest of the chunk
                    stack = np.empty((len(chunk) - i, *projected.shape))
                _symmetrized(projected, out=stack[len(taus)])
                taus.append(tau)
                zeros.append(zero_basis.shape[1])
            yield stack[:len(taus)], taus, zeros

    def split(task):
        stack, taus, zeros = task
        evals, _, finite = _eigen_split(stack, taus)  # only numpy off the calling thread
        return evals, finite, zeros

    return [_metric_rule(1.0 / values[kept], np.count_nonzero(~kept), zero, metric)
            for evals, finite, zeros in _kernels.map_in_order(split, build(), workers)
            for values, kept, zero in zip(evals, finite, zeros)]


def _next_node(prior, selected, remaining, sigma2, metric):
    """The node of ``remaining`` with the lowest exact score, the lowest id
    among bit-identical scores: screened from one posterior, then scored
    exactly by :func:`_exact_scores` on the near-ties."""
    estimates, size = _screen(_posterior(prior, selected, sigma2), sigma2, metric)
    best = float(estimates[remaining].min())
    if best < math.inf:
        # rounding in the estimates scales with the base score, so the
        # margin does not vanish when the lowest estimate is 0
        margin = _SCREEN_RTOL * max(abs(best), size)
        near = [v for v in remaining if estimates[v] <= best + margin]
        scores = _exact_scores(prior, selected, near, sigma2, metric)
        if all(abs(s - estimates[v]) <= margin for v, s in zip(near, scores)):
            return near[scores.index(min(scores))]
    scores = _exact_scores(prior, selected, remaining, sigma2, metric)
    return remaining[scores.index(min(scores))]


def greedy_select(prior, budget, sigma2, metric="trace"):
    """Grow a sampling set one node at a time, each round adding the node
    whose observation most reduces the covariance metric.

    A candidate wins only with a strictly lower score, so bit-identical
    scores go to the lowest node id. Scores that are equal in exact
    arithmetic, as symmetric graphs produce, usually differ by rounding,
    and then rounding picks the winner, not the node id: on a 9x9 grid
    with ``eps=0``, ``logdet`` and ``sigma2=1`` all 81 first-round scores
    agree to within 1e-12 and node 78 is picked.

    Each round screens, then confirms. One :func:`fuse` of the nodes
    selected so far gives every candidate's score in closed form (``trace``,
    and ``logdet`` while σ² > 0 and no direction has zero variance), and an
    ``inf`` estimate for every candidate where there is none (``max_eig``
    always). The candidates within a relative 1e-8 of the lowest estimate,
    or of the base score when that is larger, are then scored exactly, and
    the lowest exact score wins as above. If a confirmed score misses its
    estimate by more than that margin, or no estimate is finite, the round
    scores every candidate exactly. Exact scores decide every winner, so
    the set is the one that scoring every candidate exactly gives, unless an
    unconfirmed candidate's exact score lies below its estimate by more than
    the margin; no case checked so far does that.

    A round's exact scores are those of one :func:`fuse` per candidate,
    bit for bit, but computed together: each candidate's observation is
    built from arrays by index, with no sampling operator or belief per
    candidate, and its projected precision on the calling thread, in chunks
    of at most 512 KiB, symmetrized straight into its slot of a stack, so
    that a round holds each candidate's matrix once and at most one stack
    per thread and one more; a stack, which a new kernel size ends, is
    eigendecomposed by one ``eigh`` call, on the calling thread and one
    helper thread per further core (:func:`._kernels.map_in_order`).
    ``eigh`` takes a stack one matrix at a time and the scores are read in
    candidate order, so the bits and the set do not depend on the thread
    count; the error a candidate's :func:`fuse` would raise, such as an
    indefinite fused precision, is raised, and no thread outlives the call.
    """
    n, budget = prior.n, _as_index(budget, "budget")
    if not 1 <= budget <= n:
        raise ValueError(f"budget must be in [1, {n}], got {budget}")
    _require_metric(metric)
    sigma2 = _as_scalar(sigma2, "sigma2")
    selected = []
    remaining = list(range(n))
    for _ in range(budget):
        best_node = _next_node(prior, selected, remaining, sigma2, metric)
        selected.append(best_node)
        remaining.remove(best_node)
    return SamplingOperator(n=n, nodes=tuple(sorted(selected)))
