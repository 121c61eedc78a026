"""Covariance-based scoring of sampling sets and a greedy selection baseline."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .belief import SamplingOperator, partial_observation
from .inference import fuse

__all__ = ["METRICS", "covariance_metric", "greedy_select", "exhaustive_select"]

METRICS = ("trace", "logdet", "max_eig")


def covariance_metric(summary, metric):
    """Scalar score of the posterior covariance; smaller is better.

    Any flat (infinite-variance) direction makes every metric ``inf``.
    ``logdet`` is taken over the finite-variance block; when zero-variance
    directions are present it is ``-inf``, the count of such directions
    being readable off ``summary.zero_basis``.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if summary.null_basis.shape[1] > 0:
        return math.inf
    values = summary.cov_values
    if metric == "trace":
        return float(values.sum())
    if metric == "max_eig":
        return float(values.max()) if values.size else 0.0
    if summary.zero_basis.shape[1] > 0:
        return -math.inf
    return float(np.log(values).sum())


def _score(prior, nodes, sigma2, metric):
    op = SamplingOperator(n=prior.n, nodes=tuple(nodes))
    obs = partial_observation(op, np.zeros(op.n_s), sigma2)
    return covariance_metric(fuse(prior, obs), metric)


def greedy_select(prior, budget, sigma2, metric="trace"):
    """Grow a sampling set one node at a time, each round adding the node
    whose observation most reduces the covariance metric.

    A candidate wins only with a strictly lower score, so bit-identical
    scores go to the lowest node id. Scores that are equal in exact
    arithmetic, as symmetric graphs produce, usually differ by rounding,
    and then rounding picks the winner, not the node id: on a 9x9 grid
    with ``eps=0``, ``logdet`` and ``sigma2=1`` all 81 first-round scores
    agree to within 1e-12 and node 78 is picked. Every candidate costs one
    :func:`fuse`, budget x n calls in all: budget 6 with ``trace``,
    ``eps=0`` and ``sigma2=1`` takes about 0.6 s on a 9x9 grid (n = 81) on
    one BLAS thread of a 2-core machine.
    """
    n = prior.n
    if not 1 <= budget <= n:
        raise ValueError(f"budget must be in [1, {n}], got {budget}")
    selected = []
    remaining = list(range(n))
    for _ in range(budget):
        best_node = min(remaining, key=lambda v: _score(prior, selected + [v], sigma2, metric))
        selected.append(best_node)
        remaining.remove(best_node)
    return SamplingOperator(n=n, nodes=tuple(sorted(selected)))


def exhaustive_select(prior, budget, sigma2, metric="trace"):
    """Exact minimizer over all size-``budget`` subsets.

    Exponential; guarded to n <= 12 and meant as an oracle for checking the
    greedy baseline. Bit-identical scores go to the lexicographically
    smallest set; scores tied only in exact arithmetic are decided by
    rounding, as in :func:`greedy_select`.
    """
    n = prior.n
    if n > 12:
        raise ValueError("exhaustive search is limited to n <= 12")
    if not 1 <= budget <= n:
        raise ValueError(f"budget must be in [1, {n}], got {budget}")
    best_set = min(itertools.combinations(range(n), budget),
                   key=lambda nodes: _score(prior, nodes, sigma2, metric))
    return SamplingOperator(n=n, nodes=best_set)
