"""Property-based checks of the posterior's zero/finite/infinite split.

Problems are drawn as small random graphs under a smoothness prior (eps
zero or positive) or an exact subspace prior, observed on a random node
subset with or without noise. Fully determined posteriors arise from
noise-free observations of every node and from exact subspace priors with
enough samples; conflicting noise-free samples make some problems
infeasible. The structure is drawn by hypothesis, the numbers inside it
from a numpy generator seeded by hypothesis. Examples are derandomized so
that a run repeats.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbayes import (
    GaussianBelief,
    NonUniqueSolutionWarning,
    SamplingOperator,
    SubspaceBasis,
    fuse,
    laplacian,
    node_variances,
    partial_observation,
    smoothness_prior,
    solve_map,
    spectral_decomposition,
    subspace_prior,
)
from graphbayes.inference import _reduce_constraints

from helpers import random_graph

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def problems(draw):
    """(prior, observation) for a small graph."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lap = laplacian(random_graph(rng, n, edge_prob=draw(st.sampled_from([0.2, 0.5, 0.9]))))
    if draw(st.booleans()):
        prior = smoothness_prior(lap, draw(st.sampled_from([0.0, 0.05, 0.5])))
        truth = rng.standard_normal(n)
    else:
        # exact subspace prior on the lowest modes of the graph
        dim = draw(st.integers(1, n))
        basis = SubspaceBasis(basis=spectral_decomposition(lap).vectors[:, :dim])
        prior = subspace_prior(basis, 0.0)
        # on the subspace, or anywhere (noise-free samples may then conflict)
        truth = basis.basis @ rng.standard_normal(dim) if draw(st.booleans()) \
            else rng.standard_normal(n)
    nodes = rng.choice(n, size=draw(st.integers(0, n)), replace=False)
    op = SamplingOperator(n=n, nodes=tuple(sorted(nodes.tolist())))
    sigma2 = draw(st.sampled_from([0.0, 0.3]))
    return prior, partial_observation(op, truth[list(op.nodes)], sigma2)


def _outcome(call):
    """(result, warned, exception class) of one solver call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except ValueError as exc:
            return None, None, type(exc)
    warned = any(issubclass(w.category, NonUniqueSolutionWarning) for w in caught)
    return result, warned, None


def _scaled(belief, c):
    return GaussianBelief(n=belief.n, precision=c * belief.precision,
                          info=c * belief.info, constraints=belief.constraints,
                          targets=belief.targets)


def _fused(first, second):
    """(summary, exception class) of ``fuse(first, second)``."""
    try:
        return fuse(first, second), None
    except ValueError as exc:
        return None, type(exc)


@SETTINGS
@given(problems())
def test_argument_order_of_fuse_does_not_matter(problem):
    prior, obs = problem
    forward, forward_error = _fused(prior, obs)
    backward, backward_error = _fused(obs, prior)
    assert forward_error is backward_error
    if forward is None:
        return
    for name in ("cov_basis", "null_basis", "zero_basis"):
        assert getattr(backward, name).shape == getattr(forward, name).shape, name
    scale = max(np.linalg.norm(forward.mean), 1.0)
    assert np.linalg.norm(backward.mean - forward.mean) <= 1e-8 * scale
    forward_var, backward_var = node_variances(forward), node_variances(backward)
    np.testing.assert_array_equal(np.isinf(backward_var), np.isinf(forward_var))
    finite = np.isfinite(forward_var)
    np.testing.assert_allclose(backward_var[finite], forward_var[finite], rtol=1e-9,
                               atol=1e-12 * np.max(forward.cov_values, initial=0.0))


@SETTINGS
@given(problems())
def test_node_variances_are_nonnegative_or_infinite(problem):
    summary, _ = _fused(*problem)
    if summary is None:
        return
    variances = node_variances(summary)
    assert np.all((variances >= 0) | (variances == np.inf))


@SETTINGS
@given(problems())
def test_the_three_bases_split_the_space_orthonormally(problem):
    summary, _ = _fused(*problem)
    if summary is None:
        return
    # square with orthonormal columns: each basis orthonormal, the three
    # mutually orthogonal, and together spanning R^n
    stacked = np.hstack([summary.zero_basis, summary.cov_basis, summary.null_basis])
    assert stacked.shape == (summary.n, summary.n)
    np.testing.assert_allclose(stacked.T @ stacked, np.eye(summary.n), atol=1e-10)


@SETTINGS
@given(problems())
def test_closed_form_and_iterative_map_agree(problem):
    prior, obs = problem
    closed, closed_warned, closed_error = _outcome(lambda: solve_map(prior, obs, "closed_form"))
    iterative, iterative_warned, iterative_error = _outcome(
        lambda: solve_map(prior, obs, "iterative"))
    assert closed_error is iterative_error
    assert closed_warned == iterative_warned
    if closed_error is None:
        scale = max(np.linalg.norm(closed), 1.0)
        assert np.linalg.norm(iterative - closed) <= 1e-8 * scale


@SETTINGS
@given(problems(), st.sampled_from([1e-12, 1e-6, 3.0, 1e10]))
def test_scaling_the_precision_scales_the_variances(problem, c):
    prior, obs = problem
    try:
        base = fuse(prior, obs)
    except ValueError:
        return  # conflicting noise-free samples; nothing to scale
    scaled = fuse(_scaled(prior, c), _scaled(obs, c))
    for name in ("cov_basis", "null_basis", "zero_basis"):
        assert getattr(scaled, name).shape == getattr(base, name).shape, name
    np.testing.assert_allclose(c * np.sort(scaled.cov_values), np.sort(base.cov_values),
                               rtol=1e-9)
    base_var, scaled_var = node_variances(base), node_variances(scaled)
    np.testing.assert_array_equal(np.isinf(scaled_var), np.isinf(base_var))
    finite = np.isfinite(base_var)
    np.testing.assert_allclose(c * scaled_var[finite], base_var[finite], rtol=1e-9,
                               atol=1e-12 * np.max(base.cov_values, initial=0.0))


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 3),
       st.integers(0, 2**32 - 1))
def test_particular_point_is_the_least_squares_minimum_norm_point(rank, n, copies, seed):
    # rank-deficient rows with duplicates, and consistent values
    rank = min(rank, n)
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((rank, rank)) @ rng.standard_normal((rank, n))
    c_mat = np.vstack([rows, rows[rng.integers(0, rank, size=copies)],
                       rng.standard_normal((2, rank)) @ rows])
    d_vec = c_mat @ rng.standard_normal(n)
    zero_basis, kernel, particular = _reduce_constraints(c_mat, d_vec)
    expected = np.linalg.lstsq(c_mat, d_vec, rcond=None)[0]
    np.testing.assert_allclose(particular, expected, rtol=1e-8,
                               atol=1e-8 * np.linalg.norm(expected))
    assert zero_basis.shape[1] + kernel.shape[1] == n
    assert np.linalg.norm(kernel.T @ particular) <= 1e-8 * max(np.linalg.norm(particular), 1.0)
