"""Classical graph signal estimators as posteriors, each checked against an
oracle written without :func:`fuse`.

* Harmonic interpolation (Zhu, Ghahramani & Lafferty, ICML 2003): the
  eps=0 smoothness prior with noise-free pins has mean
  ``x_u = -L_uu^-1 L_ul y_l`` and covariance ``L_uu^-1`` on the free nodes.
* Least-squares bandlimited reconstruction (Chen, Varma, Sandryhaila &
  Kovacevic, IEEE TSP 2015): an exact subspace prior with noisy samples
  has mean ``U (U_S' U_S)^-1 U_S' y``.
* Exact flat subspace: under the eps=0 smoothness prior the flat
  directions are the indicators of the connected components that hold no
  observed node, with no eigenvalue tolerance in the oracle.
* Exact limits at a rate: as the noise variance of pinned nodes, or the
  variance of a relaxed subspace prior, falls from 1e-2 to 1e-8, the mean
  approaches the exact (constrained) one by O(variance), and the variance
  along the constrained directions stays between closed-form bounds that
  are both proportional to it.
* Random walks on paths and trees: under the eps=0 smoothness prior the
  increments along the edges of a tree are i.i.d. N(0, 1). One noisy sample
  ``y`` at the root leaves the mean ``y`` everywhere and gives
  ``Cov(x_u, x_v) = sigma2 + depth(lca(u, v))``, so ``sigma2 + k`` at node
  k of a path. Noise-free pins at a < b on a path make a Brownian bridge
  between them, with variance ``(k - a)(b - k)/(b - a)`` and a linear mean,
  and a walk from the nearest pin outside them.
* Bayes risk: under a proper prior ``x ~ N(0, (L + eps I)^-1)`` the
  posterior variance of each node is the expected squared error of the
  linear estimator ``x_hat = E y``, ``diag((E S - I) Sigma0 (E S - I)' +
  sigma2 E E')``, with ``S`` the selection matrix and ``Sigma0`` the prior
  covariance.
* Laplacian-regularized denoising (the graph Tikhonov filter, Shuman et
  al., IEEE SPM 2013): the eps=0 smoothness prior with every node observed
  at noise variance ``sigma2`` has mean ``(I + sigma2 L)^-1 y``, the
  minimizer of ``|x - y|^2 + sigma2 x' L x``, and covariance
  ``sigma2 (I + sigma2 L)^-1``.
* Dense oracle: when the posterior is proper (``eps > 0``, or a noisy
  sample in every connected component), the fused precision
  ``P = L + eps I + S' S / sigma2`` is invertible, the mean is
  ``P^-1 S' y / sigma2`` and the covariance ``P^-1``.
* Exact rationals: on a graph of a dozen nodes the posterior of the
  smoothness prior with noisy samples and pins is solved over
  ``fractions.Fraction`` with no rounding (``sigma2`` and ``eps`` powers of
  two), so the flat and zero counts are exact, and the node variances and
  the mean are held to the eigen path's own error model: rounding of size
  ``n RANK_TOL ||P||_inf`` in the eigenvalues moves them by that over the
  smallest finite eigenvalue, relative.
* Monte Carlo rate: the squared error of one trial at a node with Bayes
  risk ``v`` is ``v`` times a chi-square variable with one degree of
  freedom, so the mean over T trials has standard deviation
  ``v sqrt(2/T)``, and ``run_calibration``'s mse stays within a few of
  those of the variance.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphbayes import (
    RANK_TOL,
    ExperimentConfig,
    Graph,
    SamplingOperator,
    SubspaceBasis,
    directional_uncertainty,
    full_observation,
    fuse,
    grid_graph,
    laplacian,
    node_variances,
    partial_observation,
    path_graph,
    posterior_covariance,
    run_calibration,
    smoothness_prior,
    spectral_decomposition,
    subspace_prior,
)
from graphbayes.cli import main
from graphbayes.simulate import _estimator_matrix

from helpers import (components, exact_posterior, factored_fuse, random_connected_graph,
                     random_graph)


@pytest.mark.parametrize("seed", range(6))
def test_harmonic_interpolation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 16))
    graph = random_connected_graph(rng, n)
    lap = laplacian(graph)
    pinned = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
    free = np.setdiff1d(np.arange(n), pinned)
    values = rng.standard_normal(pinned.size)

    l_uu_inv = np.linalg.inv(lap[np.ix_(free, free)])
    expected_mean = np.zeros(n)
    expected_mean[pinned] = values
    expected_mean[free] = -l_uu_inv @ lap[np.ix_(free, pinned)] @ values
    expected_cov = np.zeros((n, n))
    expected_cov[np.ix_(free, free)] = l_uu_inv

    summary = fuse(smoothness_prior(lap, 0.0),
                   partial_observation(SamplingOperator(n=n, nodes=tuple(pinned.tolist())),
                                       values, 0.0))
    assert summary.counts[1:] == (0, pinned.size)
    scale = 1.0 + np.max(np.abs(l_uu_inv))
    np.testing.assert_allclose(summary.mean, expected_mean, rtol=0,
                               atol=1e-10 * scale * (1.0 + np.max(np.abs(values))))
    np.testing.assert_allclose(posterior_covariance(summary), expected_cov, rtol=0,
                               atol=1e-10 * scale)


@pytest.mark.parametrize("seed", range(6))
def test_least_squares_bandlimited_reconstruction(seed):
    rng = np.random.default_rng(100 + seed)
    graph = grid_graph(int(rng.integers(3, 6)), int(rng.integers(3, 6)))
    n = graph.n
    dim = int(rng.integers(1, 5))
    u = spectral_decomposition(laplacian(graph)).vectors[:, :dim]
    nodes = np.sort(rng.choice(n, size=int(rng.integers(dim, n + 1)), replace=False))
    u_s = u[nodes]
    # these seeds draw sampled rows of full column rank, well conditioned
    assert np.linalg.svd(u_s, compute_uv=False)[-1] > 1e-6
    samples = rng.standard_normal(nodes.size)
    sigma2 = float(rng.uniform(0.1, 2.0))

    gram_inv = np.linalg.inv(u_s.T @ u_s)
    expected_mean = u @ gram_inv @ u_s.T @ samples
    expected_cov = sigma2 * u @ gram_inv @ u.T

    summary = fuse(subspace_prior(SubspaceBasis(basis=u), 0.0),
                   partial_observation(SamplingOperator(n=n, nodes=tuple(nodes.tolist())),
                                       samples, sigma2))
    assert summary.counts[:2] == (dim, 0)
    scale = 1.0 + np.max(np.abs(gram_inv))
    np.testing.assert_allclose(summary.mean, expected_mean, rtol=0,
                               atol=1e-10 * scale * (1.0 + np.max(np.abs(samples))))
    np.testing.assert_allclose(posterior_covariance(summary), expected_cov, rtol=0,
                               atol=1e-10 * scale * sigma2)


@pytest.mark.parametrize("sigma2", [0.0, 0.7])
@pytest.mark.parametrize("seed", range(8))
def test_flat_subspace_is_spanned_by_unobserved_components(seed, sigma2):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(4, 14))
    graph = random_graph(rng, n, edge_prob=0.15)
    observed = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
    indicators = []
    for members in components(graph):
        if not np.isin(members, observed).any():
            column = np.zeros(n)
            column[members] = 1.0 / np.sqrt(len(members))
            indicators.append(column)
    expected = np.array(indicators).reshape(-1, n).T

    summary = fuse(smoothness_prior(laplacian(graph), 0.0),
                   partial_observation(SamplingOperator(n=n, nodes=tuple(observed.tolist())),
                                       rng.standard_normal(observed.size), sigma2))
    assert summary.counts[1] == expected.shape[1]
    np.testing.assert_allclose(summary.flat_projector(), expected @ expected.T,
                               rtol=0, atol=1e-10)


LADDER = 10.0 ** -np.arange(2, 9)  # 1e-2 down to 1e-8


def _rounding(summary, exact):
    """Forward-error allowance of a dense solve: 100 eps times the condition
    number of the finite block times the size of the mean. The stiff
    precision of a small variance has condition number about 1/variance, so
    near 1e-8 this term, not the O(variance) one, sets the distance; the
    exact forms carry no such term."""
    spectrum = summary.finite_spectrum()
    kappa = spectrum.max() / spectrum.min()
    return 100 * np.finfo(np.float64).eps * kappa * (1.0 + np.linalg.norm(exact))


@pytest.mark.parametrize("eps", [0.0, 0.1])
@pytest.mark.parametrize("seed", range(6))
def test_noisy_pins_approach_exact_pins_at_rate_sigma2(seed, eps):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(6, 16))
    lap = laplacian(random_connected_graph(rng, n))
    prior = smoothness_prior(lap, eps)
    pinned = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
    op = SamplingOperator(n=n, nodes=tuple(pinned.tolist()))
    values = rng.standard_normal(pinned.size)
    exact = fuse(prior, partial_observation(op, values, 0.0)).mean
    diagonal = lap.diagonal()[pinned] + eps

    rate = None
    for sigma2 in LADDER:
        summary = fuse(prior, partial_observation(op, values, sigma2))
        moved = np.linalg.norm(summary.mean - exact)
        rate = moved / sigma2 if rate is None else rate
        assert moved <= 2 * rate * sigma2 + _rounding(summary, exact)
        # a pinned node's marginal variance lies between 1 / P_vv, the
        # inverse of its fused precision, and its noise variance sigma2
        variances = node_variances(summary)[pinned]
        assert np.all(variances <= sigma2 * (1 + 1e-6))
        assert np.all(variances >= sigma2 / (1 + diagonal * sigma2) * (1 - 1e-6))


@pytest.mark.parametrize("seed", range(80))
def test_relaxed_subspace_prior_approaches_the_exact_one_at_rate_s(seed):
    rng = np.random.default_rng(400 + seed)
    while True:
        n = int(rng.integers(6, 16))
        u = spectral_decomposition(laplacian(random_connected_graph(rng, n))).vectors
        dim = int(rng.integers(1, 4))
        nodes = np.sort(rng.choice(n, size=int(rng.integers(dim, n + 1)), replace=False))
        if np.linalg.svd(u[nodes, :dim], compute_uv=False)[-1] > 1e-6:
            break  # the samples identify the subspace: a proper exact posterior
    basis = SubspaceBasis(basis=u[:, :dim])
    complement = np.linalg.svd(basis.basis.T)[2][dim:]
    sigma2 = 0.5
    obs = partial_observation(SamplingOperator(n=n, nodes=tuple(nodes.tolist())),
                              rng.standard_normal(nodes.size), sigma2)
    exact = fuse(subspace_prior(basis, 0.0), obs).mean

    rate = None
    for s in LADDER:
        summary = fuse(subspace_prior(basis, s), obs)
        moved = np.linalg.norm(summary.mean - exact)
        rate = moved / s if rate is None else rate
        assert moved <= 2 * rate * s + _rounding(summary, exact)
        # along a unit direction w off the subspace the variance lies between
        # 1 / (w' P w) and s, as for the pins above
        sampled_mass = np.sum(complement[:, nodes] ** 2, axis=1)
        variances = np.array([directional_uncertainty(summary, w) for w in complement])
        assert np.all(variances <= s * (1 + 1e-6))
        assert np.all(variances >= s / (1 + s * sampled_mass / sigma2) * (1 - 1e-6))


def _sampled_once(build, graph, node, value, sigma2):
    return build(smoothness_prior(laplacian(graph), 0.0),
                 partial_observation(SamplingOperator(n=graph.n, nodes=(node,)),
                                     np.array([value]), sigma2))


# ROADMAP item 1's gate, as strict xfails; the change that mends the cut
# turns them on by deleting the marks. At the precise samples of the paths
# below, the rank cut files finite directions as flat (2, 2 and 1 of them).
# On the 300-node tree further down, sigma2 = 1e-12 files 15 as flat, so
# posterior_covariance raises, and sigma2 = 1e-10 files none but misses
# the covariance by 1.2e-5 and the mean by 1.4e-6 (atol 2e-11 and 5e-12).
# The factored summary of tests/helpers.py, which splits by pins and
# components with no rank cut, passes the same referees through the
# posterior's queries alone, these cases included.
_ITEM_1 = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
_WALKS = [(sigma2, n) for sigma2 in (1.0, 1e-3, 1e-6) for n in (64, 300, 1000)]
_PRECISE_WALKS = [(1e-12, 64), (1e-10, 300), (1e-8, 1000)]


def _is_a_random_walk(build, n, sigma2):
    summary = _sampled_once(build, path_graph(n), 0, 0.7, sigma2)
    assert summary.counts[1] == 0
    # largest relative errors measured: 2.4e-10 (mean), 1.8e-10 (variance)
    np.testing.assert_allclose(summary.mean, 0.7, rtol=2e-9)
    np.testing.assert_allclose(node_variances(summary), sigma2 + np.arange(n), rtol=2e-9)


@pytest.mark.parametrize("sigma2, n", [
    *_WALKS, *(pytest.param(*case, marks=_ITEM_1) for case in _PRECISE_WALKS)])
def test_a_path_sampled_at_one_end_is_a_random_walk(n, sigma2):
    _is_a_random_walk(fuse, n, sigma2)


@pytest.mark.parametrize("sigma2, n", _WALKS + _PRECISE_WALKS)
def test_a_factored_path_sampled_at_one_end_is_a_random_walk(n, sigma2):
    _is_a_random_walk(factored_fuse, n, sigma2)


@_ITEM_1
def test_the_cli_prints_the_random_walk_of_a_precise_sample(capsys, tmp_path):
    # today node 62 prints "62,0.149294516705,inf"
    graph, signal = tmp_path / "path.edges", tmp_path / "one.csv"
    graph.write_text("".join(f"{k} {k + 1}\n" for k in range(63)))
    signal.write_text("node,value\n0,1\n")
    assert main(["estimate", str(graph), str(signal), "--nodes", "0", "--sigma2", "1e-12"]) == 0
    node, mean, variance = capsys.readouterr().out.splitlines()[63].split(",")
    assert node == "62"
    np.testing.assert_allclose([float(mean), float(variance)], [1.0, 62.0], rtol=2e-9)


def _is_a_brownian_bridge(build):
    n, a, b = 400, 50, 300
    summary = build(smoothness_prior(laplacian(path_graph(n)), 0.0),
                    partial_observation(SamplingOperator(n=n, nodes=(a, b)),
                                        np.array([0.3, -1.1]), 0.0))
    k = np.arange(n)
    bridge = np.where(k < a, a - k, np.where(k > b, k - b, (k - a) * (b - k) / (b - a)))
    variances = node_variances(summary)
    assert variances[a] == variances[b] == 0.0
    # largest errors measured: 4.3e-10 (variance), 6.5e-12 (mean)
    np.testing.assert_allclose(variances, bridge, rtol=0, atol=5e-9)
    np.testing.assert_allclose(summary.mean, 0.3 - 1.4 * (np.clip(k, a, b) - a) / (b - a),
                               rtol=0, atol=5e-11)


def test_a_path_pinned_at_two_nodes_is_a_brownian_bridge_between_them():
    _is_a_brownian_bridge(fuse)


def test_a_factored_path_pinned_at_two_nodes_is_a_brownian_bridge_between_them():
    _is_a_brownian_bridge(factored_fuse)


def _has_the_depth_of_the_lca_as_covariance(build, sigma2):
    rng = np.random.default_rng(7)
    n = 300
    parent = [int(rng.integers(0, v)) for v in range(1, n)]
    graph = Graph(n, [(p, v) for v, p in enumerate(parent, start=1)])
    # ancestors[u, w] = 1 when w != 0 lies on the path from u to the root 0,
    # so (ancestors @ ancestors.T)[u, v] is the depth of their common ancestor
    ancestors = np.zeros((n, n))
    for u in range(1, n):
        w = u
        while w:
            ancestors[u, w] = 1.0
            w = parent[w - 1]
    summary = _sampled_once(build, graph, 0, 2.5, sigma2)
    # largest errors measured: 2.1e-12 (covariance), 5.2e-13 (mean)
    np.testing.assert_allclose(posterior_covariance(summary), sigma2 + ancestors @ ancestors.T,
                               rtol=0, atol=2e-11)
    np.testing.assert_allclose(summary.mean, 2.5, rtol=0, atol=5e-12)


@pytest.mark.parametrize("sigma2", [
    1.0, 1e-3,
    pytest.param(1e-10, marks=_ITEM_1),
    pytest.param(1e-12, marks=_ITEM_1),
])
def test_a_tree_sampled_at_its_root_has_the_depth_of_the_lca_as_covariance(sigma2):
    _has_the_depth_of_the_lca_as_covariance(fuse, sigma2)


@pytest.mark.parametrize("sigma2", [1.0, 1e-3, 1e-10, 1e-12])
def test_a_factored_tree_sampled_at_its_root_has_the_depth_of_the_lca_as_covariance(sigma2):
    _has_the_depth_of_the_lca_as_covariance(factored_fuse, sigma2)


def _exact_case(rng, n, edge_prob):
    """A random graph on ``n`` nodes, connected or not, with disjoint random
    sets of noisy samples and of pins, as ``{node: value}``."""
    graph = random_graph(rng, n, edge_prob=edge_prob)
    order = rng.permutation(n).tolist()
    pinned = int(rng.integers(0, n + 1))
    sampled = int(rng.integers(0, n - pinned + 1))
    values = dict(zip(order, rng.standard_normal(n).tolist()))
    return (graph, {v: values[v] for v in order[pinned:pinned + sampled]},
            {v: values[v] for v in order[:pinned]})


# c of the error model c n RANK_TOL ||P||_inf / lambda_min, set before the
# referee first ran and not to be widened to fit a case
_MODEL_C = 10


# the relative error that the factored summary, which needs no rank cut,
# is held to on every case; not to be widened to fit a case either
_FACTORED_RTOL = 1e-13


def _holds_to_the_exact_posterior(graph, eps, sigma2, samples, pins, build=fuse):
    """``build`` (``fuse`` or ``factored_fuse``) gives the exact class
    counts, and node variances and a mean within ``fuse``'s error model or
    within ``_FACTORED_RTOL``, relative."""
    n = graph.n
    lap = laplacian(graph)
    sampled = SamplingOperator(n=n, nodes=tuple(samples))
    prior = smoothness_prior(lap, eps).combine(
        partial_observation(sampled, np.array(list(samples.values())), sigma2))
    summary = build(prior, partial_observation(SamplingOperator(n=n, nodes=tuple(pins)),
                                               np.array(list(pins.values())), 0.0))
    exact = exact_posterior(graph, eps, sigma2, samples, pins)
    assert summary.counts[1:] == (exact.flat, exact.zero)

    precision = lap + np.diag(eps + np.isin(np.arange(n), sampled.nodes) / sigma2)
    free = np.setdiff1d(np.arange(n), list(pins))
    finite = np.linalg.eigvalsh(precision[np.ix_(free, free)])[exact.flat:]
    bound = _FACTORED_RTOL if build is factored_fuse else (
        _MODEL_C * n * RANK_TOL * np.linalg.norm(precision, np.inf) / finite.min(initial=np.inf))
    variances, expected = node_variances(summary), np.array(exact.variances, dtype=float)
    assert np.array_equal(np.isinf(variances), np.isinf(expected))
    held = np.isfinite(expected)
    assert np.all(np.abs(variances[held] - expected[held]) <= bound * expected[held])
    mean = np.array(exact.mean, dtype=float)
    assert np.linalg.norm(summary.mean - mean) <= bound * np.linalg.norm(mean)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.sampled_from([0.2, 0.5, 0.9]), st.integers(-8, 20),
       st.one_of(st.just(0.0), st.integers(0, 20).map(lambda j: 2.0 ** -j)),
       st.integers(0, 2**32 - 1))
# unobserved isolated nodes, whose eigenvalue eps sits 340 times above the
# cut: few random draws come that close to it
@example(n=12, edge_prob=0.2, k=20, eps=2.0 ** -20, seed=4)
@example(n=12, edge_prob=0.2, k=20, eps=2.0 ** -20, seed=32)
def test_the_three_way_split_is_the_exact_one_within_its_error_model(n, edge_prob, k, eps,
                                                                       seed):
    graph, samples, pins = _exact_case(np.random.default_rng(seed), n, edge_prob)
    _holds_to_the_exact_posterior(graph, eps, 2.0 ** -k, samples, pins)


def test_the_factored_split_is_the_exact_one_on_the_same_cases(monkeypatch):
    # the test above, run again with the referee holding the factored
    # summary: hypothesis derandomizes by the test's own source, so it draws
    # the same 200 cases
    monkeypatch.setitem(globals(), "_holds_to_the_exact_posterior",
                        functools.partial(_holds_to_the_exact_posterior, build=factored_fuse))
    test_the_three_way_split_is_the_exact_one_within_its_error_model()


def _precise_draw(seed):
    """A case of the referee above with n up to 16 and sigma2 = 2**-k for k
    from 21 to 60, far more precise than the prior."""
    rng = np.random.default_rng(seed)
    n, k, j = int(rng.integers(4, 17)), int(rng.integers(21, 61)), int(rng.integers(-1, 21))
    graph, samples, pins = _exact_case(rng, n, float(rng.choice([0.2, 0.5, 0.9])))
    return graph, 0.0 if j < 0 else 2.0 ** -j, 2.0 ** -k, samples, pins


# the seeds of the first 50 precise draws at which fuse files finite
# directions as flat, 1 to 7 of them where there are none
_MISFILED = (4, 9, 10, 13, 31, 41, 42, 43, 46)


@pytest.mark.parametrize("seed", [pytest.param(seed, marks=_ITEM_1) for seed in _MISFILED])
def test_a_precise_sample_leaves_the_split_exact(seed):
    _holds_to_the_exact_posterior(*_precise_draw(seed))


@pytest.mark.parametrize("seed", _MISFILED)
def test_a_precise_sample_leaves_the_factored_split_exact(seed):
    _holds_to_the_exact_posterior(*_precise_draw(seed), build=factored_fuse)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.sampled_from([0.2, 0.5, 0.9]),
       st.sampled_from([0.01, 0.3, 2.0]), st.sampled_from([0.0, 0.05, 1.5]),
       st.integers(0, 2**32 - 1))
def test_node_variances_are_the_bayes_risk_of_the_posterior_mean(n, edge_prob, eps,
                                                                 sigma2, seed):
    rng = np.random.default_rng(seed)
    lap = laplacian(random_graph(rng, n, edge_prob=edge_prob))
    prior = smoothness_prior(lap, eps)
    nodes = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
    op = SamplingOperator(n=n, nodes=tuple(nodes.tolist()))
    summary = fuse(prior, partial_observation(op, np.zeros(nodes.size), sigma2))
    estimator = _estimator_matrix(prior, op, sigma2, summary)

    selection = np.eye(n)[nodes]
    error = estimator @ selection - np.eye(n)
    prior_cov = np.linalg.inv(lap + eps * np.eye(n))
    risk = error @ prior_cov @ error.T + sigma2 * estimator @ estimator.T
    np.testing.assert_allclose(node_variances(summary), risk.diagonal(), rtol=1e-9,
                               atol=1e-9 * prior_cov.diagonal().max())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.sampled_from([0.2, 0.5, 0.9]),
       st.sampled_from([1e-3, 0.3, 1.0, 7.0, 1e3]), st.integers(0, 2**32 - 1))
def test_laplacian_regularized_denoising(n, edge_prob, sigma2, seed):
    rng = np.random.default_rng(seed)
    lap = laplacian(random_graph(rng, n, edge_prob=edge_prob))
    observed = rng.standard_normal(n)
    summary = fuse(smoothness_prior(lap, 0.0), full_observation(observed, sigma2))

    filt = np.eye(n) + sigma2 * lap
    np.testing.assert_allclose(summary.mean, np.linalg.solve(filt, observed), rtol=0,
                               atol=1e-9 * np.abs(observed).max())
    np.testing.assert_allclose(posterior_covariance(summary), sigma2 * np.linalg.inv(filt),
                               rtol=0, atol=1e-9 * sigma2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12), st.sampled_from([0.2, 0.5, 0.9]),
       st.sampled_from([0.0, 0.05, 1.5]), st.sampled_from([0.01, 0.3, 2.0]),
       st.sampled_from([1.0, 1e-6, 1e6]), st.integers(0, 2**32 - 1))
def test_a_proper_posterior_is_the_dense_solve_and_inverse(n, edge_prob, eps, sigma2,
                                                           scale, seed):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n, edge_prob=edge_prob)
    lap = laplacian(graph)
    nodes = set(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
    if eps == 0.0:  # a sample in every component keeps the posterior proper
        nodes |= {int(rng.choice(members)) for members in components(graph)}
    op = SamplingOperator(n=n, nodes=tuple(sorted(nodes)))
    observed = scale * rng.standard_normal(op.n_s)
    summary = fuse(smoothness_prior(lap, eps), partial_observation(op, observed, sigma2))

    selection = np.eye(n)[list(op.nodes)]
    precision = lap + eps * np.eye(n) + selection.T @ selection / sigma2
    mean = np.linalg.solve(precision, selection.T @ observed / sigma2)
    cov = np.linalg.inv(precision)
    assert summary.counts[1:] == (0, 0)
    assert np.linalg.norm(summary.mean - mean) <= 1e-9 * np.linalg.norm(mean)
    assert np.linalg.norm(posterior_covariance(summary) - cov) <= 1e-9 * np.linalg.norm(cov)


@pytest.mark.parametrize("sampling, sigma2", [((3, 8, 14, 21, 27), 0.5),
                                              ((3, 8, 14, 21, 27), 0.0),
                                              (None, 2.0)],
                         ids=["five-samples", "five-samples-noise-free", "full"])
@pytest.mark.parametrize("trials", [2000, 32000])  # 32000 trials: 125 chunks
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_calibration_mse_approaches_the_bayes_risk_at_the_monte_carlo_rate(
        sampling, sigma2, trials, seed):
    report = run_calibration(ExperimentConfig(graph=grid_graph(6, 5), eps=0.1, sigma2=sigma2,
                                              trials=trials, seed=seed, sampling=sampling))
    risky = report.variance > 0
    # noise-free samples are recovered exactly, trial by trial
    assert np.array_equal(~risky, np.isin(np.arange(30), sampling or ()) & (sigma2 == 0))
    assert np.all(report.mse[~risky] == 0.0)
    deviation = np.abs(report.mse[risky] - report.variance[risky])
    assert np.all(deviation <= 5 * np.sqrt(2 / trials) * report.variance[risky])
