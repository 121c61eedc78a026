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
"""

import numpy as np
import pytest

from graphbayes import (
    SamplingOperator,
    SubspaceBasis,
    fuse,
    grid_graph,
    laplacian,
    partial_observation,
    posterior_covariance,
    smoothness_prior,
    spectral_decomposition,
    subspace_prior,
)

from helpers import random_connected_graph, random_graph


def _components(graph):
    """Connected components as lists of node ids, by depth-first search."""
    neighbours = {v: [] for v in range(graph.n)}
    for i, j in graph.edges:
        neighbours[i].append(j)
        neighbours[j].append(i)
    label = [-1] * graph.n
    components = []
    for start in range(graph.n):
        if label[start] >= 0:
            continue
        label[start] = len(components)
        stack, members = [start], []
        while stack:
            v = stack.pop()
            members.append(v)
            for w in neighbours[v]:
                if label[w] < 0:
                    label[w] = label[start]
                    stack.append(w)
        components.append(sorted(members))
    return components


def _projector(basis):
    return basis @ basis.T


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
    assert summary.null_basis.shape[1] == 0
    assert summary.zero_basis.shape[1] == pinned.size
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
    assert summary.null_basis.shape[1] == 0
    assert summary.cov_basis.shape[1] == dim
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
    for members in _components(graph):
        if not np.isin(members, observed).any():
            column = np.zeros(n)
            column[members] = 1.0 / np.sqrt(len(members))
            indicators.append(column)
    expected = np.array(indicators).reshape(-1, n).T

    summary = fuse(smoothness_prior(laplacian(graph), 0.0),
                   partial_observation(SamplingOperator(n=n, nodes=tuple(observed.tolist())),
                                       rng.standard_normal(observed.size), sigma2))
    assert summary.null_basis.shape == expected.shape
    np.testing.assert_allclose(_projector(summary.null_basis), _projector(expected),
                               rtol=0, atol=1e-10)
