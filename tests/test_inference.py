"""Posterior fusion, uncertainty queries, optimization solvers, and
classical subspace reconstruction."""

import math
import warnings

import numpy as np
import pytest

from graphbayes import (
    DegradedRankWarning,
    GaussianBelief,
    Graph,
    InconsistentConstraintsError,
    InfiniteVarianceError,
    NonUniqueSolutionWarning,
    PosteriorSummary,
    SamplingOperator,
    SolverDivergenceError,
    SubspaceBasis,
    bandlimit_basis,
    directional_uncertainty,
    full_observation,
    fuse,
    gft,
    grid_graph,
    is_perfectly_reconstructible,
    laplacian,
    node_variances,
    partial_observation,
    path_graph,
    perfect_reconstruct,
    posterior_covariance,
    quadratic_variation,
    smoothness_prior,
    solve_map,
    spectral_decomposition,
    spectral_uncertainty,
    subspace_prior,
)
from graphbayes import inference
from graphbayes.graph_core import _is_sealed
from graphbayes.inference import RANK_TOL, _conjugate_gradient

from helpers import random_connected_graph, random_graph, two_component_graph

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def p2_setup(sigma2=1.0, eps=0.0, xbar=(1.0, 1.0)):
    lap = laplacian(path_graph(2))
    prior = smoothness_prior(lap, eps)
    obs = full_observation(np.array(xbar), sigma2)
    return lap, fuse(prior, obs)


class TestFuseClosedForm:
    def test_single_edge_unit_noise(self):
        # (I + L)^-1 = [[2, 1], [1, 2]] / 3 by the 2x2 inverse formula
        _, summary = p2_setup()
        np.testing.assert_allclose(summary.mean, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(
            posterior_covariance(summary),
            np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0,
            atol=1e-12,
        )
        assert summary.unique_mean

    @pytest.mark.parametrize("sigma2", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("eps", [0.0, 1e-6])
    def test_random_graphs_match_dense_inversion(self, sigma2, eps):
        rng = np.random.default_rng(42)
        for _ in range(8):
            g = random_graph(rng, int(rng.integers(3, 25)))
            lap = laplacian(g)
            lap_eps = lap + eps * np.eye(g.n)
            xbar = rng.standard_normal(g.n)
            summary = fuse(smoothness_prior(lap, eps), full_observation(xbar, sigma2))
            mean_oracle = np.linalg.solve(np.eye(g.n) + sigma2 * lap_eps, xbar)
            cov_oracle = np.linalg.inv(np.eye(g.n) / sigma2 + lap_eps)
            rel_mean = np.linalg.norm(summary.mean - mean_oracle) / np.linalg.norm(mean_oracle)
            rel_cov = np.linalg.norm(posterior_covariance(summary) - cov_oracle) / np.linalg.norm(cov_oracle)
            assert rel_mean <= 1e-9
            assert rel_cov <= 1e-9

    def test_unobserved_disconnected_node_is_flat(self):
        g = Graph(2, [])
        prior = smoothness_prior(laplacian(g), 0.0)
        obs = partial_observation(SamplingOperator(n=2, nodes=(0,)), np.array([5.0]), 1.0)
        summary = fuse(prior, obs)
        variances = node_variances(summary)
        assert variances[0] == pytest.approx(1.0, abs=1e-12)
        assert variances[1] == math.inf
        assert not summary.unique_mean
        # minimum-norm representative leaves the flat coordinate at zero
        np.testing.assert_allclose(summary.mean, [5.0, 0.0], atol=1e-12)

    def test_subspace_plus_noise_free_samples_collapse_everything(self):
        spec = spectral_decomposition(laplacian(path_graph(2)))
        basis = bandlimit_basis(spec, 0.0)
        prior = subspace_prior(basis, sigma2_prior=0.0)
        obs = partial_observation(SamplingOperator(n=2, nodes=(0,)), np.array([5.0]), 0.0)
        summary = fuse(prior, obs)
        assert summary.cov_basis.shape[1] == 0
        assert summary.null_basis.shape[1] == 0
        assert summary.zero_basis.shape[1] == 2
        np.testing.assert_allclose(summary.mean, [5.0, 5.0], atol=1e-10)

    def test_basis_partition_is_orthonormal_and_complete(self):
        rng = np.random.default_rng(77)
        g = two_component_graph()
        prior = smoothness_prior(laplacian(g), 0.0)
        obs = partial_observation(
            SamplingOperator(n=10, nodes=(0, 3)), rng.standard_normal(2), 0.0
        )
        summary = fuse(prior, obs)
        stacked = np.hstack([summary.cov_basis, summary.null_basis, summary.zero_basis])
        assert stacked.shape == (10, 10)
        np.testing.assert_allclose(stacked.T @ stacked, np.eye(10), atol=1e-10)
        assert np.all(summary.cov_values > 0)

    def test_inconsistent_constraints_raise(self):
        obs_a = partial_observation(SamplingOperator(n=2, nodes=(0,)), np.array([5.0]), 0.0)
        obs_b = partial_observation(SamplingOperator(n=2, nodes=(0,)), np.array([6.0]), 0.0)
        with pytest.raises(InconsistentConstraintsError):
            fuse(obs_a, obs_b)

    def test_indefinite_precision_raises(self):
        # a negative eigenvalue is not a flat direction: it has no Gaussian
        indefinite = GaussianBelief(n=3, precision=np.diag([1.0, -1.0, 2.0]), info=np.zeros(3))
        vacuous = GaussianBelief(n=3, precision=np.zeros((3, 3)), info=np.zeros(3))
        with pytest.raises(ValueError, match="indefinite.*-1.000e\\+00.*tau"):
            fuse(indefinite, vacuous)
        pinned = full_observation(np.zeros(3), 0.0)
        with pytest.raises(ValueError, match="indefinite"):
            fuse(indefinite, GaussianBelief(n=3, precision=np.zeros((3, 3)), info=np.zeros(3),
                                            constraints=pinned.constraints[:1],
                                            targets=pinned.targets[:1]))

    @pytest.mark.parametrize("values, consistent", [
        ((5.0, 6.0), False), ((5e-9, 6e-9), False), ((5e-9, 5e-9), True), ((0.0, 0.0), True),
    ])
    def test_consistency_follows_the_scale_of_the_values(self, values, consistent):
        op = SamplingOperator(n=2, nodes=(0,))
        obs_a, obs_b = (partial_observation(op, np.array([v]), 0.0) for v in values)
        if consistent:
            assert fuse(obs_a, obs_b).mean[0] == pytest.approx(values[0], rel=1e-12)
        else:
            with pytest.raises(InconsistentConstraintsError):
                fuse(obs_a, obs_b)

    def test_zero_precision_is_flat_everywhere(self):
        vacuous = GaussianBelief(n=3, precision=np.zeros((3, 3)), info=np.zeros(3))
        summary = fuse(vacuous, vacuous)
        assert summary.null_basis.shape[1] == 3
        assert summary.cov_basis.shape[1] == 0

    def test_classification_does_not_depend_on_units(self):
        # prior c (L + 1e-3 I), noise variance 1/c: the posterior is proper
        # for every c and its variances scale exactly as 1/c
        lap = laplacian(grid_graph(6, 6))
        observed = np.random.default_rng(7).standard_normal(36)
        scaled = {}
        for c in (1e-12, 1e-11, 1.0, 1e10):
            summary = fuse(smoothness_prior(c * lap, c * 1e-3),
                           full_observation(observed, 1.0 / c))
            assert summary.cov_basis.shape[1] == 36
            scaled[c] = c * node_variances(summary)
        for c, variances in scaled.items():
            np.testing.assert_allclose(variances, scaled[1.0], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n", [256, 1024])
    def test_a_precise_pin_leaves_the_far_end_of_a_path_finite(self, n):
        # node 0 of an eps = 0 path pinned at sigma2 = 1e-6: the posterior
        # is proper, with mean 1 everywhere and variance sigma2 + n - 1 at
        # the far end; a precision spanning about 1e6 n^2 is no reason to
        # call a direction flat
        prior = smoothness_prior(laplacian(path_graph(n)), 0.0)
        obs = partial_observation(SamplingOperator(n=n, nodes=(0,)), np.ones(1), 1e-6)
        summary = fuse(prior, obs)
        assert summary.null_basis.shape[1] == 0
        np.testing.assert_allclose(summary.mean, 1.0, rtol=0, atol=1e-8)
        assert node_variances(summary)[-1] == pytest.approx(n - 1, rel=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            iterative = solve_map(prior, obs, "iterative")
        np.testing.assert_allclose(iterative, summary.mean, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("s", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
    def test_a_stiff_relaxed_subspace_prior_keeps_a_weak_direction_finite(self, s):
        # prior precision about 1/s off the subspace u = (cos t, sin t),
        # sin t = 0.05, and one noisy sample of node 1: the direction along
        # u has precision sin^2 t = 2.5e-3 at every s, so the maximizer is
        # unique for both solvers; below s = 1e-8 the condition number
        # passes 4e11 and CG's forward error reaches about 2e-6
        sin_t = 0.05
        basis = SubspaceBasis(basis=np.array([[np.sqrt(1 - sin_t**2)], [sin_t]]))
        prior = subspace_prior(basis, s)
        obs = partial_observation(SamplingOperator(n=2, nodes=(1,)), np.ones(1), 1.0)
        summary = fuse(prior, obs)
        assert summary.null_basis.shape[1] == 0
        np.testing.assert_allclose(summary.mean, [19.975, 1.0], rtol=1e-3)
        np.testing.assert_allclose(node_variances(summary), [399.0, 1.0], rtol=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            iterative = solve_map(prior, obs, "iterative")
        np.testing.assert_allclose(iterative, summary.mean, rtol=1e-7 if s >= 1e-8 else 1e-5)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_a_dense_rank_one_precision_has_n_minus_one_flat_directions(self, n):
        # the eigenvalues of ones((n, n)) other than n come out of eigh a few
        # ulps of n below zero: flat, not indefinite
        rank_one = GaussianBelief(n=n, precision=np.ones((n, n)), info=np.zeros(n))
        vacuous = GaussianBelief(n=n, precision=np.zeros(n), info=np.zeros(n))
        summary = fuse(rank_one, vacuous)
        assert summary.null_basis.shape[1] == n - 1
        np.testing.assert_allclose(summary.cov_values, [1.0 / n], rtol=1e-12)

    def test_dimension_mismatch(self):
        for fused in (fuse, _iterative_map):
            with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
                fused(full_observation(np.zeros(2), 1.0), full_observation(np.zeros(3), 1.0))


class TestPosteriorAccessors:
    def test_mean_is_linear_estimator(self):
        rng = np.random.default_rng(4)
        lap = laplacian(path_graph(2))
        for _ in range(5):
            xbar = rng.standard_normal(2)
            summary = fuse(smoothness_prior(lap, 0.0), full_observation(xbar, 1.0))
            oracle = np.linalg.solve(np.eye(2) + lap, xbar)
            np.testing.assert_allclose(summary.mean, oracle, atol=1e-12)

    def test_noise_free_full_observation_has_zero_covariance(self):
        lap = laplacian(path_graph(3))
        summary = fuse(smoothness_prior(lap, 0.0), full_observation(np.ones(3), 0.0))
        np.testing.assert_array_equal(posterior_covariance(summary), np.zeros((3, 3)))

    def test_covariance_refuses_flat_directions(self):
        g = Graph(2, [])
        summary = fuse(
            smoothness_prior(laplacian(g), 0.0),
            partial_observation(SamplingOperator(n=2, nodes=(0,)), np.array([1.0]), 1.0),
        )
        with pytest.raises(InfiniteVarianceError):
            posterior_covariance(summary)

    def test_fuse_output_is_sealed_and_shared_by_a_belief(self):
        _, summary = p2_setup()
        fields = ("mean", "cov_basis", "cov_values", "null_basis", "zero_basis")
        assert all(_is_sealed(getattr(summary, name)) for name in fields)
        belief = GaussianBelief(n=2, precision=np.ones(2), info=summary.mean)
        assert belief.info is summary.mean

    def test_a_callers_arrays_are_copied(self):
        mean = np.ones(2)
        summary = PosteriorSummary(mean=mean, cov_basis=np.eye(2), cov_values=np.ones(2),
                                   null_basis=np.zeros((2, 0)), zero_basis=np.zeros((2, 0)))
        mean[0] = 5.0
        np.testing.assert_array_equal(summary.mean, [1.0, 1.0])


class TestDirectionalUncertainty:
    def test_constant_direction_keeps_noise_variance(self):
        for sigma2 in (0.5, 1.0, 3.0):
            _, summary = p2_setup(sigma2=sigma2)
            ones = np.full(2, INV_SQRT2)
            assert directional_uncertainty(summary, ones) == pytest.approx(
                sigma2, abs=1e-12
            )

    def test_alternating_direction_single_edge(self):
        # precision 1/sigma2 + lambda = 1 + 2 along (1,-1)/sqrt(2)
        _, summary = p2_setup(sigma2=1.0)
        z = np.array([INV_SQRT2, -INV_SQRT2])
        assert directional_uncertainty(summary, z) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_normalization_is_internal(self):
        _, summary = p2_setup(sigma2=1.0)
        assert directional_uncertainty(summary, np.array([10.0, -10.0])) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_zero_after_perfect_reconstruction(self):
        spec = spectral_decomposition(laplacian(path_graph(2)))
        prior = subspace_prior(bandlimit_basis(spec, 0.0), sigma2_prior=0.0)
        obs = partial_observation(SamplingOperator(n=2, nodes=(0,)), np.array([5.0]), 0.0)
        summary = fuse(prior, obs)
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = rng.standard_normal(2)
            assert directional_uncertainty(summary, z) == 0.0

    def test_flat_direction_returns_inf(self):
        g = Graph(2, [])
        summary = fuse(
            smoothness_prior(laplacian(g), 0.0),
            partial_observation(SamplingOperator(n=2, nodes=(0,)), np.array([1.0]), 1.0),
        )
        assert directional_uncertainty(summary, np.array([0.0, 1.0])) == math.inf
        assert directional_uncertainty(summary, np.array([1.0, 1.0])) == math.inf

    def test_zero_vector_rejected(self):
        _, summary = p2_setup()
        with pytest.raises(ValueError, match="nonzero"):
            directional_uncertainty(summary, np.zeros(2))

    @pytest.mark.parametrize("power", [-1070, -600, 600, 1000])
    def test_scale_does_not_move_a_bit(self, power):
        # every scaled entry is exact, subnormal ones at 2**-1070 included,
        # while the squared norm of the scaled vector under- or overflows
        lap = laplacian(path_graph(4))
        obs = partial_observation(SamplingOperator(n=4, nodes=(0, 2)), np.ones(2), 0.5)
        summary = fuse(smoothness_prior(lap, 0.0), obs)
        d = np.array([1.0, -2.0, 0.5, 3.0])
        expected = directional_uncertainty(summary, d)
        assert 0.0 < expected < math.inf
        assert directional_uncertainty(summary, d * 2.0**power) == expected

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_flat_direction_is_inf_at_any_scale(self, scale):
        g = Graph(2, [])
        summary = fuse(
            smoothness_prior(laplacian(g), 0.0),
            partial_observation(SamplingOperator(n=2, nodes=(0,)), np.array([1.0]), 1.0),
        )
        assert directional_uncertainty(summary, np.array([0.0, scale])) == math.inf
        assert directional_uncertainty(summary, np.array([scale, scale])) == math.inf

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_direction_rejected(self, bad):
        _, summary = p2_setup()
        with pytest.raises(ValueError, match="direction contains non-finite"):
            directional_uncertainty(summary, np.array([1.0, bad]))

    def test_wrong_length_direction_names_the_shape(self):
        _, summary = p2_setup()
        with pytest.raises(ValueError, match=r"direction must have shape \(2,\), got \(3,\)"):
            directional_uncertainty(summary, np.ones(3))


class TestSpectralUncertainty:
    def test_matches_closed_form_per_mode(self):
        rng = np.random.default_rng(8)
        for sigma2 in (0.5, 3.0):
            g = random_graph(rng, 12)
            lap = laplacian(g)
            spec = spectral_decomposition(lap)
            summary = fuse(
                smoothness_prior(lap, 0.0),
                full_observation(rng.standard_normal(12), sigma2),
            )
            values = spectral_uncertainty(summary, spec)
            expected = 1.0 / (1.0 / sigma2 + spec.values)
            assert np.max(np.abs(values - expected)) <= 1e-10

    def test_noise_free_collapses_all_modes(self):
        lap = laplacian(path_graph(3))
        spec = spectral_decomposition(lap)
        summary = fuse(smoothness_prior(lap, 0.0), full_observation(np.ones(3), 0.0))
        np.testing.assert_array_equal(spectral_uncertainty(summary, spec), np.zeros(3))

    def test_spectrum_of_another_size_rejected(self):
        summary = fuse(smoothness_prior(laplacian(path_graph(3)), 0.0),
                       full_observation(np.ones(3), 1.0))
        spec = spectral_decomposition(laplacian(path_graph(4)))
        with pytest.raises(ValueError, match="spectrum dimension does not match posterior"):
            spectral_uncertainty(summary, spec)

    def test_directional_decomposition_for_random_directions(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, 15)
        lap = laplacian(g)
        spec = spectral_decomposition(lap)
        sigma2 = 1.0
        summary = fuse(
            smoothness_prior(lap, 0.0), full_observation(rng.standard_normal(15), sigma2)
        )
        per_mode = 1.0 / (1.0 / sigma2 + spec.values)
        for _ in range(50):
            z = rng.standard_normal(15)
            z /= np.linalg.norm(z)
            expected = float(per_mode @ gft(spec, z) ** 2)
            assert abs(directional_uncertainty(summary, z) - expected) <= 1e-10


class TestSolveMap:
    def test_closed_form_matches_penalized_least_squares(self):
        # argmin |x - xbar|^2 + sigma2 x'Lx  ==  (I + sigma2 L)^-1 xbar
        rng = np.random.default_rng(21)
        lap = laplacian(path_graph(2))
        for sigma2 in (0.5, 1.0, 3.0):
            xbar = rng.standard_normal(2)
            solution = solve_map(
                smoothness_prior(lap, 0.0), full_observation(xbar, sigma2), "closed_form"
            )
            a, b = 1.0 + sigma2, -sigma2  # rows of I + sigma2 L for one edge
            det = a * a - b * b
            oracle = np.array(
                [(a * xbar[0] - b * xbar[1]) / det, (a * xbar[1] - b * xbar[0]) / det]
            )
            np.testing.assert_allclose(solution, oracle, atol=1e-12)

    def test_iterative_matches_closed_form_when_unique(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(4, 20)))
            lap = laplacian(g)
            xbar = rng.standard_normal(g.n)
            prior = smoothness_prior(lap, 0.0)
            obs = full_observation(xbar, float(rng.uniform(0.3, 3.0)))
            closed = solve_map(prior, obs, "closed_form")
            iterative = solve_map(prior, obs, "iterative")
            rel = np.linalg.norm(iterative - closed) / np.linalg.norm(closed)
            assert rel <= 1e-8

    def test_noise_free_samples_become_hard_constraints(self):
        rng = np.random.default_rng(33)
        g = random_connected_graph(rng, 12)
        lap = laplacian(g)
        op = SamplingOperator(n=12, nodes=(0, 4, 7))
        xbar = rng.standard_normal(3)
        prior = smoothness_prior(lap, 0.0)
        obs = partial_observation(op, xbar, 0.0)
        solution = solve_map(prior, obs, "closed_form")
        np.testing.assert_allclose(solution[list(op.nodes)], xbar, atol=1e-12)
        base = quadratic_variation(lap, solution)
        free = [v for v in range(12) if v not in op.nodes]
        for _ in range(200):
            perturbed = solution.copy()
            perturbed[free] += rng.standard_normal(len(free)) * rng.uniform(0.01, 1.0)
            assert quadratic_variation(lap, perturbed) >= base - 1e-10

    def test_flat_problem_warns_and_matches_ridge_limit(self):
        g = two_component_graph()
        lap = laplacian(g)
        op = SamplingOperator(n=10, nodes=(0, 3))
        xbar = np.array([1.0, -2.0])
        sigma2 = 1.0
        prior = smoothness_prior(lap, 0.0)
        obs = partial_observation(op, xbar, sigma2)
        with pytest.warns(NonUniqueSolutionWarning):
            minimum_norm = solve_map(prior, obs, "iterative")
        # small-ridge oracle: dense solve with eps ~ 0 approaches the
        # minimum-norm solution
        s_mat = np.eye(10)[:, list(op.nodes)]
        ridge = np.linalg.solve(
            s_mat @ s_mat.T / sigma2 + lap + 1e-6 * np.eye(10), s_mat @ xbar / sigma2
        )
        assert np.max(np.abs(ridge - minimum_norm)) <= 1e-4

    def test_closed_form_warns_on_flat_problem(self):
        g = Graph(2, [])
        prior = smoothness_prior(laplacian(g), 0.0)
        obs = partial_observation(SamplingOperator(n=2, nodes=(0,)), np.array([1.0]), 1.0)
        with pytest.warns(NonUniqueSolutionWarning):
            solve_map(prior, obs, "closed_form")

    # data alone scaled by `scale`, or a change of units x -> c x: data
    # times c, the prior's precision over c^2 and sigma2 times c^2
    @pytest.mark.parametrize("scale, units", [
        pytest.param(scale, 1.0, id=str(scale))
        for scale in (1e-200, 1e-160, 1.0, 1e4, 1e6, 1e9, 1e160, 1e300)
    ] + [pytest.param(1.0, c, id=f"units-{c}") for c in (1e-100, 1e-60, 1e60, 1e150)])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_the_uniqueness_verdict_does_not_depend_on_the_units_of_the_data(
            self, scale, units):
        # eps = 0 on a 50-node path sampled at every 7th node and on a
        # 5-node path with no sample, whose constant is flat in any units;
        # a verdict that compares two CG solutions of the data misses it
        # once their forward error outgrows the flat part of the start
        edges = [(i, i + 1) for i in range(49)] + [(i, i + 1) for i in range(50, 54)]
        lap = laplacian(Graph(55, edges))
        prior = smoothness_prior(lap / units**2, 0.0)
        op = SamplingOperator(n=55, nodes=tuple(range(0, 50, 7)))
        data = scale * units * np.arange(1.0, op.n_s + 1)
        obs = partial_observation(op, data, 0.3 * units**2)
        with pytest.warns(NonUniqueSolutionWarning):
            closed = solve_map(prior, obs, "closed_form")
        with pytest.warns(NonUniqueSolutionWarning):
            iterative = solve_map(prior, obs, "iterative")
        np.testing.assert_allclose(iterative, closed, rtol=1e-9, atol=1e-9 * scale * units)

    def test_iteration_cap_reports_divergence(self, monkeypatch):
        rng = np.random.default_rng(40)
        g = random_connected_graph(rng, 12)
        prior = smoothness_prior(laplacian(g), 0.0)
        obs = full_observation(rng.standard_normal(12), 1.0)
        monkeypatch.setattr(inference, "_cg_cap", lambda unknowns: 1)
        with pytest.raises(SolverDivergenceError, match="after 1 iterations"):
            solve_map(prior, obs, "iterative")

    def test_iteration_cap_is_ten_per_unknown_and_at_least_fifty(self):
        assert [inference._cg_cap(k) for k in (1, 5, 6, 100)] == [50, 50, 60, 1000]

    def test_information_off_the_range_stops_cg_on_a_flat_direction(self):
        # info has a component along the flat second coordinate: closed form
        # drops it (pseudo-inverse mean), CG meets the flat direction
        belief = GaussianBelief(n=2, precision=np.diag([1.0, 0.0]), info=np.ones(2))
        zero = GaussianBelief(n=2, precision=np.zeros((2, 2)), info=np.zeros(2))
        with pytest.warns(NonUniqueSolutionWarning):
            closed = solve_map(belief, zero, "closed_form")
        np.testing.assert_array_equal(closed, [1.0, 0.0])
        with pytest.raises(SolverDivergenceError, match="flat direction at iteration 2"):
            solve_map(belief, zero, "iterative")

    @pytest.mark.parametrize("scale, sigma2", [(1e-8, 1e-4), (1e9, 0.3)])
    @pytest.mark.parametrize("seed", range(4))
    def test_information_that_is_rounding_on_the_kernel_has_solution_zero(
            self, scale, sigma2, seed):
        # An exact 3-dim subspace prior whose basis vanishes at node 1, with
        # one more direction seen at node 4: the data at node 1 reach the
        # kernel only as rounding, which CG would meet along a flat
        # direction, while closed form returns the minimum-norm mean
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((8, 3))
        raw[1] = 0.0
        raw[4, 1:] = 0.0
        prior = subspace_prior(SubspaceBasis(np.linalg.qr(raw)[0]), sigma2_prior=0.0)
        obs = partial_observation(SamplingOperator(n=8, nodes=(1, 4)),
                                  np.array([scale, 0.0]), sigma2)
        with pytest.warns(NonUniqueSolutionWarning):
            closed = solve_map(prior, obs, "closed_form")
        with pytest.warns(NonUniqueSolutionWarning):
            iterative = solve_map(prior, obs, "iterative")
        np.testing.assert_allclose(iterative, closed, rtol=1e-9, atol=1e-9 * scale)

    @pytest.mark.parametrize("info", [np.ones(3), np.zeros(3)], ids=["ones", "zeros"])
    @pytest.mark.parametrize("pinned", [False, True], ids=["vacuous", "pinned"])
    @pytest.mark.parametrize("method", ["fuse", "closed_form", "iterative"])
    def test_indefinite_precision_raises_on_every_path(self, info, pinned, method):
        indefinite = GaussianBelief(n=3, precision=np.diag([1.0, -1.0, 2.0]), info=info)
        other = GaussianBelief(n=3, precision=np.zeros((3, 3)), info=np.zeros(3))
        if pinned:
            other = other.combine(partial_observation(SamplingOperator(n=3, nodes=(0,)),
                                                      np.zeros(1), 0.0))
        with pytest.raises(ValueError, match="fused precision is indefinite"):
            if method == "fuse":
                fuse(indefinite, other)
            else:
                solve_map(indefinite, other, method)

    def test_unknown_method(self):
        _, summary = p2_setup()  # noqa: F841 - just to build beliefs cheaply
        lap = laplacian(path_graph(2))
        with pytest.raises(ValueError, match="unknown method"):
            solve_map(smoothness_prior(lap, 0.0), full_observation(np.zeros(2), 1.0), "magic")


def _iterative_map(prior, observation):
    return solve_map(prior, observation, method="iterative")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("fused", [fuse, _iterative_map])
class TestFusedSumChecks:
    """The fused sum is checked as the belief built from it would be, with
    the same messages, on the closed-form and the iterative path."""

    @pytest.mark.parametrize("first, second, message", [
        (np.full((2, 2), 1e308), np.full((2, 2), 1e308),
         "precision contains non-finite entries"),
        (np.eye(2) * 1e308, np.array([1e308, 0.0]),
         "precision contains non-finite entries"),
        (np.array([1e308, 1.0]), np.array([1e308, 1.0]),
         "diagonal precision contains non-finite entries"),
    ])
    def test_overflowing_precision(self, fused, first, second, message):
        a = GaussianBelief(n=2, precision=first, info=np.zeros(2))
        b = GaussianBelief(n=2, precision=second, info=np.zeros(2))
        with pytest.raises(ValueError, match=f"^{message}$"):
            fused(a, b)

    def test_overflowing_information(self, fused):
        a = GaussianBelief(n=2, precision=np.ones(2), info=np.array([1e308, 0.0]))
        with pytest.raises(ValueError, match="^information vector contains non-finite entries$"):
            fused(a, a)


class TestLimitConsistency:
    def test_small_noise_approaches_constraints(self):
        rng = np.random.default_rng(50)
        for _ in range(5):
            g = random_connected_graph(rng, 10)
            lap = laplacian(g)
            op = SamplingOperator(
                n=10, nodes=tuple(int(v) for v in rng.choice(10, size=3, replace=False))
            )
            xbar = rng.standard_normal(3)
            prior = smoothness_prior(lap, 0.0)
            small = fuse(prior, partial_observation(op, xbar, 1e-8)).mean
            exact = fuse(prior, partial_observation(op, xbar, 0.0)).mean
            assert np.max(np.abs(small - exact)) <= 1e-3


class TestMonotonicity:
    def test_extra_sample_never_increases_uncertainty(self):
        rng = np.random.default_rng(60)
        for _ in range(5):
            g = random_graph(rng, 10)
            lap = laplacian(g)
            prior = smoothness_prior(lap, 0.0)
            base_nodes = tuple(int(v) for v in rng.choice(10, size=3, replace=False))
            extra = int(rng.choice([v for v in range(10) if v not in base_nodes]))
            xbar = rng.standard_normal(3)
            base = fuse(
                prior, partial_observation(SamplingOperator(n=10, nodes=base_nodes), xbar, 1.0)
            )
            grown = fuse(
                prior,
                partial_observation(
                    SamplingOperator(n=10, nodes=base_nodes + (extra,)),
                    np.append(xbar, 0.0),
                    1.0,
                ),
            )
            for _ in range(30):
                z = rng.standard_normal(10)
                assert directional_uncertainty(grown, z) <= (
                    directional_uncertainty(base, z) + 1e-10
                )


class TestPerfectReconstruction:
    def test_single_edge_constant_subspace(self):
        spec = spectral_decomposition(laplacian(path_graph(2)))
        basis = bandlimit_basis(spec, 0.0)
        op = SamplingOperator(n=2, nodes=(0,))
        # S'U = [1/sqrt(2)], inverse sqrt(2): coefficients = 5 sqrt(2)
        result = perfect_reconstruct(basis, op, np.array([5.0]))
        np.testing.assert_allclose(result, [5.0, 5.0], atol=1e-12)

    def test_full_basis_full_samples_identity(self):
        basis = SubspaceBasis(basis=np.eye(4))
        op = SamplingOperator.all_nodes(4)
        xbar = np.array([1.0, -2.0, 0.0, 3.5])
        np.testing.assert_allclose(perfect_reconstruct(basis, op, xbar), xbar, atol=0)

    def test_synthesize_then_reconstruct(self):
        rng = np.random.default_rng(70)
        hits = 0
        while hits < 10:
            g = random_graph(rng, int(rng.integers(6, 20)))
            spec = spectral_decomposition(laplacian(g))
            dim = int(rng.integers(1, max(2, g.n // 3)))
            basis = SubspaceBasis(basis=spec.vectors[:, :dim])
            nodes = tuple(int(v) for v in rng.choice(g.n, size=dim, replace=False))
            op = SamplingOperator(n=g.n, nodes=nodes)
            if not is_perfectly_reconstructible(basis, op):
                continue
            hits += 1
            coeffs = rng.standard_normal(dim)
            truth = basis.basis @ coeffs
            rebuilt = perfect_reconstruct(basis, op, truth[list(nodes)])
            assert np.linalg.norm(rebuilt - truth) <= 1e-9 * max(np.linalg.norm(truth), 1.0)

    def test_rank_deficient_falls_back_to_pseudo_inverse(self):
        basis = SubspaceBasis(basis=np.eye(3)[:, :2])  # span{e0, e1}
        op = SamplingOperator(n=3, nodes=(0,))
        with pytest.warns(DegradedRankWarning):
            result = perfect_reconstruct(basis, op, np.array([2.0]))
        np.testing.assert_allclose(result, [2.0, 0.0, 0.0], atol=1e-12)

    def test_needs_at_least_one_sample(self):
        basis = SubspaceBasis(basis=np.eye(2)[:, :1])
        with pytest.raises(ValueError, match="at least one"):
            perfect_reconstruct(basis, SamplingOperator(n=2, nodes=()), np.zeros(0))

    def test_more_samples_than_dimensions_reconstruct_without_warning(self):
        # a 4x4 grid, its one-dimensional constant band and five samples:
        # U[S, :] has full column rank, so the truth comes back exactly
        spec = spectral_decomposition(laplacian(grid_graph(4, 4)))
        basis = bandlimit_basis(spec, 0.5)
        assert basis.dim == 1
        op = SamplingOperator(n=16, nodes=(0, 3, 5, 9, 14))
        assert is_perfectly_reconstructible(basis, op)
        truth = basis.basis @ np.array([2.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rebuilt = perfect_reconstruct(basis, op, truth[list(op.nodes)])
        np.testing.assert_allclose(rebuilt, truth, rtol=0, atol=1e-14)

    def test_warns_exactly_when_not_reconstructible_and_matches_pinv(self):
        # |S| below, equal to and above dim on graphs that may be disconnected,
        # so sampled rows of full and of deficient column rank both occur
        rng = np.random.default_rng(2026)
        seen = set()
        for _ in range(300):
            g = random_graph(rng, int(rng.integers(3, 13)))
            u = spectral_decomposition(laplacian(g)).vectors
            dim = int(rng.integers(1, g.n + 1))
            basis = SubspaceBasis(basis=u[:, :dim])
            size = int(rng.integers(1, g.n + 1))
            nodes = tuple(int(v) for v in rng.choice(g.n, size=size, replace=False))
            op = SamplingOperator(n=g.n, nodes=nodes)
            observed = rng.standard_normal(size)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rebuilt = perfect_reconstruct(basis, op, observed)
            warned = any(issubclass(w.category, DegradedRankWarning) for w in caught)
            reconstructible = is_perfectly_reconstructible(basis, op)
            assert warned is not reconstructible
            # the pseudo-inverse under the solver's rank rule, singular values
            # up to n eps count as 0: numpy's default rcond=1e-15 keeps ones
            # that are rounding noise at these shapes and then returns
            # coefficients near 1e15 (seen once in 9000)
            sampled = basis.basis[list(nodes), :]
            largest = max(np.linalg.norm(sampled, 2), np.finfo(np.float64).tiny)
            rcond = g.n * np.finfo(np.float64).eps / largest
            oracle = basis.basis @ np.linalg.pinv(sampled, rcond=rcond) @ observed
            assert np.linalg.norm(rebuilt - oracle) <= 1e-10 * max(np.linalg.norm(oracle), 1.0)
            seen.add((int(np.sign(size - dim)), reconstructible))
        assert seen == {(-1, False), (0, False), (0, True), (1, False), (1, True)}

    def test_singular_value_at_rounding_level_counts_as_zero(self):
        # U[S, :] is diag(1, 3e-15) over 30 rows of a 32-node basis: its
        # second singular value lies under the cut n eps = 7.1e-15, so the
        # second coefficient is 0, not the 1e-15 / 3e-15 a 1e-15 cut would give
        delta = 3e-15
        u = np.zeros((32, 2))
        u[0, 0], u[1, 1], u[31, 1] = 1.0, delta, np.sqrt(1.0 - delta**2)
        observed = np.zeros(30)
        observed[:2] = 2.0, 1e-15
        with pytest.warns(DegradedRankWarning):
            rebuilt = perfect_reconstruct(SubspaceBasis(basis=u),
                                          SamplingOperator(n=32, nodes=range(30)), observed)
        np.testing.assert_allclose(rebuilt, 2.0 * np.eye(32)[0], rtol=0, atol=1e-15)

    def test_non_finite_observation_rejected(self):
        basis = SubspaceBasis(basis=np.eye(3)[:, :2])
        op = SamplingOperator(n=3, nodes=(0, 1))
        with pytest.raises(ValueError, match="observed vector contains non-finite"):
            perfect_reconstruct(basis, op, np.array([1.0, np.nan]))

    def test_wrong_length_observation_names_the_shape(self):
        basis = SubspaceBasis(basis=np.eye(3)[:, :2])
        with pytest.raises(ValueError, match=r"observed vector must have shape \(2,\)"):
            perfect_reconstruct(basis, SamplingOperator(n=3, nodes=(0, 1)), np.ones(3))


class TestPerfectReconstructibility:
    def test_single_edge_one_sample(self):
        # U[S, :] is the 1x1 matrix [1/sqrt(2)]: its singular value is above the cut
        spec = spectral_decomposition(laplacian(path_graph(2)))
        basis = bandlimit_basis(spec, 0.0)
        assert is_perfectly_reconstructible(basis, SamplingOperator(n=2, nodes=(0,)))

    @staticmethod
    def _tilted(sin_t):
        # the basis u = (cos t, sin t) sampled at node 1: U[S, :] is the
        # 1x1 matrix (sin t), against the cut n RANK_TOL = 4.4e-16
        t = np.arcsin(sin_t)
        return (SubspaceBasis(basis=np.array([[np.cos(t)], [np.sin(t)]])),
                SamplingOperator(n=2, nodes=(1,)))

    @pytest.mark.parametrize("sin_t", [1e-6, 1e-11, 1e-12, 1e-14, 1e-15])
    def test_a_sampled_row_above_rounding_reconstructs_exactly(self, sin_t):
        # 3u comes back exactly, and the noise-free posterior under the
        # exact subspace prior is the point 3u
        basis, op = self._tilted(sin_t)
        truth = 3.0 * basis.basis[:, 0]
        assert is_perfectly_reconstructible(basis, op)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rebuilt = perfect_reconstruct(basis, op, truth[[1]])
        np.testing.assert_array_equal(rebuilt, truth)
        summary = fuse(subspace_prior(basis, 0.0), partial_observation(op, truth[[1]], 0.0))
        assert summary.zero_basis.shape[1] == 2
        assert summary.cov_basis.shape[1] == summary.null_basis.shape[1] == 0

    @pytest.mark.parametrize("sin_t", [1e-16, 1e-17])
    def test_a_sampled_row_at_rounding_level_leaves_a_flat_direction(self, sin_t):
        basis, op = self._tilted(sin_t)
        assert not is_perfectly_reconstructible(basis, op)
        with pytest.warns(DegradedRankWarning):
            perfect_reconstruct(basis, op, np.zeros(1))
        summary = fuse(subspace_prior(basis, 0.0), partial_observation(op, np.zeros(1), 0.0))
        assert summary.null_basis.shape[1] == 1

    def test_holds_exactly_when_the_noise_free_posterior_is_a_point(self):
        # grid Laplacians have repeated eigenvalues and mirror-image nodes,
        # so sampled rows of deficient rank turn up often, with a smallest
        # singular value of a few eps; a cut at max(|S|, dim) eps instead of
        # n eps calls one of them (9 eps, n = 12, |S| = dim = 8) full rank,
        # where fuse keeps a flat direction and the reconstruction is 5% off
        rng = np.random.default_rng(2112)
        seen = set()
        for _ in range(300):
            g = grid_graph(int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            vectors = spectral_decomposition(laplacian(g)).vectors
            dim = int(rng.integers(1, g.n))
            basis = SubspaceBasis(basis=vectors[:, :dim])
            size = int(rng.integers(1, g.n + 1))
            op = SamplingOperator(n=g.n, nodes=tuple(
                int(v) for v in rng.choice(g.n, size=size, replace=False)))
            truth = basis.basis @ rng.standard_normal(dim)
            summary = fuse(subspace_prior(basis, 0.0),
                           partial_observation(op, truth[list(op.nodes)], 0.0))
            point = summary.cov_basis.shape[1] == summary.null_basis.shape[1] == 0
            reconstructible = is_perfectly_reconstructible(basis, op)
            assert reconstructible is point
            seen.add(reconstructible)
        assert seen == {True, False}

    def test_fewer_samples_than_dimensions_fail(self):
        basis = SubspaceBasis(basis=np.eye(4)[:, :3])
        assert not is_perfectly_reconstructible(basis, SamplingOperator(n=4, nodes=(0, 1)))

    def test_empty_sample_set_fails(self):
        spec = spectral_decomposition(laplacian(path_graph(2)))
        basis = bandlimit_basis(spec, 0.0)
        assert not is_perfectly_reconstructible(basis, SamplingOperator(n=2, nodes=()))

    def test_sampling_of_another_size_rejected(self):
        basis = SubspaceBasis(basis=np.eye(3)[:, :1])
        op = SamplingOperator(n=4, nodes=(0,))
        with pytest.raises(ValueError, match="subspace and sampling operator dimensions differ"):
            is_perfectly_reconstructible(basis, op)
        with pytest.raises(ValueError, match="subspace and sampling operator dimensions differ"):
            perfect_reconstruct(basis, op, np.ones(1))

    def test_full_sample_set_always_succeeds(self):
        rng = np.random.default_rng(80)
        g = random_graph(rng, 8)
        spec = spectral_decomposition(laplacian(g))
        basis = bandlimit_basis(spec, float(spec.values[4]))
        assert is_perfectly_reconstructible(basis, SamplingOperator.all_nodes(8))

    def test_agrees_with_fused_posterior_collapse(self):
        rng = np.random.default_rng(90)
        for _ in range(10):
            g = random_graph(rng, 8)
            spec = spectral_decomposition(laplacian(g))
            dim = int(rng.integers(1, 4))
            basis = SubspaceBasis(basis=spec.vectors[:, :dim])
            nodes = tuple(int(v) for v in rng.choice(8, size=dim, replace=False))
            op = SamplingOperator(n=8, nodes=nodes)
            coeffs = rng.standard_normal(dim)
            truth = basis.basis @ coeffs
            reconstructible = is_perfectly_reconstructible(basis, op)
            summary = fuse(
                subspace_prior(basis, sigma2_prior=0.0),
                partial_observation(op, truth[list(nodes)], 0.0),
            )
            collapsed = (
                summary.zero_basis.shape[1] == 8
                and summary.cov_basis.shape[1] == 0
                and summary.null_basis.shape[1] == 0
            )
            assert collapsed == reconstructible
            if reconstructible:
                rebuilt = perfect_reconstruct(basis, op, truth[list(nodes)])
                assert np.max(np.abs(summary.mean - rebuilt)) <= 1e-8


# Reference implementations of the unconstrained paths as they were before
# fuse and solve_map stopped projecting through an identity kernel, and of
# spectral_uncertainty as one directional query per eigenvector.

def _fuse_through_identity_kernel(prior, observation):
    fused = prior.combine(observation)
    n = fused.n
    kernel = np.eye(n)
    particular = np.zeros(n)
    projected = kernel.T @ fused.precision @ kernel
    projected = 0.5 * (projected + projected.T)
    evals, evecs = np.linalg.eigh(projected)
    finite = evals > n * RANK_TOL * np.abs(fused.precision).sum(axis=1).max()
    g = kernel.T @ (fused.info - fused.precision @ particular)
    g_rot = evecs.T @ g
    y = evecs[:, finite] @ (g_rot[finite] / evals[finite])
    return {
        "mean": particular + kernel @ y,
        "cov_basis": kernel @ evecs[:, finite],
        "cov_values": 1.0 / evals[finite],
        "null_basis": kernel @ evecs[:, ~finite],
        "zero_basis": np.zeros((n, 0)),
    }


def _solve_map_through_identity_kernel(prior, observation):
    fused = prior.combine(observation)
    n = fused.n
    kernel = np.eye(n)
    particular = np.zeros(n)
    precision = fused.precision
    rhs = kernel.T @ (fused.info - precision @ particular)

    def apply_op(y):
        return kernel.T @ (precision @ (kernel @ y))

    solution = _conjugate_gradient(apply_op, rhs)
    return particular + kernel @ solution


def _spectral_uncertainty_per_direction(summary, spectrum):
    return np.array([
        directional_uncertainty(summary, spectrum.vectors[:, i])
        for i in range(spectrum.n)
    ])


def _assert_identical(actual, expected):
    # equal values and equal signs of zero: a -0.0 would print as "-0"
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def _unconstrained_cases():
    """(prior, observation): eps=0 with an unobserved flat component, eps>0."""
    rng = np.random.default_rng(91)
    lap = laplacian(two_component_graph())
    hidden = SamplingOperator(n=10, nodes=(0, 1, 2, 3, 4))
    yield (smoothness_prior(lap, 0.0),
           partial_observation(hidden, rng.standard_normal(5), 0.7))
    g = random_graph(rng, 30, edge_prob=0.15)
    some = SamplingOperator(n=30, nodes=tuple(range(0, 30, 3)))
    yield (smoothness_prior(laplacian(g), 0.25),
           partial_observation(some, rng.standard_normal(some.n_s), 1.3))
    yield (smoothness_prior(laplacian(g), 1e-3),
           full_observation(rng.standard_normal(30), 2.0))


class TestUnconstrainedFastPaths:
    def test_fuse_is_identical_to_identity_kernel_projection(self):
        cases = list(_unconstrained_cases())
        assert fuse(*cases[0]).null_basis.shape[1] == 1  # the hidden component
        for prior, obs in cases:
            summary = fuse(prior, obs)
            expected = _fuse_through_identity_kernel(prior, obs)
            for name, value in expected.items():
                _assert_identical(getattr(summary, name), value)
            # same memory layout too, so later products round the same way
            oracle_variances = (expected["cov_basis"] ** 2) @ expected["cov_values"]
            finite = np.isfinite(node_variances(summary))
            _assert_identical(node_variances(summary)[finite], oracle_variances[finite])

    def test_iterative_map_is_identical_to_identity_kernel_cg(self):
        for prior, obs in _unconstrained_cases():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonUniqueSolutionWarning)
                solution = solve_map(prior, obs, "iterative")
            _assert_identical(solution, _solve_map_through_identity_kernel(prior, obs))


class TestBatchedSpectralUncertainty:
    @staticmethod
    def _check(summary, spectrum):
        batched = spectral_uncertainty(summary, spectrum)
        looped = _spectral_uncertainty_per_direction(summary, spectrum)
        np.testing.assert_array_equal(np.isinf(batched), np.isinf(looped))
        finite = np.isfinite(looped)
        # directions fixed by constraints come out as rounding noise near 0,
        # so relative agreement is taken on the scale of the largest variance
        scale = np.max(summary.cov_values, initial=0.0)
        np.testing.assert_allclose(batched[finite], looped[finite],
                                   rtol=1e-12, atol=1e-12 * scale)
        return batched

    def test_flat_component(self):
        lap = laplacian(two_component_graph())
        spec = spectral_decomposition(lap)
        obs = partial_observation(SamplingOperator(n=10, nodes=(0, 2)), np.ones(2), 0.5)
        values = self._check(fuse(smoothness_prior(lap, 0.0), obs), spec)
        assert np.any(np.isinf(values)) and np.any(np.isfinite(values))

    def test_noise_free_subset(self):
        rng = np.random.default_rng(93)
        lap = laplacian(random_connected_graph(rng, 20))
        spec = spectral_decomposition(lap)
        obs = partial_observation(
            SamplingOperator(n=20, nodes=(1, 5, 11, 17)), rng.standard_normal(4), 0.0
        )
        summary = fuse(smoothness_prior(lap, 0.1), obs)
        assert summary.zero_basis.shape[1] == 4
        self._check(summary, spec)

    def test_exact_subspace_prior(self):
        rng = np.random.default_rng(94)
        lap = laplacian(random_connected_graph(rng, 16))
        spec = spectral_decomposition(lap)
        prior = subspace_prior(bandlimit_basis(spec, float(spec.values[5])), 0.0)
        # two samples leave part of the 6-dimensional band unseen; eight see it all
        for nodes, flat in (((0, 9), 4), (tuple(range(0, 16, 2)), 0)):
            op = SamplingOperator(n=16, nodes=nodes)
            summary = fuse(prior, partial_observation(op, np.ones(op.n_s), 1.0))
            assert summary.zero_basis.shape[1] == 10
            assert summary.null_basis.shape[1] == flat
            values = self._check(summary, spec)
            assert np.count_nonzero(np.isinf(values)) >= flat
            assert np.count_nonzero(values > 1e-3) >= 6 - flat
