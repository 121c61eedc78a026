"""Belief constructors and information-form fusion arithmetic."""

import numpy as np
import pytest

from graphbayes import (
    GaussianBelief,
    SamplingOperator,
    SubspaceBasis,
    bandlimit_basis,
    full_observation,
    grid_graph,
    laplacian,
    partial_observation,
    path_graph,
    smoothness_prior,
    spectral_decomposition,
    subspace_prior,
)

from helpers import random_graph

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def p2_laplacian():
    return laplacian(path_graph(2))


class TestSmoothnessPrior:
    def test_zero_eps_precision_is_laplacian(self):
        lap = p2_laplacian()
        prior = smoothness_prior(lap, 0.0)
        np.testing.assert_array_equal(prior.precision, lap)
        np.testing.assert_array_equal(prior.info, np.zeros(2))
        assert prior.constraints.shape == (0, 2)
        assert prior.targets.shape == (0,)

    def test_small_eps_adds_ridge(self):
        lap = p2_laplacian()
        prior = smoothness_prior(lap, 1e-6)
        np.testing.assert_allclose(prior.precision, lap + 1e-6 * np.eye(2), atol=0)

    def test_zero_laplacian_gives_vacuous_belief(self):
        prior = smoothness_prior(np.zeros((3, 3)), 0.0)
        np.testing.assert_array_equal(prior.precision, np.zeros((3, 3)))

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            smoothness_prior(p2_laplacian(), -1e-9)


class TestBandlimitBasis:
    def test_single_edge_dc_component(self):
        spec = spectral_decomposition(p2_laplacian())
        basis = bandlimit_basis(spec, 0.0, tol=1e-9)
        np.testing.assert_allclose(basis.basis[:, 0], [INV_SQRT2, INV_SQRT2], atol=1e-12)
        assert basis.dim == 1

    def test_bandlimit_above_spectrum_spans_everything(self):
        rng = np.random.default_rng(23)
        g = random_graph(rng, 8)
        spec = spectral_decomposition(laplacian(g))
        basis = bandlimit_basis(spec, float(spec.values[-1]), tol=1e-9)
        assert basis.dim == 8

    def test_path3_keeps_two_lowest_modes(self):
        spec = spectral_decomposition(laplacian(path_graph(3)))
        basis = bandlimit_basis(spec, 1.5, tol=0.0)
        assert basis.dim == 2
        np.testing.assert_allclose(basis.basis, spec.vectors[:, :2], atol=0)

    def test_empty_selection_rejected(self):
        spec = spectral_decomposition(p2_laplacian())
        with pytest.raises(ValueError, match="no eigenvalues"):
            bandlimit_basis(spec, -1.0, tol=0.0)


class TestSubspacePrior:
    def test_relaxed_form_is_complement_projector(self):
        ones = SubspaceBasis(basis=np.array([[INV_SQRT2], [INV_SQRT2]]))
        prior = subspace_prior(ones, sigma2_prior=1.0, eps=0.0)
        np.testing.assert_allclose(
            prior.precision, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-14
        )
        assert prior.constraints.shape == (0, 2)

    def test_relaxed_quadratic_forms(self):
        # precision carries eps/sigma2 on the subspace, (1+eps)/sigma2 off it
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((6, 2))
        q, _ = np.linalg.qr(raw)
        basis = SubspaceBasis(basis=q)
        sigma2, eps = 0.7, 1e-3
        prior = subspace_prior(basis, sigma2_prior=sigma2, eps=eps)
        inside = q @ np.array([0.6, -0.8])
        assert inside @ prior.precision @ inside == pytest.approx(eps / sigma2, abs=1e-12)
        outside = rng.standard_normal(6)
        outside -= q @ (q.T @ outside)
        outside /= np.linalg.norm(outside)
        assert outside @ prior.precision @ outside == pytest.approx(
            (1 + eps) / sigma2, abs=1e-12
        )

    def test_exact_limit_constrains_complement(self):
        ones = SubspaceBasis(basis=np.array([[INV_SQRT2], [INV_SQRT2]]))
        prior = subspace_prior(ones, sigma2_prior=0.0)
        np.testing.assert_array_equal(prior.precision, np.zeros((2, 2)))
        assert prior.constraints.shape == (1, 2)
        row, value = prior.constraints[0], prior.targets[0]
        assert value == 0.0
        # the complement of span{(1,1)} is spanned by (1,-1)/sqrt(2), up to sign
        assert abs(abs(row @ np.array([INV_SQRT2, -INV_SQRT2])) - 1.0) <= 1e-12

    def test_full_span_exact_limit_is_vacuous(self):
        basis = SubspaceBasis(basis=np.eye(3))
        prior = subspace_prior(basis, sigma2_prior=0.0)
        assert prior.constraints.shape == (0, 3)
        assert prior.targets.shape == (0,)
        np.testing.assert_array_equal(prior.precision, np.zeros((3, 3)))

    def test_exact_limit_complement_matches_scipy_null_space(self):
        null_space = pytest.importorskip("scipy.linalg").null_space
        bases = [
            bandlimit_basis(spectral_decomposition(laplacian(grid_graph(w, w))), band)
            for w, band in ((4, 0.5), (8, 0.5), (8, 2.0), (16, 0.5), (16, 1.0))
        ]
        bases.append(SubspaceBasis(basis=np.eye(5)))
        for subspace in bases:
            prior = subspace_prior(subspace, sigma2_prior=0.0)
            rows = prior.constraints
            reference = null_space(subspace.basis.T)
            assert rows.shape == reference.T.shape
            np.testing.assert_allclose(
                rows.T @ rows, reference @ reference.T, rtol=0, atol=1e-12
            )

    def test_negative_parameters_rejected(self):
        ones = SubspaceBasis(basis=np.array([[INV_SQRT2], [INV_SQRT2]]))
        with pytest.raises(ValueError):
            subspace_prior(ones, sigma2_prior=-1.0)
        with pytest.raises(ValueError):
            subspace_prior(ones, sigma2_prior=1.0, eps=-0.5)


class TestFullObservation:
    def test_unit_noise(self):
        xbar = np.array([2.0, -1.0])
        obs = full_observation(xbar, 1.0)
        np.testing.assert_array_equal(obs.precision, np.eye(2))
        np.testing.assert_array_equal(obs.info, xbar)

    def test_noise_free_pins_every_node(self):
        xbar = np.array([2.0, -1.0])
        obs = full_observation(xbar, 0.0)
        np.testing.assert_array_equal(obs.constraints, np.eye(2))
        np.testing.assert_array_equal(obs.targets, xbar)

    def test_information_vector_scaling(self):
        obs = full_observation(np.array([1.0, 2.0]), 3.0)
        np.testing.assert_allclose(obs.info, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)

    def test_negative_sigma2_rejected(self):
        with pytest.raises(ValueError):
            full_observation(np.zeros(2), -0.1)


class TestPartialObservation:
    def test_single_node_lift(self):
        op = SamplingOperator(n=2, nodes=(0,))
        obs = partial_observation(op, np.array([5.0]), 1.0)
        np.testing.assert_array_equal(obs.precision, np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(obs.info, [5.0, 0.0])

    def test_noise_free_single_constraint(self):
        op = SamplingOperator(n=2, nodes=(0,))
        obs = partial_observation(op, np.array([5.0]), 0.0)
        np.testing.assert_array_equal(obs.constraints, [[1.0, 0.0]])
        np.testing.assert_array_equal(obs.targets, [5.0])

    @pytest.mark.parametrize("sigma2", [0.5, 1.0, 3.0])
    def test_all_nodes_equals_full_observation(self, sigma2):
        rng = np.random.default_rng(31)
        xbar = rng.standard_normal(6)
        partial = partial_observation(SamplingOperator.all_nodes(6), xbar, sigma2)
        full = full_observation(xbar, sigma2)
        assert np.max(np.abs(partial.precision - full.precision)) <= 1e-12
        assert np.max(np.abs(partial.info - full.info)) <= 1e-12

    def test_all_nodes_noise_free_equals_full_observation(self):
        xbar = np.array([1.0, -2.0, 0.5])
        partial = partial_observation(SamplingOperator.all_nodes(3), xbar, 0.0)
        full = full_observation(xbar, 0.0)
        np.testing.assert_array_equal(partial.constraints, full.constraints)
        np.testing.assert_array_equal(partial.targets, full.targets)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SamplingOperator(n=4, nodes=(1, 1))

    def test_length_mismatch(self):
        op = SamplingOperator(n=4, nodes=(0, 2))
        with pytest.raises(ValueError):
            partial_observation(op, np.array([1.0]), 1.0)


class TestFusionAdditivity:
    def test_precision_and_information_add(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            a_raw = rng.standard_normal((n, n))
            b_raw = rng.standard_normal((n, n))
            a = GaussianBelief(n=n, precision=a_raw @ a_raw.T, info=rng.standard_normal(n))
            b = GaussianBelief(n=n, precision=b_raw @ b_raw.T, info=rng.standard_normal(n))
            fused = a.combine(b)
            assert np.max(np.abs(fused.precision - (a.precision + b.precision))) <= 1e-12
            assert np.max(np.abs(fused.info - (a.info + b.info))) <= 1e-12

    def test_constraints_concatenate(self):
        a = full_observation(np.array([1.0, 2.0]), 0.0)
        b = partial_observation(SamplingOperator(n=2, nodes=(1,)), np.array([2.0]), 0.0)
        fused = a.combine(b)
        np.testing.assert_array_equal(fused.constraints, [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(fused.targets, [1.0, 2.0, 2.0])

    def test_dimension_mismatch(self):
        a = full_observation(np.zeros(2), 1.0)
        b = full_observation(np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            a.combine(b)


class TestOperatorTypes:
    def test_out_of_range_node(self):
        with pytest.raises(ValueError, match="out of range"):
            SamplingOperator(n=3, nodes=(3,))

    def test_subspace_requires_orthonormal_columns(self):
        with pytest.raises(ValueError, match="orthonormal"):
            SubspaceBasis(basis=np.array([[1.0], [1.0]]))

    @pytest.mark.parametrize("constraints, targets, match", [
        (np.ones((1, 3)), np.zeros(1), "finite \\(k, 2\\) array"),
        (np.ones(2), np.zeros(1), "finite \\(k, 2\\) array"),
        (np.array([[1.0, np.nan]]), np.zeros(1), "finite \\(k, 2\\) array"),
        (np.ones((2, 2)), np.zeros(1), "constraint targets must have shape \\(2,\\)"),
        (np.ones((1, 2)), None, "constraint targets must have shape \\(1,\\)"),
        (None, np.zeros(1), "constraint targets must have shape \\(0,\\)"),
        (np.ones((1, 2)), np.array([np.inf]), "constraint targets contains non-finite"),
    ])
    def test_belief_rejects_malformed_constraints(self, constraints, targets, match):
        with pytest.raises(ValueError, match=match):
            GaussianBelief(n=2, precision=np.zeros((2, 2)), info=np.zeros(2),
                           constraints=constraints, targets=targets)

    def test_belief_constraints_are_read_only(self):
        obs = full_observation(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError, match="read-only"):
            obs.constraints[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            obs.targets[0] = 5.0

    def test_belief_requires_symmetric_precision(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianBelief(n=2, precision=np.array([[1.0, 0.5], [0.0, 1.0]]), info=np.zeros(2))
