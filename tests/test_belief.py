"""Belief constructors and information-form fusion arithmetic."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphbayes
from graphbayes import (
    GaussianBelief,
    SamplingOperator,
    Spectrum,
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
        basis = bandlimit_basis(spec, 0.0)
        np.testing.assert_allclose(basis.basis[:, 0], [INV_SQRT2, INV_SQRT2], atol=1e-12)
        assert basis.dim == 1

    def test_bandlimit_above_spectrum_spans_everything(self):
        rng = np.random.default_rng(23)
        g = random_graph(rng, 8)
        spec = spectral_decomposition(laplacian(g))
        basis = bandlimit_basis(spec, float(spec.values[-1]))
        assert basis.dim == 8

    def test_path3_keeps_two_lowest_modes(self):
        spec = spectral_decomposition(laplacian(path_graph(3)))
        basis = bandlimit_basis(spec, 1.5)
        assert basis.dim == 2
        np.testing.assert_allclose(basis.basis, spec.vectors[:, :2], atol=0)

    def test_empty_selection_rejected(self):
        spec = spectral_decomposition(p2_laplacian())
        with pytest.raises(ValueError, match="no eigenvalues"):
            bandlimit_basis(spec, -1.0)

    def test_cut_is_the_rank_rule_above_the_bandlimit(self):
        # n RANK_TOL max|value| = 20 ulp of 1 here: an eigenvalue 10 ulp above
        # the bandlimit is the bandlimit's own, one 40 ulp above is not
        ulp = np.finfo(np.float64).eps
        values = np.array([0.0, 1.0, 1.0 + 10 * ulp, 1.0 + 40 * ulp, 4.0])
        basis = bandlimit_basis(Spectrum(vectors=np.eye(5), values=values), 1.0)
        np.testing.assert_array_equal(basis.basis, np.eye(5)[:, :3])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(exponent=st.floats(-12.0, 12.0))
    @example(exponent=-10.0)
    def test_same_columns_in_any_units(self, exponent):
        # scaling a spectrum and its bandlimit together moves no eigenvalue
        # across the cut; at 1e-10 an absolute cut of 1e-9 keeps all 16 columns
        spec = spectral_decomposition(laplacian(grid_graph(4, 4)))
        scale = 10.0 ** exponent
        scaled = Spectrum(vectors=spec.vectors, values=spec.values * scale)
        basis = bandlimit_basis(scaled, 0.6 * scale)
        np.testing.assert_array_equal(basis.basis, spec.vectors[:, :3])


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
        np.testing.assert_array_equal(prior.precision, np.zeros(2))
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
        np.testing.assert_array_equal(prior.precision, np.zeros(3))

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

    def test_exact_limit_refuses_a_ridge(self):
        # with eps > 0 the relaxed form pins every direction as sigma2_prior
        # falls to 0, so the exact prior cannot drop eps for the complement
        with pytest.raises(ValueError, match="^eps applies to sigma2_prior > 0 only, got eps=0.5"):
            _subspace_prior_of_ones(sigma2_prior=0.0, eps=0.5)


def _subspace_prior_of_ones(**kwargs):
    return subspace_prior(SubspaceBasis(basis=np.full((2, 1), INV_SQRT2)), **kwargs)


# each scalar parameter, by the name its error message gives, and a call taking it
SCALAR_CALLS = [
    ("eps", lambda v: smoothness_prior(p2_laplacian(), v)),
    ("sigma2_prior", lambda v: _subspace_prior_of_ones(sigma2_prior=v)),
    ("eps", lambda v: _subspace_prior_of_ones(sigma2_prior=1.0, eps=v)),
    ("sigma2", lambda v: partial_observation(SamplingOperator(n=2, nodes=(0,)), np.ones(1), v)),
]


class TestScalarParameters:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-9])
    @pytest.mark.parametrize("name, call", SCALAR_CALLS)
    def test_non_finite_or_negative_rejected(self, name, call, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative"):
            call(bad)


class TestFullObservation:
    def test_unit_noise(self):
        xbar = np.array([2.0, -1.0])
        obs = full_observation(xbar, 1.0)
        np.testing.assert_array_equal(obs.precision, np.ones(2))
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
        np.testing.assert_array_equal(obs.precision, [1.0, 0.0])
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

    def test_non_integer_node_id_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match="node id must be an integer, got 1.7"):
            SamplingOperator(n=3, nodes=(1.7,))

    def test_numpy_integer_node_ids_become_ints(self):
        op = SamplingOperator(n=np.int64(3), nodes=(np.int16(2), np.uint32(0)))
        assert op.nodes == (2, 0)
        assert all(type(v) is int for v in op.nodes)

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

    def test_a_dense_plus_diagonal_sum_is_checked_for_symmetry_once(self, monkeypatch):
        prior = smoothness_prior(laplacian(grid_graph(3, 3)), 0.1)
        obs = partial_observation(SamplingOperator(n=9, nodes=(0, 4)), np.ones(2), 0.5)
        calls = []
        original = graphbayes.graph_core._require_symmetric

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)

        for module in (graphbayes.graph_core, graphbayes.belief, graphbayes.inference):
            if getattr(module, "_require_symmetric", None) is original:
                monkeypatch.setattr(module, "_require_symmetric", counted)
        prior.combine(obs)
        assert calls == [(9, 9)]


class TestOperatorTypes:
    def test_out_of_range_node(self):
        with pytest.raises(ValueError, match="out of range"):
            SamplingOperator(n=3, nodes=(3,))

    def test_subspace_requires_orthonormal_columns(self):
        with pytest.raises(ValueError, match="orthonormal"):
            SubspaceBasis(basis=np.array([[1.0], [1.0]]))

    def test_subspace_rejects_a_nan_basis(self):
        with pytest.raises(ValueError, match="not orthonormal \\(defect nan\\)"):
            SubspaceBasis(basis=np.array([[np.nan], [1.0]]))

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

    @pytest.mark.parametrize("precision, match", [
        (np.eye(2), "^precision must be 3x3$"),
        (np.ones(2), "^diagonal precision must have shape \\(3,\\), got \\(2,\\)$"),
    ])
    def test_belief_rejects_a_precision_of_the_wrong_shape(self, precision, match):
        with pytest.raises(ValueError, match=match):
            GaussianBelief(n=3, precision=precision, info=np.zeros(3))

    def test_subspace_rejects_a_one_dimensional_basis(self):
        with pytest.raises(ValueError, match="basis must be a 2-d array with at least one column"):
            SubspaceBasis(basis=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_symmetry_tolerance_scales_with_the_matrix(self, scale):
        rng = np.random.default_rng(61)
        m = rng.standard_normal((30, 30))
        # rounding leaves (M D) M' asymmetric by about 1e-15 of its entries
        mat = (m @ np.diag(scale * rng.uniform(1.0, 2.0, 30))) @ m.T
        assert np.max(np.abs(mat - mat.T)) > 0
        GaussianBelief(n=30, precision=mat, info=np.zeros(30))
        mat[0, 1] += 1e-9 * np.max(np.abs(mat))
        with pytest.raises(ValueError, match="precision is not symmetric"):
            GaussianBelief(n=30, precision=mat, info=np.zeros(30))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_dense_precision_with_non_finite_entries_rejected(self, bad, where):
        prec = np.eye(2)
        prec[where] = prec[where[::-1]] = bad
        with pytest.raises(ValueError, match="precision contains non-finite entries"):
            GaussianBelief(n=2, precision=prec, info=np.zeros(2))


class TestDiagonalPrecision:
    def test_dense_plus_diagonal_matches_the_dense_sum_bit_for_bit(self):
        rng = np.random.default_rng(47)
        raw = rng.standard_normal((6, 6))
        dense = raw + raw.T
        dense[0, 1] = dense[1, 0] = -0.0
        dense[2, 2] = dense[4, 4] = -0.0
        dense[3, 3] = 0.0
        # -0.0 meets -0.0, +0.0 and a nonzero on the diagonal, and +0.0 meets -0.0
        diag = np.array([-0.0, 1.5, -0.0, -0.0, 0.0, 2.0])
        a = GaussianBelief(n=6, precision=dense, info=np.zeros(6))
        b = GaussianBelief(n=6, precision=diag, info=np.zeros(6))
        expected = (dense + np.diag(diag)).tobytes()
        assert a.combine(b).precision.tobytes() == expected
        assert b.combine(a).precision.tobytes() == expected

    def test_two_diagonals_add_as_a_vector(self):
        a = GaussianBelief(n=3, precision=np.array([1.0, 0.0, 2.0]), info=np.zeros(3))
        b = partial_observation(SamplingOperator(n=3, nodes=(1, 2)), np.ones(2), 0.5)
        np.testing.assert_array_equal(a.combine(b).precision, [1.0, 2.0, 4.0])

    @pytest.mark.parametrize("bad", [-1e-300, -1.0, np.nan, np.inf, -np.inf])
    def test_negative_or_non_finite_diagonal_rejected(self, bad):
        with pytest.raises(ValueError, match="diagonal precision"):
            GaussianBelief(n=3, precision=np.array([1.0, bad, 0.0]), info=np.zeros(3))

    def test_diagonal_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match=r"diagonal precision must have shape \(2,\)"):
            GaussianBelief(n=2, precision=np.ones(3), info=np.zeros(2))

    def test_zero_eps_prior_shares_the_laplacian(self):
        lap = laplacian(grid_graph(4, 3))
        prior = smoothness_prior(lap, 0.0)
        assert prior.precision is lap
        # a writable Laplacian could change under the prior: it is copied
        writable = np.array(lap)
        assert not np.shares_memory(smoothness_prior(writable, 0.0).precision, writable)

    def test_a_callers_read_only_array_is_copied(self):
        # read-only now, but writable through an earlier view or by turning
        # writes back on: the belief must not share it
        mat = np.eye(3)
        view = mat[:]
        mat.setflags(write=False)
        belief = GaussianBelief(n=3, precision=mat, info=np.zeros(3))
        view[0, 1] = 5.0
        np.testing.assert_array_equal(belief.precision, np.eye(3))
        diag = np.ones(3)
        diag.setflags(write=False)
        belief = GaussianBelief(n=3, precision=diag, info=np.zeros(3))
        diag.setflags(write=True)
        diag[0] = 7.0
        np.testing.assert_array_equal(belief.precision, np.ones(3))

    def test_a_belief_shares_another_beliefs_arrays(self):
        obs = partial_observation(SamplingOperator(n=3, nodes=(1, 2)), np.ones(2), 0.5)
        again = GaussianBelief(n=3, precision=obs.precision, info=obs.info)
        assert again.precision is obs.precision and again.info is obs.info

    def test_ridge_prior_matches_adding_a_scaled_identity_bit_for_bit(self):
        lap = laplacian(grid_graph(4, 3))
        prior = smoothness_prior(lap, 0.3)
        assert prior.precision.tobytes() == (lap + 0.3 * np.eye(12)).tobytes()
