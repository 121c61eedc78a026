"""Seeded draws, observation noise, and Monte Carlo calibration."""

import numpy as np
import pytest

from graphbayes import (
    CounterRng,
    ExperimentConfig,
    SamplingOperator,
    draw_prior_signal,
    full_observation,
    fuse,
    laplacian,
    observe,
    path_graph,
    grid_graph,
    partial_observation,
    random_geometric_graph,
    render_report_csv,
    run_calibration,
    smoothness_prior,
    spectral_decomposition,
)
from graphbayes import _kernels, _rng
from graphbayes.simulate import _estimator_matrix

from helpers import two_component_graph


@pytest.fixture
def p2_spectrum():
    return spectral_decomposition(laplacian(path_graph(2)))


class TestCounterStreams:
    def test_fixed_seed_is_bit_identical(self):
        a = CounterRng(123, stream=4).normals(100)
        b = CounterRng(123, stream=4).normals(100)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = CounterRng(123, stream=0).normals(100)
        b = CounterRng(123, stream=1).normals(100)
        assert np.max(np.abs(a - b)) > 0.1

    def test_consecutive_draws_advance_cursor(self):
        rng = CounterRng(9)
        first = rng.normals(4)
        second = rng.normals(4)
        assert np.max(np.abs(first - second)) > 0

    def test_uniforms_stay_inside_open_interval(self):
        u = _rng.uniforms(_rng.stream_key(7, 0), 0, 100000)
        assert np.all(u > 0.0)
        assert np.all(u < 1.0)
        assert abs(np.mean(u) - 0.5) < 0.005

    def test_vectorized_keys_match_scalar_path(self):
        keys = _rng.stream_keys(99, 0, 50)
        for t in range(50):
            assert int(keys[t]) == _rng.stream_key(99, t)

    def test_block_normals_match_per_stream_normals(self):
        keys = _rng.stream_keys(5, 0, 8)
        block = _rng.normals_block(keys, 0, 7)
        for t in range(8):
            row = _rng.normals(_rng.stream_key(5, t), 0, 7)
            np.testing.assert_allclose(block[t], row, rtol=0, atol=1e-15)

    def test_moment_sanity(self):
        z = _rng.normals_block(_rng.stream_keys(11, 0, 200), 0, 500).ravel()
        assert abs(np.mean(z)) < 0.01
        assert abs(np.std(z) - 1.0) < 0.01


class TestDrawPriorSignal:
    def test_fixed_seed_reproducible(self, p2_spectrum):
        x1 = draw_prior_signal(p2_spectrum, 0.1, CounterRng(3, stream=0))
        x2 = draw_prior_signal(p2_spectrum, 0.1, CounterRng(3, stream=0))
        np.testing.assert_array_equal(x1, x2)

    def test_requires_positive_eps(self, p2_spectrum):
        with pytest.raises(ValueError, match="positive"):
            draw_prior_signal(p2_spectrum, 0.0, CounterRng(3))

    def test_empirical_covariance_matches_regularized_inverse(self, p2_spectrum):
        # sample covariance over 1e5 draws against the dense inverse oracle
        eps = 0.1
        lap = laplacian(path_graph(2))
        oracle = np.linalg.inv(lap + eps * np.eye(2))
        draws = 100_000
        # spot-check that the vectorized bulk path reproduces the public op
        keys = _rng.stream_keys(2024, 0, draws)
        xi = _rng.normals_block(keys, 0, 2)
        signals = (xi / np.sqrt(p2_spectrum.values + eps)) @ p2_spectrum.vectors.T
        for t in (0, 1, 777):
            direct = draw_prior_signal(p2_spectrum, eps, CounterRng(2024, stream=t))
            np.testing.assert_allclose(signals[t], direct, atol=1e-12)
        sample_cov = signals.T @ signals / draws
        assert np.max(np.abs(sample_cov - oracle) / np.abs(oracle)) < 0.03

    def test_expected_smoothness_energy(self, p2_spectrum):
        # E[x'Lx] = sum_i value_i / (value_i + eps)
        eps = 0.1
        lap = laplacian(path_graph(2))
        expected = float(np.sum(p2_spectrum.values / (p2_spectrum.values + eps)))
        keys = _rng.stream_keys(77, 0, 100_000)
        xi = _rng.normals_block(keys, 0, 2)
        signals = (xi / np.sqrt(p2_spectrum.values + eps)) @ p2_spectrum.vectors.T
        energies = np.einsum("ti,ij,tj->t", signals, lap, signals)
        assert abs(np.mean(energies) - expected) / expected < 0.05


class TestObserve:
    def test_noiseless_observation_is_exact_restriction(self):
        x = np.array([1.0, -2.0, 3.0])
        op = SamplingOperator(n=3, nodes=(2, 0))
        out = observe(x, 0.0, op, CounterRng(5))
        np.testing.assert_array_equal(out, [3.0, 1.0])

    def test_full_observation_noise_variance(self):
        x = np.zeros(2)
        draws = 100_000
        keys = _rng.stream_keys(31, 0, draws)
        noise = np.sqrt(2.5) * _rng.normals_block(keys, 0, 2)
        # same stream positions as observe() consuming after no signal draw
        for t in (0, 5):
            direct = observe(x, 2.5, None, CounterRng(31, stream=t))
            np.testing.assert_allclose(direct, noise[t], atol=1e-12)
        assert abs(np.var(noise.ravel()) - 2.5) / 2.5 < 0.03

    def test_reproducibility(self):
        x = np.ones(4)
        a = observe(x, 1.0, None, CounterRng(8, stream=2))
        b = observe(x, 1.0, None, CounterRng(8, stream=2))
        np.testing.assert_array_equal(a, b)

    def test_negative_sigma2_rejected(self):
        with pytest.raises(ValueError):
            observe(np.zeros(2), -1.0, None, CounterRng(1))


class TestRunCalibration:
    def test_single_edge_mse_matches_posterior_variance(self):
        # posterior variance diagonal is 2/3 per node (+O(eps))
        cfg = ExperimentConfig(
            graph=path_graph(2), eps=1e-6, sigma2=1.0, trials=10_000, seed=11
        )
        report = run_calibration(cfg)
        np.testing.assert_allclose(report.variance, 2.0 / 3.0, rtol=1e-4)
        assert np.max(np.abs(report.mse - report.variance) / report.variance) < 0.10

    def test_single_trial_is_one_squared_error(self):
        cfg = ExperimentConfig(graph=path_graph(2), eps=0.1, sigma2=1.0, trials=1, seed=3)
        report = run_calibration(cfg)
        lap = laplacian(path_graph(2))
        spectrum = spectral_decomposition(lap)
        rng = CounterRng(3, stream=0)
        x = draw_prior_signal(spectrum, 0.1, rng)
        xbar = observe(x, 1.0, None, rng)
        estimate = fuse(smoothness_prior(lap, 0.1), full_observation(xbar, 1.0)).mean
        np.testing.assert_allclose(report.mse, (estimate - x) ** 2, rtol=1e-10)

    def test_report_is_bit_identical_across_runs(self):
        cfg = ExperimentConfig(graph=path_graph(3), eps=0.01, sigma2=2.0, trials=64, seed=9)
        a = run_calibration(cfg)
        b = run_calibration(cfg)
        np.testing.assert_array_equal(a.mse, b.mse)
        np.testing.assert_array_equal(a.variance, b.variance)

    def test_variance_vector_ignores_seed(self):
        base = dict(graph=path_graph(3), eps=0.01, sigma2=2.0, trials=16)
        a = run_calibration(ExperimentConfig(seed=1, **base))
        b = run_calibration(ExperimentConfig(seed=999, **base))
        np.testing.assert_array_equal(a.variance, b.variance)
        assert np.max(np.abs(a.mse - b.mse)) > 0

    def test_sampled_subset_calibrates_too(self):
        g = grid_graph(3, 3)
        cfg = ExperimentConfig(
            graph=g, eps=0.05, sigma2=1.0, trials=4000, seed=21, sampling=(0, 4, 8)
        )
        report = run_calibration(cfg)
        assert np.all(np.isfinite(report.variance))  # eps > 0 keeps all finite
        assert np.max(np.abs(report.mse - report.variance) / report.variance) < 0.25

    def test_noise_free_sampling_uses_constraint_path(self):
        g = grid_graph(2, 2)
        cfg = ExperimentConfig(
            graph=g, eps=0.05, sigma2=0.0, trials=200, seed=5, sampling=(0, 3)
        )
        report = run_calibration(cfg)
        np.testing.assert_allclose(report.mse[[0, 3]], 0.0, atol=1e-20)
        np.testing.assert_allclose(report.variance[[0, 3]], 0.0, atol=1e-12)

    def test_noise_free_estimator_matches_one_fuse_per_column(self):
        # reference: the constrained mean for a unit observation at each
        # sampled node, one fuse per column
        cases = [
            (laplacian(grid_graph(5, 4)), 0.05, (0, 3, 7, 12, 19)),
            (laplacian(random_geometric_graph(25, 0.35, seed=3)), 1e-6, (2, 8, 9, 20)),
            # eps=0 and a component without samples: flat directions
            (laplacian(two_component_graph()), 0.0, (0, 3)),
        ]
        for lap, eps, nodes in cases:
            prior = smoothness_prior(lap, eps)
            op = SamplingOperator(n=lap.shape[0], nodes=nodes)
            summary = fuse(prior, partial_observation(op, np.zeros(op.n_s), 0.0))
            expected = np.empty((op.n, op.n_s))
            for j in range(op.n_s):
                unit = np.zeros(op.n_s)
                unit[j] = 1.0
                expected[:, j] = fuse(prior, partial_observation(op, unit, 0.0)).mean
            estimator = _estimator_matrix(prior, op, 0.0, summary)
            np.testing.assert_allclose(estimator, expected, rtol=0, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(graph=path_graph(2), eps=0.1, sigma2=1.0, trials=0, seed=0)
        with pytest.raises(ValueError, match="eps"):
            ExperimentConfig(graph=path_graph(2), eps=0.0, sigma2=1.0, trials=5, seed=0)


class TestBackends:
    def test_backends_agree_to_float_tolerance(self):
        if not _kernels._HAS_NUMBA:
            pytest.skip("numba backend unavailable")
        cfg = ExperimentConfig(graph=grid_graph(3, 3), eps=0.01, sigma2=1.5, trials=500, seed=13)
        reports = {}
        for backend in ("numpy", "numba"):
            previous = _kernels.set_backend(backend)
            try:
                reports[backend] = run_calibration(cfg)
            finally:
                _kernels.set_backend(previous)
        np.testing.assert_array_equal(
            reports["numpy"].variance, reports["numba"].variance
        )
        np.testing.assert_allclose(
            reports["numba"].mse, reports["numpy"].mse, rtol=1e-10
        )

    def test_set_backend_validates(self):
        with pytest.raises(ValueError):
            _kernels.set_backend("tensorflow")

    def test_active_backend_reports(self):
        assert _kernels.active_backend() in ("numba", "numpy")


class TestReportCsv:
    def test_format_and_echo(self):
        cfg = ExperimentConfig(graph=path_graph(2), eps=0.5, sigma2=1.0, trials=2, seed=4)
        text = render_report_csv(run_calibration(cfg))
        lines = text.strip().splitlines()
        assert lines[0] == "# eps=0.5 sigma2=1 trials=2 seed=4"
        assert lines[1] == "node,variance,mse,ratio"
        assert len(lines) == 4
        first = lines[2].split(",")
        assert first[0] == "0"
        assert float(first[1]) > 0

    def test_rendering_is_deterministic(self):
        cfg = ExperimentConfig(graph=path_graph(3), eps=0.2, sigma2=1.0, trials=10, seed=6)
        assert render_report_csv(run_calibration(cfg)) == render_report_csv(
            run_calibration(cfg)
        )

    def test_ratio_column(self):
        cfg = ExperimentConfig(graph=path_graph(2), eps=0.5, sigma2=1.0, trials=50, seed=8)
        report = run_calibration(cfg)
        np.testing.assert_allclose(report.ratio, report.mse / report.variance, atol=0)
