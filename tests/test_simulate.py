"""Seeded draws, observation noise, and Monte Carlo calibration."""

import hashlib
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphbayes import (
    ExperimentConfig,
    SamplingOperator,
    full_observation,
    fuse,
    laplacian,
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

from helpers import (GOLDEN, TrialStream, draw_prior_signal, mix64, observe, stream_key,
                     two_component_graph, uniforms_block)


@st.composite
def _block_shapes(draw):
    """``(count, rows)`` for one ``normals_block`` call of one to three
    blocks of rows (or of rows longer than a block)."""
    count = draw(st.integers(0, 2 * _rng._BLOCK_PAIRS + 3))
    step = max(1, _rng._BLOCK_PAIRS // max((count + 1) // 2, 1))
    return count, draw(st.integers(0, min(2 * step + 1, 64)))


@pytest.fixture
def p2_spectrum():
    return spectral_decomposition(laplacian(path_graph(2)))


class TestCounterStreams:
    def test_fixed_seed_is_bit_identical(self):
        a = TrialStream(123, 4).normals(100)
        b = TrialStream(123, 4).normals(100)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = TrialStream(123, 0).normals(100)
        b = TrialStream(123, 1).normals(100)
        assert np.max(np.abs(a - b)) > 0.1

    def test_uniforms_stay_inside_open_interval(self):
        u = uniforms_block(_rng.stream_keys(7, 0, 1), 0, 100000)[0]
        assert np.all(u > 0.0)
        assert np.all(u < 1.0)
        assert abs(np.mean(u) - 0.5) < 0.005

    def test_vectorized_keys_match_scalar_path(self):
        keys = _rng.stream_keys(99, 0, 50)
        for t in range(50):
            assert int(keys[t]) == stream_key(99, t)

    def test_block_normals_match_per_stream_normals(self):
        keys = _rng.stream_keys(5, 0, 8)
        block = _rng.normals_block(keys, 0, 7)
        for t in range(8):
            row = _rng.normals_block(np.array([stream_key(5, t)], dtype=np.uint64), 0, 7)[0]
            np.testing.assert_array_equal(block[t], row)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**64 - 1), _block_shapes(), st.integers(0, 2**20), st.booleans())
    @example(1, (2 * _rng._BLOCK_PAIRS + 3, 3), 0, True).via("a row longer than a block")
    @example(2, (3001, 62), 5, False).via("three blocks of 21 rows")
    def test_block_normals_are_the_per_stream_normals_bit_for_bit(
            self, seed, shape, start_pair, given_out):
        count, rows = shape
        pairs = (count + 1) // 2
        keys = _rng.stream_keys(seed, 0, rows)
        out = np.full((rows, 2 * pairs), np.nan) if given_out else None
        block = _rng.normals_block(keys, start_pair, count, out=out)
        assert block.shape == (rows, count)
        if given_out:  # written into `out`, which started as NaN
            np.testing.assert_array_equal(out[:, :count].view(np.uint64), block.view(np.uint64))
        for t in range(rows):
            key = np.array([stream_key(seed, t)], dtype=np.uint64)
            row = _rng.normals_block(key, start_pair, count)[0]
            np.testing.assert_array_equal(block[t].view(np.uint64), row.view(np.uint64))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
           st.integers(0, 2**64 - 64), st.integers(0, 40))
    def test_uniforms_are_the_hashed_counters(self, keys, start, count):
        # the pure-Python definition: counter c of key k is the top 53 bits
        # of mix64(k + c * GOLDEN), centred in its interval of width 2**-53
        block = uniforms_block(np.array(keys, dtype=np.uint64), start, count)
        oracle = [[((mix64(k + c * GOLDEN) >> 11) + 0.5) * 2.0 ** -53
                   for c in range(start + 1, start + count + 1)] for k in keys]
        assert [[u.hex() for u in row] for row in block.tolist()] == [
            [u.hex() for u in row] for row in oracle]

    def test_golden_values(self):
        # recorded from the stream definition; any change to the hashing,
        # key derivation or Box-Muller arithmetic shows up here
        keys = _rng.stream_keys(99, 0, 3)
        assert [int(k) for k in keys] == [
            4824385676517010403, 583982616703494564, 15398599001720869627,
        ]
        assert [float(z).hex() for z in TrialStream(123, 4).normals(5)] == [
            "0x1.7d6308586f99bp-1", "0x1.f0a99f8e11441p-2",
            "-0x1.806c60e2a583ap-3", "0x1.85b85b40f5a1bp-3",
            "0x1.73526cd828161p+0",
        ]
        uniforms = uniforms_block(_rng.stream_keys(7, 0, 1), 3, 3)[0]
        assert [float(u).hex() for u in uniforms] == [
            "0x1.355e43b052dc4p-1", "0x1.646972a582333p-2", "0x1.7551f69e6c4cap-3",
        ]

    @pytest.mark.parametrize("n, n_s, digest", [
        (15, 5, "960b145516dc250238214a133f9fed1466daa788c6bee4833a2d45f42abe92fd"),
        (16, 3, "95feacab3fb14634b0fa33806d62ef5bc6e601b97b3d61037cd01b6f7693a583"),
        (15, 0, "738fb2b930bffce4f52f575cd0d7eefc430be354cb05649f4234ecff16d04d39"),
        (1, 1, "fe2679d53cd94de0d45fcf39bb5720dad70e87b4c10a6ff9942b84db764c224e"),
    ])
    def test_one_draw_holds_signal_and_noise_normals(self, n, n_s, digest):
        # the noise pairs start where the signal pairs end, so one call
        # gives both; digest of the signal then noise normals drawn by two
        # calls, recorded before the kernel merged them
        keys = _rng.stream_keys(7, 0, 300)
        eta_at = 2 * ((n + 1) // 2)
        buffer = np.empty((300, 2 * ((eta_at + n_s + 1) // 2)))
        draw = _rng.normals_block(keys, 0, eta_at + n_s, out=buffer)
        assert np.shares_memory(draw, buffer)
        np.testing.assert_array_equal(draw, _rng.normals_block(keys, 0, eta_at + n_s))
        xi, eta = draw[:, :n], draw[:, eta_at:]
        np.testing.assert_array_equal(xi, _rng.normals_block(keys, 0, n))
        np.testing.assert_array_equal(eta, _rng.normals_block(keys, (n + 1) // 2, n_s))
        data = np.ascontiguousarray(xi).tobytes() + np.ascontiguousarray(eta).tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_moment_sanity(self):
        z = _rng.normals_block(_rng.stream_keys(11, 0, 200), 0, 500).ravel()
        assert abs(np.mean(z)) < 0.01
        assert abs(np.std(z) - 1.0) < 0.01


class TestDrawPriorSignal:
    def test_fixed_seed_reproducible(self, p2_spectrum):
        x1 = draw_prior_signal(p2_spectrum, 0.1, TrialStream(3, 0))
        x2 = draw_prior_signal(p2_spectrum, 0.1, TrialStream(3, 0))
        np.testing.assert_array_equal(x1, x2)

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
            direct = draw_prior_signal(p2_spectrum, eps, TrialStream(2024, t))
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
        out = observe(x, 0.0, op, TrialStream(5))
        np.testing.assert_array_equal(out, [3.0, 1.0])

    def test_full_observation_noise_variance(self):
        x = np.zeros(2)
        draws = 100_000
        keys = _rng.stream_keys(31, 0, draws)
        noise = np.sqrt(2.5) * _rng.normals_block(keys, 0, 2)
        # same stream positions as observe() consuming after no signal draw
        for t in (0, 5):
            direct = observe(x, 2.5, None, TrialStream(31, t))
            np.testing.assert_allclose(direct, noise[t], atol=1e-12)
        assert abs(np.var(noise.ravel()) - 2.5) / 2.5 < 0.03

    def test_reproducibility(self):
        x = np.ones(4)
        a = observe(x, 1.0, None, TrialStream(8, 2))
        b = observe(x, 1.0, None, TrialStream(8, 2))
        np.testing.assert_array_equal(a, b)


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
        rng = TrialStream(3, 0)
        x = draw_prior_signal(spectrum, 0.1, rng)
        xbar = observe(x, 1.0, None, rng)
        estimate = fuse(smoothness_prior(lap, 0.1), full_observation(xbar, 1.0)).mean
        np.testing.assert_allclose(report.mse, (estimate - x) ** 2, rtol=1e-10)

    def test_one_sampled_trial_on_an_odd_path_reads_the_noise_after_the_signal(self):
        # n = 3 leaves column 3 of the trial's draw unused: the noise
        # normals start at column 4, the pair after the signal's last one
        g, op = path_graph(3), SamplingOperator(n=3, nodes=(0, 2))
        cfg = ExperimentConfig(graph=g, eps=0.1, sigma2=0.5, trials=1, seed=4, sampling=op.nodes)
        report = run_calibration(cfg)
        lap = laplacian(g)
        rng = TrialStream(4, 0)
        x = draw_prior_signal(spectral_decomposition(lap), 0.1, rng)
        xbar = observe(x, 0.5, op, rng)
        estimate = fuse(smoothness_prior(lap, 0.1), partial_observation(op, xbar, 0.5)).mean
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

    def test_non_integer_sampled_node_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match="node id must be an integer, got 0.9"):
            ExperimentConfig(graph=path_graph(3), eps=0.1, sigma2=1.0, trials=1, seed=0,
                             sampling=(0.9,))

    @pytest.mark.parametrize("sampling, message", [
        ((0, 7), "node id 7 out of range for n=3"),
        ((1, 1), "duplicate node ids in sampling set"),
    ])
    def test_bad_sampling_set_is_refused_when_the_config_is_built(self, sampling, message):
        with pytest.raises(ValueError, match=message) as built:
            ExperimentConfig(graph=path_graph(3), eps=1, sigma2=1, trials=1, seed=0,
                             sampling=sampling)
        with pytest.raises(ValueError) as checked:
            SamplingOperator(n=3, nodes=sampling)
        assert str(built.value) == str(checked.value)

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

    @pytest.mark.parametrize("field, value, rule", [
        ("eps", np.nan, "positive"), ("eps", np.inf, "positive"), ("eps", -1.0, "positive"),
        ("sigma2", np.inf, "non-negative"), ("sigma2", np.nan, "non-negative"),
    ])
    def test_config_rejects_non_finite_parameters(self, field, value, rule):
        fields = dict(graph=path_graph(2), eps=0.1, sigma2=1.0, trials=5, seed=0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field}.* must be finite and {rule}"):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize("field, value", [("trials", 2.5), ("trials", 2.0), ("seed", 1.5)])
    def test_config_counts_must_be_integers(self, field, value):
        fields = dict(graph=path_graph(2), eps=0.1, sigma2=1.0, trials=5, seed=0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            ExperimentConfig(**fields)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(graph=path_graph(2), eps=0.1, sigma2=1.0, trials=0, seed=0)
        with pytest.raises(ValueError, match="eps"):
            ExperimentConfig(graph=path_graph(2), eps=0.0, sigma2=1.0, trials=5, seed=0)


SUBSET = (2, 5, 6, 11, 14)


def _kernel_inputs(sample):
    # odd n; the kernel needs no real spectrum, so the inputs are arbitrary
    rng = np.random.default_rng(2026)
    n = 15
    vectors = rng.standard_normal((n, n))
    scale = rng.uniform(0.5, 2.0, n)
    estimator = rng.standard_normal((n, len(sample))) / 4
    return vectors, scale, estimator, np.array(sample, dtype=np.int64)


# calibration_mse output recorded with every chunk run on one thread
KERNEL_GOLDEN = [
    # every node observed, 700 trials: three chunks, the last one partial
    (101, 700, tuple(range(15)), 0.8, [
        "0x1.f66635bcd2188p+3", "0x1.bf263ec3238e7p+5", "0x1.29bf00ef488e7p+5",
        "0x1.d646fa7f9dbfdp+5", "0x1.bc56cedbc1539p+5", "0x1.37cab89aac79cp+5",
        "0x1.dc542da180e4ep+5", "0x1.f0793dc5f8a12p+5", "0x1.536292afdf561p+6",
        "0x1.37628f0cdc56cp+6", "0x1.e99af2e90c8dbp+6", "0x1.852a6153877c3p+6",
        "0x1.75879cff0ba77p+5", "0x1.1320863d1b675p+5", "0x1.824a55b30a472p+4",
    ]),
    # a node subset with noise
    (102, 700, SUBSET, 0.8, [
        "0x1.2262cbcb16795p+4", "0x1.9b438371a4bbdp+4", "0x1.c2be076e48c26p+3",
        "0x1.77ce40ce2475fp+6", "0x1.74f031ca26ba8p+6", "0x1.9188182ef1514p+5",
        "0x1.def803f7edcd4p+5", "0x1.40118ed1d823fp+5", "0x1.4f56e294b8300p+5",
        "0x1.8fe43b61ba835p+5", "0x1.1eceb225bd500p+5", "0x1.551af85de92d7p+5",
        "0x1.c1fc100e6db6fp+4", "0x1.4bf92105a7d51p+5", "0x1.63dad1f13b0e0p+4",
    ]),
    # the same subset noise-free, 100 trials: one chunk, on the calling thread
    (103, 100, SUBSET, 0.0, [
        "0x1.0e82c0dd5fc03p+4", "0x1.01ce47781c8cbp+5", "0x1.0d343a2202a34p+4",
        "0x1.d4fb32d17fcd2p+6", "0x1.914743aebbda6p+6", "0x1.57a49765243e0p+5",
        "0x1.24aa2625533bcp+6", "0x1.36fd06b64774cp+5", "0x1.2d6e49c26c744p+5",
        "0x1.779a2f4e58108p+5", "0x1.0f338dca89d5ap+5", "0x1.f77f00b2566b6p+5",
        "0x1.5af6181dc60a5p+4", "0x1.6f60e9e8d0081p+5", "0x1.429f864c875f8p+4",
    ]),
]


class TestCalibrationKernel:
    @pytest.mark.parametrize("seed, trials, sample, sigma, expected", KERNEL_GOLDEN,
                             ids=["all-700", "subset-700", "subset-noise-free-100"])
    def test_golden_values(self, seed, trials, sample, sigma, expected):
        mse = _kernels.calibration_mse(seed, trials, *_kernel_inputs(sample), sigma)
        assert [float(v).hex() for v in mse] == expected

    @pytest.mark.parametrize("cores", [1, 2, 3, 8])
    def test_thread_count_does_not_change_the_bits(self, monkeypatch, cores):
        monkeypatch.setattr(_kernels, "_cores", lambda: cores)
        seed, trials, sample, sigma, expected = KERNEL_GOLDEN[1]
        mse = _kernels.calibration_mse(seed, trials, *_kernel_inputs(sample), sigma)
        assert [float(v).hex() for v in mse] == expected

    def test_cores_fall_back_to_cpu_count_without_affinity(self, monkeypatch):
        # platforms without sched_getaffinity, such as macOS and Windows
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _kernels._cores() == 3
        seed, trials, sample, sigma, expected = KERNEL_GOLDEN[1]
        mse = _kernels.calibration_mse(seed, trials, *_kernel_inputs(sample), sigma)
        assert [float(v).hex() for v in mse] == expected
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _kernels._cores() == 1

    def test_more_threads_than_cores_with_fast_switching(self, monkeypatch):
        # 41 chunks on 8 threads that switch every microsecond: a sum lost
        # or added out of order changes the bits
        args = (104, 40 * 256 + 7, *_kernel_inputs(SUBSET), 0.8)
        monkeypatch.setattr(_kernels, "_cores", lambda: 1)
        expected = _kernels.calibration_mse(*args)
        monkeypatch.setattr(_kernels, "_cores", lambda: 8)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(
                target=lambda: result.append(_kernels.calibration_mse(*args)))
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert result[0].tobytes() == expected.tobytes()

    def test_failure_on_a_worker_thread_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_cores", lambda: 2)
        draw = _rng.normals_block

        def fail_on_second_chunk(keys, *args, **kwargs):
            if int(keys[0]) == stream_key(5, 256):
                raise MemoryError("chunk 1")
            return draw(keys, *args, **kwargs)

        monkeypatch.setattr(_rng, "normals_block", fail_on_second_chunk)
        with pytest.raises(MemoryError, match="chunk 1"):
            _kernels.calibration_mse(5, 700, *_kernel_inputs(SUBSET), 0.8)

    def test_no_kernel_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_cores", lambda: 3)
        before = threading.enumerate()
        _kernels.calibration_mse(5, 700, *_kernel_inputs(SUBSET), 0.8)
        assert threading.enumerate() == before

        def fail(*args, **kwargs):
            raise MemoryError("every chunk")

        monkeypatch.setattr(_rng, "normals_block", fail)
        with pytest.raises(MemoryError, match="every chunk"):
            _kernels.calibration_mse(5, 700, *_kernel_inputs(SUBSET), 0.8)
        assert threading.enumerate() == before

    def test_a_failed_chunk_stops_the_chunks_not_started(self, monkeypatch):
        # chunk 1 of 41 fails at once and every other chunk takes 10 ms, so
        # the chunks started after the failure are counted, not raced
        monkeypatch.setattr(_kernels, "_cores", lambda: 2)
        draw = _rng.normals_block
        first_keys = {stream_key(6, 256 * chunk): chunk for chunk in range(41)}
        started = []

        def slow_or_failing(keys, *args, **kwargs):
            chunk = first_keys[int(keys[0])]
            started.append(chunk)
            if chunk == 1:
                raise MemoryError("chunk 1")
            time.sleep(0.01)
            return draw(keys, *args, **kwargs)

        monkeypatch.setattr(_rng, "normals_block", slow_or_failing)
        with pytest.raises(MemoryError, match="chunk 1"):
            _kernels.calibration_mse(6, 40 * 256 + 7, *_kernel_inputs(SUBSET), 0.8)
        assert 1 in started and len(started) < 10


    @pytest.mark.parametrize("cores", [2, 3])
    def test_the_calling_thread_runs_chunks_beside_the_helpers(self, monkeypatch, cores):
        started, drawn_on = [], set()
        start = threading.Thread.start
        draw = _rng.normals_block

        def counting_start(thread):
            started.append(thread)
            start(thread)

        def slow_draw(keys, *args, **kwargs):
            drawn_on.add(threading.get_ident())
            time.sleep(0.01)  # every helper is still busy when the caller looks
            return draw(keys, *args, **kwargs)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        monkeypatch.setattr(_rng, "normals_block", slow_draw)
        monkeypatch.setattr(_kernels, "_cores", lambda: cores)
        seed, trials, sample, sigma, expected = KERNEL_GOLDEN[1]  # three chunks
        mse = _kernels.calibration_mse(seed, trials, *_kernel_inputs(sample), sigma)
        assert [float(v).hex() for v in mse] == expected
        assert 1 <= len(started) <= cores - 1
        assert threading.get_ident() in drawn_on


class TestMapInOrder:
    """The calling thread runs tasks beside ``workers - 1`` helpers."""

    def test_results_keep_task_order_when_the_caller_takes_tasks_back(self):
        ran_on = {}

        def work(task):
            ran_on[task] = threading.get_ident()
            if task == 0:
                time.sleep(0.2)
            return 10 * task

        assert _kernels.map_in_order(work, range(6), 2) == [0, 10, 20, 30, 40, 50]
        # task 1 waited on the one helper behind task 0 until the caller took it back
        caller = threading.get_ident()
        assert ran_on[0] != caller
        assert [ran_on[task] for task in range(1, 6)] == [caller] * 5

    def test_a_helper_failure_before_a_caller_failure_is_raised(self):
        ran_on = {}

        def work(task):
            ran_on[task] = threading.get_ident()
            if task == 0:
                time.sleep(0.2)
            if task == 1:
                time.sleep(0.1)
                raise RuntimeError("task 1")
            if task == 3:
                raise ValueError("task 3")
            return task

        # tasks 0 and 1 run on the two helpers, task 2 waits, task 3 runs here
        with pytest.raises(RuntimeError, match="task 1"):
            _kernels.map_in_order(work, range(8), 3)
        assert ran_on[1] != threading.get_ident() == ran_on[3]

    def test_no_task_starts_after_a_task_fails_on_the_caller(self):
        started = set()

        def work(task):
            started.add(task)
            if task == 0:
                time.sleep(0.2)
            if task == 2:
                raise ValueError("task 2")
            return task

        # task 0 runs on the helper, task 1 waits behind it, task 2 runs here
        with pytest.raises(ValueError, match="task 2"):
            _kernels.map_in_order(work, range(8), 2)
        assert started == {0, 2}


class TestBackends:
    def test_active_backend_reports(self):
        assert _kernels.active_backend() == "numpy"

    def test_import_loads_neither_scipy_nor_numba(self):
        code = (
            "import sys, graphbayes\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.split('.')[0] in ('scipy', 'numba'))\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


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

    def test_sampled_nodes_are_echoed(self):
        cfg = ExperimentConfig(graph=path_graph(3), eps=0.5, sigma2=1.0, trials=2, seed=4,
                               sampling=(2, 0))
        lines = render_report_csv(run_calibration(cfg)).splitlines()
        assert lines[:3] == ["# eps=0.5 sigma2=1 trials=2 seed=4", "# nodes=2,0",
                             "node,variance,mse,ratio"]
        assert len(lines) == 3 + 3

    def test_rendering_is_deterministic(self):
        cfg = ExperimentConfig(graph=path_graph(3), eps=0.2, sigma2=1.0, trials=10, seed=6)
        assert render_report_csv(run_calibration(cfg)) == render_report_csv(
            run_calibration(cfg)
        )

    def test_ratio_column(self):
        cfg = ExperimentConfig(graph=path_graph(2), eps=0.5, sigma2=1.0, trials=50, seed=8)
        report = run_calibration(cfg)
        np.testing.assert_allclose(report.ratio, report.mse / report.variance, atol=0)
