"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured margin.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by; without ``-s`` they still appear for failing criteria.
"""

import math
import time

import numpy as np
import pytest

from graphbayes import (
    SamplingOperator,
    SubspaceBasis,
    covariance_metric,
    directional_uncertainty,
    full_observation,
    fuse,
    gft,
    grid_graph,
    is_perfectly_reconstructible,
    laplacian,
    node_variances,
    partial_observation,
    perfect_reconstruct,
    posterior_covariance,
    quadratic_variation,
    smoothness_prior,
    solve_map,
    spectral_decomposition,
    subspace_prior,
    run_calibration,
    ExperimentConfig,
    Graph,
)
from graphbayes.cli import main

from helpers import random_connected_graph, random_graph

SIGMA2_GRID = (0.5, 1.0, 3.0)
EPS_GRID = (0.0, 1e-6)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} - {detail}")
    assert ok, f"{name}: {detail}"


def _oracle_suite(count=50, max_n=40, seed=2024):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, max_n + 1))
        yield random_graph(rng, n), rng.standard_normal(n)


def test_criterion_1_closed_form_oracle_equivalence():
    start = time.perf_counter()
    worst_mean = 0.0
    worst_cov = 0.0
    for graph, xbar in _oracle_suite():
        lap = laplacian(graph)
        eye = np.eye(graph.n)
        for sigma2 in SIGMA2_GRID:
            for eps in EPS_GRID:
                lap_eps = lap + eps * eye
                summary = fuse(
                    smoothness_prior(lap, eps), full_observation(xbar, sigma2)
                )
                mean_oracle = np.linalg.solve(eye + sigma2 * lap_eps, xbar)
                cov_oracle = np.linalg.inv(eye / sigma2 + lap_eps)
                worst_mean = max(
                    worst_mean,
                    np.linalg.norm(summary.mean - mean_oracle)
                    / np.linalg.norm(mean_oracle),
                )
                worst_cov = max(
                    worst_cov,
                    np.linalg.norm(posterior_covariance(summary) - cov_oracle)
                    / np.linalg.norm(cov_oracle),
                )
    elapsed = time.perf_counter() - start
    ok = worst_mean <= 1e-9 and worst_cov <= 1e-9 and elapsed < 10.0
    _report(
        "criterion 1: closed-form posterior equals dense oracle",
        ok,
        f"worst mean rel {worst_mean:.2e}, worst cov rel {worst_cov:.2e}, "
        f"{elapsed:.1f}s (budget 10s)",
    )


def test_criterion_2_map_solver_equivalence():
    worst = 0.0
    for graph, xbar in _oracle_suite():
        lap = laplacian(graph)
        for sigma2 in SIGMA2_GRID:
            for eps in EPS_GRID:
                prior = smoothness_prior(lap, eps)
                obs = full_observation(xbar, sigma2)
                closed = solve_map(prior, obs, "closed_form")
                iterative = solve_map(prior, obs, "iterative")
                worst = max(
                    worst,
                    np.linalg.norm(iterative - closed) / np.linalg.norm(closed),
                )
    ok = worst <= 1e-8
    _report(
        "criterion 2: iterative and closed-form maximizers agree",
        ok,
        f"worst rel deviation {worst:.2e} (tol 1e-8)",
    )


def test_criterion_3_spectral_identity():
    rng = np.random.default_rng(7)
    sigma2 = 3.0
    worst = 0.0
    worst_dc = 0.0
    for _ in range(10):
        graph = random_graph(rng, int(rng.integers(4, 30)))
        lap = laplacian(graph)
        spectrum = spectral_decomposition(lap)
        summary = fuse(
            smoothness_prior(lap, 0.0),
            full_observation(rng.standard_normal(graph.n), sigma2),
        )
        for i in range(graph.n):
            value = directional_uncertainty(summary, spectrum.vectors[:, i])
            worst = max(worst, abs(value - 1.0 / (1.0 / sigma2 + spectrum.values[i])))
        ones = np.full(graph.n, 1.0 / np.sqrt(graph.n))
        worst_dc = max(worst_dc, abs(directional_uncertainty(summary, ones) - sigma2))
    ok = worst <= 1e-10 and worst_dc <= 1e-12
    _report(
        "criterion 3: per-mode variances match the scalar formula",
        ok,
        f"worst mode dev {worst:.2e} (tol 1e-10), "
        f"constant-direction dev {worst_dc:.2e} (tol 1e-12)",
    )


def test_criterion_4_directional_decomposition():
    rng = np.random.default_rng(11)
    sigma2 = 1.0
    worst = 0.0
    for _ in range(10):
        graph = random_graph(rng, int(rng.integers(4, 30)))
        lap = laplacian(graph)
        spectrum = spectral_decomposition(lap)
        summary = fuse(
            smoothness_prior(lap, 0.0),
            full_observation(rng.standard_normal(graph.n), sigma2),
        )
        per_mode = 1.0 / (1.0 / sigma2 + spectrum.values)
        for _ in range(100):
            z = rng.standard_normal(graph.n)
            z /= np.linalg.norm(z)
            expected = float(per_mode @ gft(spectrum, z) ** 2)
            worst = max(worst, abs(directional_uncertainty(summary, z) - expected))
    ok = worst <= 1e-9
    _report(
        "criterion 4: directional variance decomposes over modes",
        ok,
        f"worst deviation {worst:.2e} (tol 1e-9)",
    )


def test_criterion_5_monte_carlo_calibration():
    start = time.perf_counter()
    config = ExperimentConfig(
        graph=grid_graph(8, 8), eps=1e-6, sigma2=3.0, trials=2000, seed=7
    )
    report = run_calibration(config)
    elapsed = time.perf_counter() - start
    ratio = report.mse / report.variance
    within = float(np.mean(np.abs(ratio - 1.0) <= 0.15))
    median = float(np.median(ratio))
    ok = within >= 0.90 and 0.9 <= median <= 1.1 and elapsed < 60.0
    _report(
        "criterion 5: empirical error calibrates against posterior variance",
        ok,
        f"{within:.0%} of nodes within 15%, median ratio {median:.3f}, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def _reconstructible_instance(rng):
    for _ in range(50):
        n = int(rng.integers(6, 31))
        graph = random_graph(rng, n)
        spectrum = spectral_decomposition(laplacian(graph))
        dim = int(rng.integers(1, max(2, n // 3)))
        basis = SubspaceBasis(basis=spectrum.vectors[:, :dim])
        nodes = tuple(int(v) for v in rng.choice(n, size=dim, replace=False))
        operator = SamplingOperator(n=n, nodes=nodes)
        if is_perfectly_reconstructible(basis, operator):
            return basis, operator
    raise AssertionError("failed to draw a reconstructible instance")


def test_criterion_6_perfect_reconstruction():
    rng = np.random.default_rng(2025)
    worst_err = 0.0
    worst_dir = 0.0
    worst_trace = 0.0
    worst_slope = 0.0
    for _ in range(20):
        basis, operator = _reconstructible_instance(rng)
        truth = basis.basis @ rng.standard_normal(basis.dim)
        observed = truth[list(operator.nodes)]

        rebuilt = perfect_reconstruct(basis, operator, observed)
        worst_err = max(
            worst_err,
            np.linalg.norm(rebuilt - truth) / max(np.linalg.norm(truth), 1e-300),
        )

        summary = fuse(
            subspace_prior(basis, sigma2_prior=0.0),
            partial_observation(operator, observed, 0.0),
        )
        for _ in range(20):
            z = rng.standard_normal(basis.n)
            worst_dir = max(worst_dir, directional_uncertainty(summary, z))
        worst_trace = max(worst_trace, covariance_metric(summary, "trace"))

        traces = []
        for sigma2 in (1e-2, 1e-4):
            relaxed = fuse(
                subspace_prior(basis, sigma2_prior=sigma2),
                partial_observation(operator, observed, sigma2),
            )
            traces.append(covariance_metric(relaxed, "trace"))
        worst_slope = max(worst_slope, abs(traces[0] / traces[1] / 100.0 - 1.0))
    ok = (
        worst_err <= 1e-8
        and worst_dir == 0.0
        and worst_trace == 0.0
        and worst_slope <= 0.05
    )
    _report(
        "criterion 6: perfect reconstruction collapses the posterior",
        ok,
        f"worst recon rel err {worst_err:.2e} (tol 1e-8), "
        f"worst directional var {worst_dir:.1e}, worst trace {worst_trace:.1e}, "
        f"noise-scaling slope dev {worst_slope:.2%} (tol 5%)",
    )


def test_criterion_7_infinite_uncertainty_detection():
    # path 0-1-2 plus isolated node 3; samples on the path only
    graph = Graph(4, [(0, 1), (1, 2)])
    lap = laplacian(graph)
    operator = SamplingOperator(n=4, nodes=(0, 2))
    summary = fuse(
        smoothness_prior(lap, 0.0),
        partial_observation(operator, np.array([1.0, -2.0]), 1.0),
    )
    variances = node_variances(summary)
    isolated_flagged = variances[3] == math.inf

    block = lap[:3, :3] + np.diag([1.0, 0.0, 1.0])
    oracle = np.linalg.inv(block)
    worst = max(
        abs(directional_uncertainty(summary, np.eye(4)[i]) - oracle[i, i])
        for i in range(3)
    )
    ok = isolated_flagged and worst <= 1e-9
    _report(
        "criterion 7: flat directions flagged, observed block matches oracle",
        ok,
        f"isolated node infinite: {isolated_flagged}, "
        f"worst finite-direction dev {worst:.2e} (tol 1e-9)",
    )


def test_criterion_8_noise_free_constraint_exactness():
    rng = np.random.default_rng(88)
    graph = random_connected_graph(rng, 12)
    lap = laplacian(graph)
    operator = SamplingOperator(n=12, nodes=(0, 4, 7))
    observed = rng.standard_normal(3)
    summary = fuse(
        smoothness_prior(lap, 0.0), partial_observation(operator, observed, 0.0)
    )
    pin_dev = float(np.max(np.abs(summary.mean[list(operator.nodes)] - observed)))

    base = quadratic_variation(lap, summary.mean)
    free = [v for v in range(12) if v not in operator.nodes]
    exceeded = 0
    for _ in range(1000):
        perturbed = summary.mean.copy()
        perturbed[free] += rng.standard_normal(len(free)) * rng.uniform(0.001, 1.0)
        if quadratic_variation(lap, perturbed) < base - 1e-10:
            exceeded += 1
    ok = pin_dev <= 1e-12 and exceeded == 0
    _report(
        "criterion 8: noise-free samples pin the mean, which minimizes smoothness energy",
        ok,
        f"max pin deviation {pin_dev:.2e} (tol 1e-12), "
        f"{exceeded}/1000 perturbations beat the mean",
    )


def test_criterion_9_limit_consistency():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(5):
        graph = random_connected_graph(rng, 10)
        lap = laplacian(graph)
        operator = SamplingOperator(
            n=10, nodes=tuple(int(v) for v in rng.choice(10, size=3, replace=False))
        )
        observed = rng.standard_normal(3)
        prior = smoothness_prior(lap, 0.0)
        small = fuse(prior, partial_observation(operator, observed, 1e-8)).mean
        exact = fuse(prior, partial_observation(operator, observed, 0.0)).mean
        worst = max(worst, float(np.max(np.abs(small - exact))))
    ok = worst <= 1e-3
    _report(
        "criterion 9: tiny-noise posterior approaches the hard-constraint limit",
        ok,
        f"worst mean deviation {worst:.2e} (tol 1e-3)",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    graph_file = tmp_path / "g.edges"
    graph_file.write_text("0 1\n1 2\n2 3\n0 2\n")
    signal_file = tmp_path / "s.csv"
    signal_file.write_text("node,value\n0,1.0\n1,-0.5\n2,2.0\n3,0.0\n")

    invocations = [
        ["estimate", str(graph_file), str(signal_file), "--sigma2", "1.3", "--eps", "1e-6"],
        ["estimate", str(graph_file), str(signal_file), "--noise-free", "--nodes", "0,2"],
        ["uncertainty", str(graph_file), "--sigma2", "2", "--direction", "eig:1"],
        ["simulate", "--grid", "4x4", "--sigma2", "3", "--eps", "1e-6",
         "--trials", "300", "--seed", "42"],
        ["sample-select", str(graph_file), "--budget", "2", "--sigma2", "1",
         "--metric", "logdet"],
    ]
    all_identical = True
    for argv in invocations:
        outputs = []
        for _ in range(2):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 0, f"{argv} exited {code}: {captured.err}"
            outputs.append(captured.out.encode())
        all_identical = all_identical and outputs[0] == outputs[1]
    _report(
        "criterion 10: CLI output is byte-reproducible",
        all_identical,
        f"{len(invocations)} invocations run twice each",
    )
