"""The package's public surface: one name list per submodule, re-exported."""

import graphbayes
from graphbayes import _rng, belief, graph_core, inference, sampling_eval, simulate

# the names exported before each submodule's list became the only source,
# less four that only tests called
EARLIER_NAMES = {
    "CounterRng", "DegradedRankWarning", "ExperimentConfig", "ExperimentReport",
    "GaussianBelief", "Graph", "GraphFormatError", "InconsistentConstraintsError",
    "InfiniteVarianceError", "NonUniqueSolutionWarning", "PosteriorSummary",
    "SamplingOperator", "SolverDivergenceError", "Spectrum", "SubspaceBasis",
    "bandlimit_basis", "covariance_metric", "directional_uncertainty",
    "full_observation", "fuse", "gft", "greedy_select", "grid_graph", "igft",
    "is_perfectly_reconstructible", "laplacian", "load_edge_list", "node_variances",
    "partial_observation", "path_graph", "perfect_reconstruct", "posterior_covariance",
    "quadratic_variation", "random_geometric_graph", "read_signal_csv",
    "render_report_csv", "run_calibration", "smoothness_prior", "solve_map",
    "spectral_decomposition", "spectral_uncertainty", "star_graph", "subspace_prior",
}

# oracles of the tests, kept in tests/helpers.py, and an alias of summary.mean
TEST_ONLY = ("draw_prior_signal", "exhaustive_select", "observe", "posterior_mean")


def test_every_submodule_name_is_reachable_from_the_package():
    for module in (belief, graph_core, inference, sampling_eval, simulate):
        for name in module.__all__:
            assert getattr(graphbayes, name) is getattr(module, name), name
    assert graphbayes.CounterRng is _rng.CounterRng


def test_exports_are_the_earlier_names_plus_three_constants():
    assert len(EARLIER_NAMES) == 43
    assert len(graphbayes.__all__) == len(set(graphbayes.__all__))
    assert set(graphbayes.__all__) == EARLIER_NAMES | {"RANK_TOL", "DIRECTION_TOL", "METRICS"}


def test_names_that_only_tests_called_are_gone_from_the_package():
    for module in (graphbayes, belief, graph_core, inference, sampling_eval, simulate):
        assert [name for name in TEST_ONLY if hasattr(module, name)] == [], module.__name__
