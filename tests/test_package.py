"""The package's public surface: one name list per submodule, re-exported."""

import ast
import pathlib

import graphbayes
from graphbayes import _rng, belief, graph_core, inference, sampling_eval, simulate

# the names exported before each submodule's list became the only source,
# less five that only tests called
EARLIER_NAMES = {
    "DegradedRankWarning", "ExperimentConfig", "ExperimentReport",
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

# oracles of the tests, kept in tests/helpers.py, an alias of summary.mean, and
# the single-stream cursor over the counter streams
TEST_ONLY = ("CounterRng", "draw_prior_signal", "exhaustive_select", "observe",
             "posterior_mean")


def test_every_submodule_name_is_reachable_from_the_package():
    for module in (belief, graph_core, inference, sampling_eval, simulate):
        for name in module.__all__:
            assert getattr(graphbayes, name) is getattr(module, name), name


def test_exports_are_the_earlier_names_plus_three_constants():
    assert len(EARLIER_NAMES) == 42
    assert len(graphbayes.__all__) == len(set(graphbayes.__all__))
    assert set(graphbayes.__all__) == EARLIER_NAMES | {"RANK_TOL", "DIRECTION_TOL", "METRICS"}


def test_names_that_only_tests_called_are_gone_from_the_package():
    for module in (graphbayes, belief, graph_core, inference, sampling_eval, simulate):
        assert [name for name in TEST_ONLY if hasattr(module, name)] == [], module.__name__


def test_the_streams_hold_only_the_block_path():
    # one splitmix64, on uint64 arrays; the Python-int copy and the
    # single-stream wrappers are the tests' own (tests/helpers.py)
    gone = ("CounterRng", "uniforms", "normals", "mix64", "stream_key")
    assert [name for name in gone if hasattr(_rng, name)] == []
    assert not hasattr(sampling_eval, "_score")


def _package_imports(module):
    """The sibling modules that ``module``'s source imports; the package's
    modules import each other only relatively."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    return {node.module or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}


def test_imports_run_from_graph_core_through_belief_to_inference():
    # graph_core <- belief <- inference: a belief's rules and its sum live
    # in belief, which fuses nothing
    assert _package_imports(graph_core) == set()
    assert "inference" not in _package_imports(belief)
    assert "belief" in _package_imports(inference)
