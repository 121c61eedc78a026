"""The package's public surface: one name list per submodule, re-exported."""

import ast
import collections
import importlib
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
    # one splitmix64, on uint64 arrays; the Python-int copy, the
    # single-stream wrappers and the uniforms alone are the tests' own
    # (tests/helpers.py)
    gone = ("CounterRng", "uniforms", "normals", "mix64", "stream_key", "uniforms_block")
    assert [name for name in gone if hasattr(_rng, name)] == []
    assert [name for name in ("_score", "_observation") if hasattr(sampling_eval, name)] == []


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


def _names(node):
    """Every name that ``node`` reads, calls, imports or looks up as an attribute."""
    return {part.id if isinstance(part, ast.Name) else
            part.attr if isinstance(part, ast.Attribute) else part.name
            for part in ast.walk(node) if isinstance(part, (ast.Name, ast.Attribute, ast.alias))}


def test_every_definition_has_a_caller_in_the_package_or_is_exported():
    # a top-level function or class that no other statement of the package
    # names, and that its module does not export, is called only by tests;
    # such code lives in tests/helpers.py
    package = pathlib.Path(graphbayes.__file__).parent
    statements = [(path.stem, node) for path in sorted(package.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    counts = collections.Counter(name for _, node in statements for name in _names(node))
    uncalled = [f"{stem}.{node.name}" for stem, node in statements
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and counts[node.name] == (node.name in _names(node))
                and node.name not in getattr(importlib.import_module(f"graphbayes.{stem}"),
                                             "__all__", ())]
    assert uncalled == []


EIGEN_FIELDS = {"cov_basis", "cov_values", "null_basis", "zero_basis"}


def _attribute_reads(tree, names):
    """The names of the functions, at any depth, that read an attribute in
    ``names``; a read at module level counts under ``None``."""
    readers = set()

    def visit(node, owner):
        if isinstance(node, ast.Attribute) and node.attr in names:
            readers.add(owner)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return readers


def test_only_inference_reads_the_eigen_fields_and_two_readers_the_factor():
    # outside inference, a posterior is asked through its queries; the two
    # closed forms that need the eigen factor take it from eigen_factor()
    package = pathlib.Path(graphbayes.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))
             if path.stem != "inference"}
    fields = {stem: _attribute_reads(tree, EIGEN_FIELDS) for stem, tree in trees.items()}
    factor = {stem: _attribute_reads(tree, {"eigen_factor"}) for stem, tree in trees.items()}
    assert {stem: readers for stem, readers in fields.items() if readers} == {}
    assert {stem: readers for stem, readers in factor.items() if readers} == {
        "sampling_eval": {"_screen"}, "simulate": {"_estimator_matrix"}}
