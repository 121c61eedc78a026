"""Covariance metrics and greedy sampling-set selection."""

import math
import os
import subprocess
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbayes import (
    GaussianBelief,
    Graph,
    SamplingOperator,
    bandlimit_basis,
    covariance_metric,
    full_observation,
    fuse,
    greedy_select,
    grid_graph,
    laplacian,
    partial_observation,
    path_graph,
    smoothness_prior,
    spectral_decomposition,
    star_graph,
    SubspaceBasis,
    subspace_prior,
)
from graphbayes import _kernels, sampling_eval
from graphbayes.belief import _observed
from graphbayes.inference import _projected

from helpers import (
    allocated_beyond_result,
    exhaustive_select,
    random_connected_graph,
    random_graph,
    reference_greedy,
    score,
    two_component_graph,
)


def with_constraints(prior, rows):
    """``prior`` with the exact constraints ``rows @ x == 0`` added."""
    n = prior.n
    return prior.combine(GaussianBelief(n=n, precision=np.zeros((n, n)), info=np.zeros(n),
                                        constraints=rows, targets=np.zeros(len(rows))))


def posterior_for(graph, nodes, sigma2, eps=0.0):
    lap = laplacian(graph)
    op = SamplingOperator(n=graph.n, nodes=tuple(nodes))
    return fuse(
        smoothness_prior(lap, eps),
        partial_observation(op, np.zeros(op.n_s), sigma2),
    )


class TestCovarianceMetric:
    def test_perfect_reconstruction_trace_vanishes(self):
        spec = spectral_decomposition(laplacian(path_graph(2)))
        summary = fuse(
            subspace_prior(bandlimit_basis(spec, 0.0), sigma2_prior=0.0),
            partial_observation(SamplingOperator(n=2, nodes=(0,)), np.array([5.0]), 0.0),
        )
        assert covariance_metric(summary, "trace") == 0.0
        assert covariance_metric(summary, "max_eig") == 0.0
        assert covariance_metric(summary, "logdet") == -math.inf

    def test_single_edge_full_observation_trace(self):
        # variances 1/(1+0) and 1/(1+2) sum to 4/3
        lap = laplacian(path_graph(2))
        summary = fuse(smoothness_prior(lap, 0.0), full_observation(np.zeros(2), 1.0))
        assert covariance_metric(summary, "trace") == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert covariance_metric(summary, "max_eig") == pytest.approx(1.0, abs=1e-12)
        assert covariance_metric(summary, "logdet") == pytest.approx(
            math.log(1.0) + math.log(1.0 / 3.0), abs=1e-12
        )

    def test_flat_direction_makes_every_metric_infinite(self):
        g = Graph(2, [])
        summary = posterior_for(g, (0,), 1.0)
        for metric in ("trace", "logdet", "max_eig"):
            assert covariance_metric(summary, metric) == math.inf

    def test_unknown_metric_rejected(self):
        lap = laplacian(path_graph(2))
        summary = fuse(smoothness_prior(lap, 0.0), full_observation(np.zeros(2), 1.0))
        with pytest.raises(ValueError, match="metric"):
            covariance_metric(summary, "determinant")


class TestGreedySelect:
    def test_full_budget_selects_everything(self):
        g = path_graph(5)
        prior = smoothness_prior(laplacian(g), 0.0)
        for metric in ("trace", "logdet", "max_eig"):
            selection = greedy_select(prior, 5, 1.0, metric)
            assert selection.nodes == tuple(range(5))

    def test_star_budget_one_picks_hub(self):
        g = star_graph(6)
        prior = smoothness_prior(laplacian(g), 0.0)
        selection = greedy_select(prior, 1, 1.0, "trace")
        oracle = exhaustive_select(prior, 1, 1.0, "trace")
        assert selection.nodes == oracle.nodes == (0,)

    def test_edgeless_tie_breaks_to_lowest_id(self):
        g = Graph(4, [])
        prior = smoothness_prior(laplacian(g), 0.5)
        selection = greedy_select(prior, 1, 1.0, "trace")
        assert selection.nodes == (0,)

    def test_budget_one_matches_exhaustive_search(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            g = random_graph(rng, int(rng.integers(4, 11)))
            prior = smoothness_prior(laplacian(g), 1e-3)
            for metric in ("trace", "logdet", "max_eig"):
                greedy = greedy_select(prior, 1, 1.0, metric)
                oracle = exhaustive_select(prior, 1, 1.0, metric)
                assert greedy.nodes == oracle.nodes

    def test_growing_budget_never_worsens_metric(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 9)
        prior = smoothness_prior(laplacian(g), 1e-3)
        for metric in ("trace", "max_eig"):
            previous = math.inf
            for budget in range(1, 6):
                selection = greedy_select(prior, budget, 1.0, metric)
                summary = posterior_for(g, selection.nodes, 1.0, eps=1e-3)
                value = covariance_metric(summary, metric)
                assert value <= previous + 1e-10
                previous = value

    def test_budget_bounds(self):
        prior = smoothness_prior(laplacian(path_graph(3)), 0.0)
        with pytest.raises(ValueError, match="budget"):
            greedy_select(prior, 0, 1.0)
        with pytest.raises(ValueError, match="budget"):
            greedy_select(prior, 4, 1.0)

    @pytest.mark.parametrize("budget", [2.0, 1.5])
    def test_budget_must_be_an_integer(self, budget):
        prior = smoothness_prior(laplacian(path_graph(3)), 0.0)
        with pytest.raises(ValueError, match=f"^budget must be an integer, got {budget!r}$"):
            greedy_select(prior, budget, 1.0)

    @pytest.mark.parametrize("sigma2", [-1.0, math.nan])
    def test_bad_noise_variance_raises_before_any_scoring(self, monkeypatch, sigma2):
        def never(*args, **kwargs):
            raise AssertionError("a candidate was scored")

        for name in ("_screen", "_exact_scores"):
            monkeypatch.setattr(sampling_eval, name, never)
        prior = smoothness_prior(laplacian(path_graph(3)), 0.0)
        with pytest.raises(ValueError,
                           match=f"sigma2 must be finite and non-negative, got {sigma2!r}"):
            greedy_select(prior, 1, sigma2, "trace")

    def test_noise_free_selection_collapses_variance(self):
        g = path_graph(4)
        prior = smoothness_prior(laplacian(g), 1e-3)
        selection = greedy_select(prior, 4, 0.0, "trace")
        summary = posterior_for(g, selection.nodes, 0.0, eps=1e-3)
        assert covariance_metric(summary, "trace") == 0.0


def disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(i + offset, j + offset) for i, j in g.edges]
        offset += g.n
    return Graph(offset, edges)


class TestScreenedGreedy:
    """greedy_select screens candidates from one posterior per round and
    must return the sets of the per-candidate reference."""

    @pytest.mark.parametrize("eps", [0.0, 1e-6, 1.0])
    @pytest.mark.parametrize("sigma2", [0.0, 1e-6, 1.0])
    def test_matches_reference_on_random_graphs(self, eps, sigma2):
        rng = np.random.default_rng([int(eps * 1e6), int(sigma2 * 1e6), 8])
        graphs = [
            random_graph(rng, int(rng.integers(4, 11))),
            random_connected_graph(rng, int(rng.integers(4, 11))),
            # two or three components, none of them observed at the start
            disjoint_union(*(random_connected_graph(rng, int(rng.integers(1, 5)))
                             for _ in range(int(rng.integers(2, 4))))),
        ]
        for g in graphs:
            prior = smoothness_prior(laplacian(g), eps)
            for metric in ("trace", "logdet", "max_eig"):
                for budget in (1, int(rng.integers(2, g.n + 1)), g.n):
                    expected = reference_greedy(prior, budget, sigma2, metric)
                    assert greedy_select(prior, budget, sigma2, metric).nodes == expected

    @pytest.mark.parametrize("sigma2", [0.0, 1e-6, 1.0])
    def test_matches_reference_on_constrained_priors(self, sigma2):
        rng = np.random.default_rng([int(sigma2 * 1e6), 88])
        priors = []
        for eps in (0.0, 1e-6, 1.0):
            g = random_graph(rng, int(rng.integers(4, 9)))
            smooth = smoothness_prior(laplacian(g), eps)
            pins = SamplingOperator(n=g.n, nodes=tuple(sorted(
                int(v) for v in rng.choice(g.n, 2, replace=False))))
            priors.append(smooth.combine(partial_observation(pins, np.zeros(2), 0.0)))
            priors.append(with_constraints(smooth, rng.standard_normal((g.n - 2, g.n))))
        for n in (5, 8):
            basis = np.linalg.qr(rng.standard_normal((n, 2)))[0]
            priors.append(subspace_prior(SubspaceBasis(basis), sigma2_prior=0.0))
            spec = spectral_decomposition(laplacian(random_connected_graph(rng, n)))
            priors.append(subspace_prior(bandlimit_basis(spec, spec.values[2]), sigma2_prior=0.0))
        for prior in priors:
            for metric in ("trace", "logdet", "max_eig"):
                for budget in (1, int(rng.integers(2, prior.n + 1)), prior.n):
                    expected = reference_greedy(prior, budget, sigma2, metric)
                    assert greedy_select(prior, budget, sigma2, metric).nodes == expected

    def test_margin_when_the_lowest_estimate_is_zero(self):
        # Two constraints on a 4-node path leave two directions; after one
        # noise-free sample, any further sample fixes the last one, so every
        # exact trace is 0.0. The closed form often leaves a lower id one
        # ulp above 0.0, and the margin must still reach it.
        zero_best_rounds = 0
        for seed in range(20):
            rows = np.random.default_rng(seed).standard_normal((2, 4))
            prior = with_constraints(smoothness_prior(laplacian(path_graph(4)), 0.0), rows)
            first = reference_greedy(prior, 1, 0.0)
            rest = [v for v in range(4) if v not in first]
            estimates, _ = sampling_eval._screen(
                sampling_eval._posterior(prior, first, 0.0), 0.0, "trace")
            assert all(score(prior, first + (v,), 0.0, "trace") == 0.0
                       for v in rest)
            zero_best_rounds += estimates[rest].min() == 0.0 < estimates[rest[0]]
            assert greedy_select(prior, 2, 0.0).nodes == reference_greedy(prior, 2, 0.0)
        assert zero_best_rounds > 0

    @pytest.mark.parametrize("metric", ["trace", "logdet"])
    def test_trust_check_when_the_cut_reclassifies_a_direction(self, metric):
        # With 1/sigma2 = 1e2 in the fused precision, the cut
        # tau = n eps ||P||_inf, about 2e-13, calls the unobserved blob's
        # eps = 1e-13 directions flat: every exact first-round score is inf,
        # while the closed form, which knows no cut, prefers another node.
        # The lowest id must win.
        g = two_component_graph()
        prior = smoothness_prior(laplacian(g), 1e-13)
        base = sampling_eval._posterior(prior, [], 1e-2)
        assert np.argmin(sampling_eval._screen(base, 1e-2, metric)[0]) != 0
        assert all(score(prior, [v], 1e-2, metric) == math.inf
                   for v in range(g.n))
        selection = greedy_select(prior, 3, 1e-2, metric)
        assert selection.nodes[0] == 0
        assert selection.nodes == reference_greedy(prior, 3, 1e-2, metric)

    def test_screen_alone_decides_which_rounds_are_screened(self, monkeypatch):
        prior = smoothness_prior(laplacian(grid_graph(3, 3)), 0.0)
        noisy, noise_free = (sampling_eval._posterior(prior, [4], s) for s in (1.0, 0.0))

        def screened(base, sigma2, metric):
            # a round without a closed form gets an inf estimate for every node
            return bool(np.isfinite(sampling_eval._screen(base, sigma2, metric)[0]).any())

        assert screened(noisy, 1.0, "trace")
        assert screened(noisy, 1.0, "logdet")
        assert not screened(noisy, 1.0, "max_eig")
        # sigma2 = 0, with and without a zero-variance direction yet
        assert not screened(sampling_eval._posterior(prior, [], 0.0), 0.0, "logdet")
        assert not screened(noise_free, 0.0, "logdet")
        assert screened(noise_free, 0.0, "trace")
        # _next_node asks _screen every round, whatever the metric
        rounds = []
        screen = sampling_eval._screen

        def recording_screen(base, sigma2, metric):
            rounds.append(metric)
            return screen(base, sigma2, metric)

        monkeypatch.setattr(sampling_eval, "_screen", recording_screen)
        for metric in sampling_eval.METRICS:
            greedy_select(prior, 2, 0.0, metric)
        assert rounds == [m for m in sampling_eval.METRICS for _ in range(2)]

    @pytest.mark.parametrize("sigma2, metric, limit", [
        (0.0, "trace", 20),
        (1.0, "logdet", 90),
    ])
    def test_fuse_calls_on_a_9x9_grid(self, monkeypatch, sigma2, metric, limit):
        calls = []

        def counting_fuse(prior, observation):
            calls.append(observation)
            return fuse(prior, observation)

        monkeypatch.setattr(sampling_eval, "fuse", counting_fuse)
        prior = smoothness_prior(laplacian(grid_graph(9, 9)), 0.0)
        greedy_select(prior, 3, sigma2, metric)
        # scoring every candidate takes 81 + 80 + 79 = 240 calls
        assert len(calls) <= limit


@st.composite
def scoring_rounds(draw):
    """(prior, selected) of one greedy round on a small random graph: one
    component or two, under a smoothness or an exact subspace prior."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g = random_graph(rng, draw(st.integers(2, 9)))
    else:
        g = disjoint_union(random_connected_graph(rng, draw(st.integers(1, 5))),
                           random_connected_graph(rng, draw(st.integers(1, 5))))
    lap = laplacian(g)
    if draw(st.booleans()):
        prior = smoothness_prior(lap, draw(st.sampled_from([0.0, 1e-6, 0.5])))
    else:
        dim = draw(st.integers(1, g.n))
        prior = subspace_prior(SubspaceBasis(spectral_decomposition(lap).vectors[:, :dim]),
                               sigma2_prior=0.0)
    selected = draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n - 1))
    return prior, selected


class TestStackedExactScores:
    """A round's exact scores come from stacked eigendecompositions on a
    pool; every bit must be the one of a fuse per candidate."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(scoring_rounds(), st.sampled_from([0.0, 0.3, 2.0]),
           st.sampled_from(sampling_eval.METRICS), st.integers(1, 3), st.integers(1, 4))
    def test_scores_are_those_of_one_fuse_per_candidate(self, round_, sigma2, metric,
                                                         cores, per_slice):
        prior, selected = round_
        candidates = [v for v in range(prior.n) if v not in selected]
        expected = []
        for v in candidates:
            op = SamplingOperator(n=prior.n, nodes=tuple(selected + [v]))
            summary = fuse(prior, partial_observation(op, np.zeros(op.n_s), sigma2))
            expected.append(covariance_metric(summary, metric).hex())
        with mock.patch.object(_kernels, "_cores", lambda: cores), \
                mock.patch.object(sampling_eval, "_SLICE_BYTES", per_slice * 8 * prior.n**2):
            scores = sampling_eval._exact_scores(prior, selected, candidates, sigma2, metric)
        assert [float(s).hex() for s in scores] == expected

    @pytest.mark.parametrize("metric", sampling_eval.METRICS)
    def test_one_chunk_with_several_kernel_sizes(self, monkeypatch, metric):
        lap = laplacian(two_component_graph())
        # the two smoothest eigenvectors of each component's Laplacian block
        basis = np.zeros((10, 4))
        for k, block in enumerate((slice(0, 5), slice(5, 10))):
            basis[block, 2 * k:2 * k + 2] = np.linalg.eigh(lap[block, block])[1][:, :2]
        prior = smoothness_prior(lap, 0.5).combine(subspace_prior(SubspaceBasis(basis), 0.0))
        selected, candidates = [0, 5], [1, 2, 3, 4, 6, 7, 8, 9]
        expected = []
        for v in candidates:
            op = SamplingOperator(n=10, nodes=(0, 5, v))
            summary = fuse(prior, partial_observation(op, np.zeros(3), 0.0))
            expected.append(covariance_metric(summary, metric).hex())
        stacks = []

        def recording_split(stack, taus):
            stacks.append(stack.shape)
            return eigen_split(stack, taus)

        eigen_split = sampling_eval._eigen_split
        monkeypatch.setattr(sampling_eval, "_eigen_split", recording_split)
        monkeypatch.setattr(sampling_eval, "_SLICE_BYTES", 8 * 8 * 10**2)  # eight matrices
        scores = sampling_eval._exact_scores(prior, selected, candidates, 0.0, metric)
        # kernel sizes 2, 1, 1, 1, 2, 1, 1, 1 in one chunk: four runs
        assert stacks == [(1, 2, 2), (3, 1, 1), (1, 2, 2), (3, 1, 1)]
        assert [float(s).hex() for s in scores] == expected

    def test_a_round_holds_each_candidate_matrix_once(self, monkeypatch):
        # round 1 of the 9x9 logdet case on one thread: every candidate's
        # matrix is symmetrized into its slot of a stack, so the round's peak
        # is one stack, eigh's eigenvectors of it and one candidate's
        # transients; a chunk held as a list and as its stacked copy is not
        monkeypatch.setattr(_kernels, "_cores", lambda: 1)
        prior = smoothness_prior(laplacian(grid_graph(9, 9)), 0.0)
        n = prior.n
        matrix = 8 * n * n
        stack = sampling_eval._SLICE_BYTES // matrix * matrix
        _, candidate = allocated_beyond_result(
            lambda: _projected(prior, _observed(n, [0], np.zeros(1), 1.0))[-1])
        scores, extra = allocated_beyond_result(
            lambda: sampling_eval._exact_scores(prior, [], list(range(n)), 1.0, "logdet"))
        assert len(scores) == n
        assert extra <= 2 * stack + candidate

    def test_no_pool_thread_outlives_greedy_select(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        monkeypatch.setattr(_kernels, "_cores", lambda: 3)
        monkeypatch.setattr(sampling_eval, "_SLICE_BYTES", 2 * 8 * 10**2)  # two matrices
        prior = smoothness_prior(laplacian(two_component_graph()), 0.0)
        before = threading.enumerate()
        selection = greedy_select(prior, 3, 0.0, "max_eig")
        assert threading.enumerate() == before
        assert started  # each round ran on a pool
        assert selection.nodes == reference_greedy(prior, 3, 0.0, "max_eig")

        # node 1 lifts the negative curvature, every other node leaves it
        indefinite = GaussianBelief(n=10, precision=np.diag([1.0, -1.0] + [2.0] * 8),
                                    info=np.zeros(10))
        with pytest.raises(ValueError, match="indefinite: curvature -1.000e\\+00"):
            greedy_select(indefinite, 2, 0.3, "max_eig")
        assert threading.enumerate() == before

    def test_a_fuse_and_a_round_in_one_slice_start_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        monkeypatch.setattr(_kernels, "_cores", lambda: 2)
        prior = smoothness_prior(laplacian(grid_graph(9, 9)), 0.0)
        fuse(prior, partial_observation(SamplingOperator(n=81, nodes=(3,)), np.zeros(1), 1.0))
        # exact scores of 1, 8 and 1 candidates: 9 matrices fit in a slice
        assert greedy_select(prior, 3, 0.0, "trace").nodes == (16, 40, 65)
        assert started == []
        # 81 candidates take more than one slice, hence a pool
        sampling_eval._exact_scores(prior, [], list(range(81)), 1.0, "logdet")
        assert started

    @pytest.mark.parametrize("cores", [2, 3])
    def test_the_calling_thread_splits_stacks_beside_the_helpers(self, monkeypatch, cores):
        prior = smoothness_prior(laplacian(grid_graph(9, 9)), 0.0)
        monkeypatch.setattr(_kernels, "_cores", lambda: 1)
        expected = sampling_eval._exact_scores(prior, [], list(range(81)), 1.0, "logdet")
        started, split_on = [], set()
        start = threading.Thread.start
        eigen_split = sampling_eval._eigen_split

        def counting_start(thread):
            started.append(thread)
            start(thread)

        def slow_split(stack, taus):
            split_on.add(threading.get_ident())
            time.sleep(0.02)  # every helper is still busy when the caller looks
            return eigen_split(stack, taus)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        monkeypatch.setattr(sampling_eval, "_eigen_split", slow_split)
        monkeypatch.setattr(_kernels, "_cores", lambda: cores)
        # 81 candidates take nine stacks, more than one slice per thread
        scores = sampling_eval._exact_scores(prior, [], list(range(81)), 1.0, "logdet")
        assert [float(s).hex() for s in scores] == [float(s).hex() for s in expected]
        assert 1 <= len(started) <= cores - 1
        assert threading.get_ident() in split_on

    def test_candidates_are_built_by_index_with_no_belief(self, monkeypatch):
        # every first-round logdet estimate at sigma2 = 1 on the 9x9 grid lies
        # within the margin, so all 81 candidates are scored exactly; only the
        # base posterior builds a sampling operator and an observation belief
        calls = dict.fromkeys(("SamplingOperator", "partial_observation"), 0)

        def counted(name, original):
            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return call

        for name in calls:
            monkeypatch.setattr(sampling_eval, name, counted(name, getattr(sampling_eval, name)))
        scored = []
        exact_scores = sampling_eval._exact_scores

        def recording(prior, selected, candidates, sigma2, metric):
            scored.append(list(candidates))
            return exact_scores(prior, selected, candidates, sigma2, metric)

        monkeypatch.setattr(sampling_eval, "_exact_scores", recording)
        prior = smoothness_prior(laplacian(grid_graph(9, 9)), 0.0)
        assert sampling_eval._next_node(prior, [], list(range(81)), 1.0, "logdet") == 78
        assert scored == [list(range(81))]
        assert calls == {"SamplingOperator": 1, "partial_observation": 1}

    def test_sample_select_on_an_8x8_grid_loads_no_thread_pool(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("".join(f"{i} {j}\n" for i, j in grid_graph(8, 8).edges))
        code = (
            "import sys\n"
            "from graphbayes.cli import main\n"
            f"main(['sample-select', {str(edges)!r}, '--budget', '4', '--sigma2', '1'])\n"
            "assert 'concurrent.futures' not in sys.modules\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60,
                       capture_output=True)


class TestExhaustiveSelect:
    def test_greedy_is_no_better_than_exhaustive(self):
        rng = np.random.default_rng(33)
        for _ in range(3):
            g = random_graph(rng, 7)
            prior = smoothness_prior(laplacian(g), 1e-3)
            greedy = greedy_select(prior, 2, 1.0, "trace")
            oracle = exhaustive_select(prior, 2, 1.0, "trace")
            greedy_value = covariance_metric(
                posterior_for(g, greedy.nodes, 1.0, eps=1e-3), "trace"
            )
            oracle_value = covariance_metric(
                posterior_for(g, oracle.nodes, 1.0, eps=1e-3), "trace"
            )
            assert oracle_value <= greedy_value + 1e-12


class TestPermutationInvariance:
    def test_metrics_invariant_under_relabeling(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            n = 8
            g = random_graph(rng, n)
            perm = rng.permutation(n)
            relabeled = Graph(
                n, [(int(perm[i]), int(perm[j])) for i, j in g.edges]
            )
            nodes = tuple(int(v) for v in rng.choice(n, size=3, replace=False))
            mapped = tuple(int(perm[v]) for v in nodes)
            for metric in ("trace", "logdet", "max_eig"):
                original = covariance_metric(
                    posterior_for(g, nodes, 1.0, eps=1e-3), metric
                )
                permuted = covariance_metric(
                    posterior_for(relabeled, mapped, 1.0, eps=1e-3), metric
                )
                assert permuted == pytest.approx(original, rel=1e-9)
