"""Graph construction, Laplacian, and spectral basis behaviour."""

import numpy as np
import pytest

from graphbayes import (
    Graph,
    GraphFormatError,
    gft,
    grid_graph,
    igft,
    laplacian,
    load_edge_list,
    path_graph,
    quadratic_variation,
    random_geometric_graph,
    read_signal_csv,
    Spectrum,
    spectral_decomposition,
    star_graph,
)
from graphbayes import graph_core
from graphbayes.graph_core import _is_sealed

from helpers import fake_physical_memory, random_graph

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestEdgeListLoader:
    def test_path_graph_from_text(self):
        g = load_edge_list("0 1\n1 2")
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_header_fixes_node_count_for_empty_edge_set(self):
        g = load_edge_list("# n=4\n")
        assert g.n == 4
        assert g.edges == frozenset()

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(GraphFormatError, match="line 1.*self-loop"):
            load_edge_list("0 0")

    def test_parse_error_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            load_edge_list("0 1\n0 x")

    def test_wrong_token_count_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            load_edge_list("0 1 2")

    def test_index_beyond_declared_n(self):
        with pytest.raises(GraphFormatError, match="node id 5 >= declared n=3"):
            load_edge_list("# n=3\n0 5")

    def test_earliest_faulty_line_is_named(self):
        with pytest.raises(GraphFormatError, match="line 2: node id 5 >= declared n=3"):
            load_edge_list("# n=3\n0 5\n1 x")
        with pytest.raises(GraphFormatError, match="line 2: node id 5 >= declared n=3"):
            load_edge_list("# n=3\n5 0\n1 1")

    def test_header_after_the_edges_still_declares_n(self):
        with pytest.raises(GraphFormatError, match="line 1: node id 5 >= declared n=3"):
            load_edge_list("0 5\n# n=3")

    def test_last_of_several_headers_wins(self):
        assert load_edge_list("# n=9\n0 1\n# n=4").n == 4
        with pytest.raises(GraphFormatError, match="line 2: node id 5 >= declared n=4"):
            load_edge_list("# n=9\n0 5\n# n=4")

    def test_node_count_reads_the_larger_id_of_a_reversed_pair(self):
        assert load_edge_list("2 0").n == 3

    def test_empty_without_header_is_an_error(self):
        with pytest.raises(GraphFormatError):
            load_edge_list("")

    def test_duplicate_edges_collapse(self):
        g = load_edge_list("0 1\n1 0\n0 1")
        assert g.edges == frozenset({(0, 1)})

    def test_comments_ignored(self):
        g = load_edge_list("# a comment\n0 1\n# another\n")
        assert g.n == 2

    def test_blank_lines_skipped_and_line_numbers_kept(self):
        g = load_edge_list("\n0 1\n   \n\n1 2\n")
        assert g.edges == frozenset({(0, 1), (1, 2)})
        with pytest.raises(GraphFormatError, match="line 3: self-loop at node 2"):
            load_edge_list("0 1\n\n2 2\n")

    def test_one_based_conversion(self):
        g = load_edge_list("1 2\n2 3", one_based=True)
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_one_based_zero_id_is_negative(self):
        with pytest.raises(GraphFormatError, match="negative"):
            load_edge_list("0 1", one_based=True)


class TestGraphType:
    def test_self_loop_invariant(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(n=3, edges=frozenset({(1, 1)}))

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(n=2, edges=frozenset({(0, 2)}))
        with pytest.raises(ValueError, match=r"edge \(3, 0\) out of range for n=3"):
            Graph(3, [(3, 0)])

    def test_constructor_orders_each_pair(self):
        g = Graph(3, [(2, 0)])
        assert g.edges == frozenset({(0, 2)})

    def test_constructor_collapses_a_pair_given_in_both_orders(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert g.edges == frozenset({(0, 1)})

    def test_needs_at_least_one_node(self):
        with pytest.raises(ValueError, match="graph must have at least one node"):
            Graph(n=0, edges=frozenset())

    def test_non_integer_node_id_is_refused_not_truncated(self):
        with pytest.raises(ValueError, match="node id must be an integer, got 0.5"):
            Graph(n=3, edges=frozenset({(0.5, 2)}))

    def test_constructor_refuses_a_non_integer_node_id_in_a_list(self):
        with pytest.raises(ValueError, match="node id must be an integer, got 0.5"):
            Graph(3, [(0.5, 1)])

    def test_non_integer_node_count_is_refused(self):
        with pytest.raises(ValueError, match="node count must be an integer, got 2.5"):
            Graph(2.5, [(0, 1)])

    @pytest.mark.parametrize("n", [True, np.int64(3)])
    def test_node_count_is_stored_as_an_int(self, n):
        g = Graph(n=n, edges=frozenset())
        assert type(g.n) is int and g.n == n

    def test_numpy_integer_ids_and_count_are_accepted(self):
        g = Graph(np.int64(3), [(np.int32(2), np.uint8(0))])
        assert g == Graph(3, [(0, 2)])
        np.testing.assert_array_equal(laplacian(g), laplacian(Graph(3, [(0, 2)])))


class TestLaplacian:
    def test_path3_matrix(self):
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        np.testing.assert_array_equal(laplacian(path_graph(3)), expected)

    def test_edgeless_is_zero(self):
        np.testing.assert_array_equal(
            laplacian(Graph(2, [])), np.zeros((2, 2))
        )

    def test_single_edge(self):
        np.testing.assert_array_equal(
            laplacian(path_graph(2)), np.array([[1.0, -1.0], [-1.0, 1.0]])
        )

    def test_row_sums_zero_and_psd_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 15)))
            lap = laplacian(g)
            np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
            assert abs(np.linalg.eigvalsh(lap)[0]) <= 1e-10
            for _ in range(100):
                x = rng.standard_normal(g.n)
                assert x @ lap @ x >= -1e-10


    @pytest.mark.parametrize("graph", [
        grid_graph(7, 5), star_graph(6), Graph(4, []),
        random_graph(np.random.default_rng(8), 13),
    ], ids=["grid", "star", "edgeless", "random"])
    def test_bits_match_degree_minus_adjacency(self, graph):
        adjacency = np.zeros((graph.n, graph.n))
        for i, j in graph.edges:
            adjacency[i, j] = adjacency[j, i] = 1.0
        reference = np.diag(adjacency.sum(axis=1)) - adjacency
        assert laplacian(graph).tobytes() == reference.tobytes()

    def test_size_beyond_physical_memory_is_refused_before_allocating(self):
        with pytest.raises(ValueError, match="n=1000000 nodes"):
            laplacian(Graph(10**6, [(0, 1)]))

    def test_size_whose_dense_peak_exceeds_memory_is_refused(self, monkeypatch):
        # one 1000 x 1000 array is 8 MB and fits in 40 MB; the ten arrays the
        # dense path holds at its peak do not
        fake_physical_memory(monkeypatch, 40 * 10**6)
        with pytest.raises(ValueError, match="n=1000 nodes needs 0.1 GiB, more than"):
            laplacian(Graph(1000, [(0, 1)]))
        assert laplacian(Graph(700, [(0, 1)])).shape == (700, 700)

    def test_output_is_read_only(self):
        lap = laplacian(path_graph(3))
        with pytest.raises(ValueError, match="read-only"):
            lap[0, 0] = 5.0


class TestSpectralDecomposition:
    def test_single_edge_spectrum_matches_characteristic_polynomial(self):
        # trace 2, det 0 -> eigenvalues 0 and 2; kernel spanned by (1, 1)
        spec = spectral_decomposition(laplacian(path_graph(2)))
        np.testing.assert_allclose(spec.values, [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(
            spec.vectors[:, 0], [INV_SQRT2, INV_SQRT2], atol=1e-12
        )
        np.testing.assert_allclose(
            spec.vectors[:, 1], [INV_SQRT2, -INV_SQRT2], atol=1e-12
        )

    def test_path3_eigenvalues(self):
        # det(L - t I) = -t (1 - t) (t - 3) by cofactor expansion
        spec = spectral_decomposition(laplacian(path_graph(3)))
        np.testing.assert_allclose(spec.values, [0.0, 1.0, 3.0], atol=1e-10)

    def test_zero_matrix(self):
        spec = spectral_decomposition(np.zeros((3, 3)))
        np.testing.assert_allclose(spec.values, np.zeros(3), atol=0)

    def test_sign_convention_first_nonzero_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            g = random_graph(rng, 9)
            spec = spectral_decomposition(laplacian(g))
            for k in range(g.n):
                col = spec.vectors[:, k]
                lead = col[np.abs(col) > 1e-12][0]
                assert lead > 0

    @pytest.mark.parametrize("mat", [
        laplacian(grid_graph(w, h)) for w, h in ((3, 3), (4, 4), (6, 6), (5, 3))
    ] + [np.zeros((3, 3))], ids=["3x3", "4x4", "6x6", "5x3", "zero"])
    def test_sign_fix_matches_per_column_loop(self, mat):
        # square grids have degenerate eigenspaces, where eigh's signs are
        # arbitrary and the fix decides the output
        _, reference = np.linalg.eigh(mat)
        for k in range(reference.shape[1]):
            col = reference[:, k]
            nonzero = np.nonzero(np.abs(col) > 1e-12)[0]
            if nonzero.size and col[nonzero[0]] < 0:
                reference[:, k] = -col
        assert spectral_decomposition(mat).vectors.tobytes() == reference.tobytes()

    def test_reconstructs_operator(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 12)
        lap = laplacian(g)
        spec = spectral_decomposition(lap)
        rebuilt = spec.vectors @ np.diag(spec.values) @ spec.vectors.T
        assert np.max(np.abs(rebuilt - lap)) <= 1e-9

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="symmetric"):
            spectral_decomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_a_non_square_input(self):
        with pytest.raises(ValueError, match=r"matrix must be square, got shape \(2, 3\)"):
            spectral_decomposition(np.zeros((2, 3)))

    def test_rejects_a_finite_input_whose_eigenvalue_overflows(self):
        # eigh returns eigenvalue inf for the largest, 2e308
        with pytest.raises(ValueError, match="eigenvalues contain non-finite entries"):
            spectral_decomposition(np.full((2, 2), 1e308))

    def test_arrays_are_eighs_own_sealed_not_copied(self, monkeypatch):
        made = []
        eigh = np.linalg.eigh

        def recording_eigh(mat):
            made.append(eigh(mat))
            return made[-1]

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        spec = spectral_decomposition(laplacian(grid_graph(3, 2)))
        values, vectors = made[0]
        assert spec.values is values and spec.vectors is vectors
        assert _is_sealed(spec.values) and _is_sealed(spec.vectors)
        again = Spectrum(vectors=spec.vectors, values=spec.values)
        assert again.vectors is spec.vectors and again.values is spec.values


class TestRequireSymmetric:
    """``_require_symmetric`` compares tiles of rows against their columns;
    its verdict is that of the whole ``|mat - mat.T|`` against the bound."""

    _MESSAGE = r"^matrix is not symmetric to 1e-12 times its largest \|entry\|$"

    @pytest.mark.parametrize("where", [(-1, -2), (-2, -1), (-3, -1)])
    def test_an_asymmetry_in_the_last_ragged_tile_alone_is_found(self, where):
        n = 2 * graph_core._SYMMETRY_TILE + 3  # the last tile has 3 rows
        mat = np.eye(n)
        mat[where] = 0.25
        with pytest.raises(ValueError, match=self._MESSAGE):
            graph_core._require_symmetric(mat)
        mat[where[::-1]] = 0.25
        assert graph_core._require_symmetric(mat) is mat

    @pytest.mark.parametrize("scale", [2.0**-30, 1.0, 2.0**40])
    @pytest.mark.parametrize("where", [(-1, -2), (-2, -1), (0, -1), (-1, 0), (40, 3)])
    def test_an_asymmetry_at_the_tolerance_passes_and_one_just_past_it_fails(self, scale, where):
        # the largest |entry| is scale, so the bound is exactly 1e-12 scale
        n = 2 * graph_core._SYMMETRY_TILE + 3
        mat = np.eye(n) * scale
        mat[where] = graph_core._SYMMETRY_TOL * scale
        graph_core._require_symmetric(mat)
        mat[where] = np.nextafter(graph_core._SYMMETRY_TOL * scale, np.inf)
        with pytest.raises(ValueError, match=self._MESSAGE):
            graph_core._require_symmetric(mat)

    @pytest.mark.parametrize("seed", range(40))
    def test_the_verdict_is_that_of_the_whole_difference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3 * graph_core._SYMMETRY_TILE + 2))
        mat = rng.standard_normal((n, n))
        mat += mat.T
        i, j = rng.integers(n, size=2)
        mat[i, j] += rng.choice([0.5, 0.9, 1.1, 2.0]) * 1e-12 * np.abs(mat).max()
        scale = np.abs(mat).max()
        whole = np.abs(mat - mat.T).max() > graph_core._SYMMETRY_TOL * scale
        if whole:
            with pytest.raises(ValueError, match=self._MESSAGE):
                graph_core._require_symmetric(mat)
        else:
            graph_core._require_symmetric(mat)


class TestSpectrum:
    def test_a_callers_arrays_are_copied_and_left_writable(self):
        vectors, values = np.eye(3), np.array([0.0, 1.0, 2.0])
        earlier_view = vectors[:]
        spec = Spectrum(vectors=vectors, values=values)
        assert vectors.flags.writeable and values.flags.writeable
        earlier_view[0, 0] = 5.0
        values[0] = -1.0
        np.testing.assert_array_equal(spec.vectors, np.eye(3))
        np.testing.assert_array_equal(spec.values, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="read-only"):
            spec.vectors[0, 0] = 5.0

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_eigenvalue_order_is_checked_relative_to_the_largest(self, scale):
        # a descent of 1e-14 of the largest eigenvalue is rounding at any scale
        Spectrum(vectors=np.eye(3), values=scale * np.array([0.0, 1.0, 1.0 - 1e-14]))
        with pytest.raises(ValueError, match="ascending"):
            Spectrum(vectors=np.eye(3), values=scale * np.array([0.0, 1.0, 0.5]))

    def test_rejects_a_basis_that_is_not_orthonormal(self):
        with pytest.raises(ValueError, match="eigenvector columns not orthonormal"):
            Spectrum(vectors=2.0 * np.eye(2), values=np.array([0.0, 1.0]))

    def test_a_sealed_array_that_is_not_orthonormal_is_still_rejected(self):
        with pytest.raises(ValueError, match="eigenvector columns not orthonormal"):
            Spectrum(vectors=laplacian(path_graph(3)), values=np.arange(3.0))

    def test_decomposition_skips_the_gram_check_its_vectors_pass(self, monkeypatch):
        checked = []
        monkeypatch.setattr(graph_core, "_require_orthonormal",
                            lambda basis, name="basis": checked.append(basis))
        monkeypatch.setattr(Spectrum, "__post_init__", lambda self: checked.append(self))
        spec = spectral_decomposition(laplacian(grid_graph(32, 34)))
        assert checked == []
        monkeypatch.undo()
        graph_core._require_orthonormal(spec.vectors)

    def test_rejects_arrays_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match="eigenvector matrix must be square"):
            Spectrum(vectors=np.eye(3)[:, :2], values=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="eigenvalue vector length must match basis size"):
            Spectrum(vectors=np.eye(2), values=np.array([0.0, 1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 1])
    def test_rejects_non_finite_eigenvalues(self, bad, where):
        # a NaN step passes an ascending check made with <
        values = np.array([0.0, 1.0])
        values[where] = bad
        with pytest.raises(ValueError, match="eigenvalues contain non-finite entries"):
            Spectrum(vectors=np.eye(2), values=values)


class TestFourierTransform:
    def test_eigenvector_maps_to_unit_coefficient(self):
        spec = spectral_decomposition(laplacian(path_graph(4)))
        for i in range(4):
            coeffs = gft(spec, spec.vectors[:, i])
            expected = np.zeros(4)
            expected[i] = 1.0
            np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    def test_zero_signal(self):
        spec = spectral_decomposition(laplacian(path_graph(3)))
        np.testing.assert_array_equal(gft(spec, np.zeros(3)), np.zeros(3))

    def test_single_edge_indicator_signal(self):
        # V' e_0: both eigenvectors have first entry 1/sqrt(2)
        spec = spectral_decomposition(laplacian(path_graph(2)))
        np.testing.assert_allclose(
            gft(spec, np.array([1.0, 0.0])), [INV_SQRT2, INV_SQRT2], atol=1e-12
        )

    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 10)
        spec = spectral_decomposition(laplacian(g))
        for _ in range(20):
            x = rng.standard_normal(10)
            assert np.max(np.abs(igft(spec, gft(spec, x)) - x)) <= 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, 14)
        spec = spectral_decomposition(laplacian(g))
        for _ in range(20):
            x = rng.standard_normal(14)
            assert abs(np.sum(x**2) - np.sum(gft(spec, x) ** 2)) <= 1e-10

    def test_dimension_mismatch(self):
        spec = spectral_decomposition(laplacian(path_graph(3)))
        with pytest.raises(ValueError, match="shape"):
            gft(spec, np.ones(4))
        with pytest.raises(ValueError, match="shape"):
            igft(spec, np.ones(2))


class TestQuadraticVariation:
    def test_constant_signal_is_smooth(self):
        g = path_graph(5)
        assert quadratic_variation(laplacian(g), np.full(5, 3.7)) == pytest.approx(0.0, abs=1e-12)

    def test_single_edge_alternating(self):
        # [1, -1] L [1, -1]' = 2 - (-2) = 4
        assert quadratic_variation(
            laplacian(path_graph(2)), np.array([1.0, -1.0])
        ) == pytest.approx(4.0, abs=1e-12)

    def test_unit_eigenvector_gives_eigenvalue(self):
        g = path_graph(4)
        lap = laplacian(g)
        spec = spectral_decomposition(lap)
        for i in range(4):
            assert quadratic_variation(lap, spec.vectors[:, i]) == pytest.approx(
                spec.values[i], abs=1e-10
            )

    def test_spectral_form_equivalence(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            g = random_graph(rng, 12)
            lap = laplacian(g)
            spec = spectral_decomposition(lap)
            x = rng.standard_normal(12) * rng.uniform(0.1, 10)
            direct = quadratic_variation(lap, x)
            spectral = float(spec.values @ gft(spec, x) ** 2)
            assert abs(direct - spectral) <= 1e-9 * (1.0 + np.sum(x**2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            quadratic_variation(laplacian(path_graph(3)), np.ones(2))


class TestGenerators:
    def test_grid_counts(self):
        g = grid_graph(3, 2)
        assert g.n == 6
        assert len(g.edges) == 2 * 2 + 3 * 1  # horizontal + vertical

    def test_star_degrees(self):
        lap = laplacian(star_graph(5))
        assert lap[0, 0] == 4.0
        assert all(lap[i, i] == 1.0 for i in range(1, 5))

    def test_random_geometric_deterministic(self):
        a = random_geometric_graph(15, 0.4, seed=5)
        b = random_geometric_graph(15, 0.4, seed=5)
        assert a == b

    # 300 nodes span two row blocks
    @pytest.mark.parametrize("n, seed", [(1, 0), (2, 5), (40, 0), (40, 5), (40, 11),
                                         (300, 11)])
    def test_random_geometric_matches_pairwise_loop(self, n, seed):
        # reference: every pair i < j through the scalar np.hypot test
        pts = np.random.default_rng(seed).uniform(size=(n, 2))
        dist = {(i, j): np.hypot(*(pts[i] - pts[j]))
                for i in range(n) for j in range(i + 1, n)}
        for radius in (0.05, 0.3, 1.5):
            expected = Graph(n, [pair for pair, d in dist.items() if d <= radius])
            graph = random_geometric_graph(n, radius, seed=seed)
            assert graph == expected
            assert all(type(v) is int for edge in graph.edges for v in edge)

    @pytest.mark.parametrize("width, height", [(1, 1), (1, 7), (7, 1), (4, 5), (9, 9)])
    def test_grid_matches_pairwise_loop(self, width, height):
        # reference: the right and down neighbour of every node, row-major
        pairs = []
        for r in range(height):
            for c in range(width):
                v = r * width + c
                if c + 1 < width:
                    pairs.append((v, v + 1))
                if r + 1 < height:
                    pairs.append((v, v + width))
        graph = grid_graph(width, height)
        assert graph == Graph(width * height, pairs)
        assert all(type(v) is int for edge in graph.edges for v in edge)

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            grid_graph(0, 3)
        with pytest.raises(ValueError):
            random_geometric_graph(5, 0.0, seed=1)
        with pytest.raises(ValueError, match="star graph needs at least 2 nodes"):
            star_graph(1)
        with pytest.raises(ValueError, match="need at least one node"):
            random_geometric_graph(0, 0.5, seed=1)

    @pytest.mark.parametrize("radius", [0.0, -0.5, np.nan, np.inf])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            random_geometric_graph(5, radius, seed=1)


class TestSignalCsv:
    def test_roundtrip(self):
        values = read_signal_csv("node,value\n0,1.5\n2,-3.0\n")
        assert values == {0: 1.5, 2: -3.0}

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            read_signal_csv("0,1.5\n")

    def test_duplicate_node(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            read_signal_csv("node,value\n0,1.0\n0,2.0\n")

    def test_non_finite_value(self):
        with pytest.raises(GraphFormatError, match="non-finite"):
            read_signal_csv("node,value\n0,nan\n")

    @pytest.mark.parametrize("row, message", [
        ("0,1.0,2.0", "line 3: expected 'node,value'"),
        ("one,1.0", "line 3: could not parse 'one,1.0'"),
        ("1,high", "line 3: could not parse '1,high'"),
        # blank lines are counted, as in load_edge_list
        ("\nbad", "line 4: expected 'node,value'"),
        ("\n  \n1,x", "line 5: could not parse '1,x'"),
    ])
    def test_malformed_row_reports_line(self, row, message):
        with pytest.raises(GraphFormatError, match=f"^{message}$"):
            read_signal_csv(f"node,value\n0,1.0\n{row}\n")
