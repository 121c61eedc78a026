"""End-to-end command-line behaviour: outputs, exit codes, determinism."""

import numpy as np
import pytest

from graphbayes import cli
from graphbayes.cli import main

from helpers import fake_physical_memory


@pytest.fixture
def p2_files(tmp_path):
    graph = tmp_path / "p2.edges"
    graph.write_text("0 1\n")
    signal = tmp_path / "p2.csv"
    signal.write_text("node,value\n0,1.0\n1,1.0\n")
    return graph, signal


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_single_edge_means_and_variances(self, capsys, p2_files):
        graph, signal = p2_files
        code, out, _ = run_cli(capsys, ["estimate", str(graph), str(signal), "--sigma2", "1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "node,mean,variance"
        for line in lines[1:]:
            _, mean, variance = line.split(",")
            assert float(mean) == pytest.approx(1.0, abs=1e-10)
            assert float(variance) == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_noise_free_bandlimited_extrapolates(self, capsys, tmp_path, p2_files):
        graph, _ = p2_files
        signal = tmp_path / "one.csv"
        signal.write_text("node,value\n0,4.5\n")
        code, out, _ = run_cli(
            capsys,
            ["estimate", str(graph), str(signal), "--noise-free", "--nodes", "0",
             "--prior", "bandlimit:0"],
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        for line in lines:
            _, mean, variance = line.split(",")
            assert float(mean) == pytest.approx(4.5, abs=1e-9)
            assert float(variance) == pytest.approx(0.0, abs=1e-12)

    def test_partial_observation_reports_inf_variance(self, capsys, tmp_path):
        graph = tmp_path / "pair.edges"
        graph.write_text("# n=2\n")  # two isolated nodes
        signal = tmp_path / "sig.csv"
        signal.write_text("node,value\n0,5.0\n")
        code, out, _ = run_cli(
            capsys,
            ["estimate", str(graph), str(signal), "--sigma2", "1", "--nodes", "0"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "0,5,1"
        assert lines[2] == "1,0,inf"

    @pytest.mark.filterwarnings("error")
    def test_ridge_near_the_largest_double_stays_finite(self, capsys, tmp_path):
        # the fused precision's entries are about 1e308: its symmetrizing
        # sum must not overflow
        graph = tmp_path / "p3.edges"
        graph.write_text("0 1\n1 2\n")
        signal = tmp_path / "p3.csv"
        signal.write_text("node,value\n0,1\n1,2\n2,3\n")
        code, out, _ = run_cli(capsys, ["estimate", str(graph), str(signal), "--sigma2", "1",
                                        "--eps", "1e308"])
        assert code == 0
        assert out == "node,mean,variance\n0,1e-308,1e-308\n1,2e-308,1e-308\n2,3e-308,1e-308\n"

    def test_missing_file_exits_one(self, capsys, p2_files):
        _, signal = p2_files
        code, _, err = run_cli(capsys, ["estimate", "no-such.edges", str(signal), "--sigma2", "1"])
        assert code == 1
        assert "error" in err

    def test_conflicting_noise_flags_exit_one(self, capsys, p2_files):
        graph, signal = p2_files
        code, _, err = run_cli(
            capsys,
            ["estimate", str(graph), str(signal), "--sigma2", "1", "--noise-free"],
        )
        assert code == 1
        assert "mutually exclusive" in err

    def test_missing_noise_spec_exits_one(self, capsys, p2_files):
        graph, signal = p2_files
        code, _, _ = run_cli(capsys, ["estimate", str(graph), str(signal)])
        assert code == 1

    def test_inconsistent_constraints_exit_two(self, capsys, tmp_path, p2_files):
        graph, _ = p2_files
        signal = tmp_path / "conflict.csv"
        signal.write_text("node,value\n0,1.0\n1,2.0\n")
        code, _, err = run_cli(
            capsys,
            ["estimate", str(graph), str(signal), "--noise-free", "--prior", "bandlimit:0"],
        )
        assert code == 2
        assert "inconsistent" in err

    def test_signal_missing_required_node_exits_one(self, capsys, tmp_path, p2_files):
        graph, _ = p2_files
        signal = tmp_path / "short.csv"
        signal.write_text("node,value\n0,1.0\n")
        code, _, err = run_cli(capsys, ["estimate", str(graph), str(signal), "--sigma2", "1"])
        assert code == 1
        assert "lacks values" in err

    def test_byte_order_marks_do_not_change_the_output(self, capsys, tmp_path):
        # as Excel's "CSV UTF-8" and Windows Notepad write them
        graph, signal = tmp_path / "p3.edges", tmp_path / "p3.csv"
        graph.write_text("0 1\n1 2\n")
        signal.write_text("node,value\n0,1.5\n2,-1\n")
        marked_graph, marked_signal = tmp_path / "bom.edges", tmp_path / "bom.csv"
        marked_graph.write_bytes(b"\xef\xbb\xbf" + graph.read_bytes())
        marked_signal.write_bytes(b"\xef\xbb\xbf" + signal.read_bytes())
        argv = ["--sigma2", "0.5", "--nodes", "0,2"]
        plain = run_cli(capsys, ["estimate", str(graph), str(signal), *argv])
        assert plain[0] == 0
        assert run_cli(capsys, ["estimate", str(marked_graph), str(signal), *argv]) == plain
        assert run_cli(capsys, ["estimate", str(graph), str(marked_signal), *argv]) == plain

    def test_out_file(self, tmp_path, capsys, p2_files):
        graph, signal = p2_files
        target = tmp_path / "result.csv"
        code, out, _ = run_cli(
            capsys,
            ["estimate", str(graph), str(signal), "--sigma2", "1", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("node,mean,variance")

    def test_usage_error_exits_one(self, capsys, p2_files):
        graph, signal = p2_files
        code, _, err = run_cli(
            capsys, ["estimate", str(graph), str(signal), "--sigma2", "not-a-number"]
        )
        assert code == 1


class TestUncertainty:
    def test_constant_mode_returns_noise_variance(self, capsys, p2_files):
        graph, _ = p2_files
        code, out, _ = run_cli(
            capsys,
            ["uncertainty", str(graph), "--sigma2", "3", "--direction", "eig:0"],
        )
        assert code == 0
        assert float(out) == pytest.approx(3.0, abs=1e-12)

    def test_node_direction_matches_estimate_variance_column(self, capsys, p2_files):
        graph, signal = p2_files
        code, est_out, _ = run_cli(
            capsys, ["estimate", str(graph), str(signal), "--sigma2", "1"]
        )
        assert code == 0
        variance_col = [float(line.split(",")[2]) for line in est_out.strip().splitlines()[1:]]
        for node in (0, 1):
            code, out, _ = run_cli(
                capsys,
                ["uncertainty", str(graph), "--sigma2", "1", "--direction", f"node:{node}"],
            )
            assert code == 0
            assert float(out) == pytest.approx(variance_col[node], rel=1e-12)

    def test_csv_direction(self, capsys, p2_files):
        graph, _ = p2_files
        code, out, _ = run_cli(
            capsys,
            ["uncertainty", str(graph), "--sigma2", "1", "--direction", "1,-1"],
        )
        assert code == 0
        assert float(out) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_zero_direction_exits_one(self, capsys, p2_files):
        graph, _ = p2_files
        code, _, err = run_cli(
            capsys,
            ["uncertainty", str(graph), "--sigma2", "1", "--direction", "0,0"],
        )
        assert code == 1
        assert "nonzero" in err

    def test_direction_scale_does_not_change_the_line(self, capsys, tmp_path):
        # the constant direction has the noise variance, 1, at every scale
        graph = tmp_path / "p3.edges"
        graph.write_text("# n=3\n0 1\n1 2\n")
        for direction in ("1,1,1", "1e300,1e300,1e300", "1e-200,1e-200,1e-200"):
            code, out, err = run_cli(
                capsys,
                ["uncertainty", str(graph), "--sigma2", "1", "--direction", direction],
            )
            assert (code, out, err) == (0, "1\n", "")

    @pytest.mark.parametrize("direction", ["1,nan,0,0", "1,inf,0,0"])
    def test_non_finite_direction_exits_one(self, capsys, tmp_path, direction):
        graph = tmp_path / "p4.edges"
        graph.write_text("# n=4\n0 1\n1 2\n2 3\n")
        code, out, err = run_cli(
            capsys,
            ["uncertainty", str(graph), "--sigma2", "1", "--direction", direction],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: direction contains non-finite")

    def test_wrong_length_direction_exits_one(self, capsys, p2_files):
        graph, _ = p2_files
        code, out, err = run_cli(
            capsys,
            ["uncertainty", str(graph), "--sigma2", "1", "--direction", "1,0,0"],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: direction must have shape (2,), got (3,)")

    def test_huge_declared_node_count_exits_one(self, capsys, tmp_path):
        # A 10^6-node graph needs a 7.28 TiB dense Laplacian; the size is
        # refused against physical memory before anything is allocated.
        graph = tmp_path / "huge.edges"
        graph.write_text("# n=1000000\n0 1\n")
        code, out, err = run_cli(
            capsys,
            ["uncertainty", str(graph), "--sigma2", "1", "--direction", "node:0"],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "1000000" in err

    def test_node_count_whose_dense_peak_exceeds_memory_exits_one(
            self, capsys, monkeypatch, tmp_path):
        # one 1000 x 1000 array fits in the faked 40 MB; the dense path's peak does not
        fake_physical_memory(monkeypatch, 40 * 10**6)
        graph = tmp_path / "big.edges"
        graph.write_text("# n=1000\n0 1\n")
        code, out, err = run_cli(
            capsys,
            ["uncertainty", str(graph), "--sigma2", "1", "--direction", "node:0"],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: the dense path for n=1000 nodes needs 0.1 GiB, more than")


class TestSimulate:
    def test_grid_run_produces_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["simulate", "--grid", "4x4", "--sigma2", "3", "--eps", "1e-6",
             "--trials", "200", "--seed", "7"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# eps=1e-06 sigma2=3 trials=200 seed=7"
        assert lines[1] == "node,variance,mse,ratio"
        assert len(lines) == 2 + 16

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        args = ["simulate", "--grid", "3x3", "--sigma2", "1", "--eps", "1e-4",
                "--trials", "100", "--seed", "5"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_zero_trials_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["simulate", "--grid", "2x2", "--sigma2", "1", "--eps", "1e-4", "--trials", "0"],
        )
        assert code == 1
        assert "trials" in err

    def test_rgg_source_is_deterministic(self, tmp_path, capsys):
        args = ["simulate", "--rgg", "12,0.5", "--sigma2", "1", "--eps", "1e-4",
                "--trials", "50", "--seed", "3"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_requires_exactly_one_graph_source(self, capsys, p2_files):
        graph, _ = p2_files
        code, _, err = run_cli(
            capsys,
            ["simulate", str(graph), "--grid", "2x2", "--sigma2", "1", "--eps", "1e-4",
             "--trials", "10"],
        )
        assert code == 1
        assert "exactly one" in err

    @pytest.mark.parametrize("source, n", [(["--grid", "400x400"], 160000),
                                           (["--rgg", "1000,0.1"], 1000)])
    def test_oversized_generated_graph_is_refused_before_it_is_built(
            self, capsys, monkeypatch, source, n):
        # ten 1000 x 1000 arrays exceed the faked 40 MB, so no generator may run
        fake_physical_memory(monkeypatch, 40 * 10**6)

        def unbuilt(*args, **kwargs):
            raise AssertionError("graph generated before its size was checked")

        monkeypatch.setattr(cli, "grid_graph", unbuilt)
        monkeypatch.setattr(cli, "random_geometric_graph", unbuilt)
        code, out, err = run_cli(
            capsys, ["simulate", *source, "--sigma2", "1", "--eps", "1", "--trials", "1"])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: the dense path for n={n} nodes needs ")


class TestNonFiniteFlags:
    @pytest.mark.parametrize("argv, name", [
        (["simulate", "{graph}", "--sigma2", "inf", "--eps", "1e-6", "--trials", "10"],
         "sigma2"),
        (["estimate", "{graph}", "{signal}", "--sigma2", "1", "--eps", "nan"], "eps"),
        (["estimate", "{graph}", "{signal}", "--sigma2", "1", "--eps", "inf"], "eps"),
        (["estimate", "{graph}", "{signal}", "--sigma2", "nan"], "sigma2"),
        (["uncertainty", "{graph}", "--sigma2", "inf", "--direction", "node:0"], "sigma2"),
        (["sample-select", "{graph}", "--budget", "1", "--sigma2", "1", "--eps", "nan"],
         "eps"),
        (["simulate", "--rgg", "10,nan", "--sigma2", "1", "--eps", "1e-6", "--trials", "10"],
         "radius"),
    ])
    def test_exit_one_naming_the_parameter(self, capsys, p2_files, argv, name):
        graph, signal = p2_files
        argv = [a.format(graph=graph, signal=signal) for a in argv]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {name} must be finite and")


class TestNegativeValues:
    """A value after a flag may start with a minus sign."""

    @pytest.fixture
    def p4_graph(self, tmp_path):
        graph = tmp_path / "p4.edges"
        graph.write_text("# n=4\n0 1\n1 2\n2 3\n")
        return str(graph)

    @pytest.mark.parametrize("direction", ["-1,1,0,0", "-.5,1,0,0"])
    def test_direction_with_negative_first_entry(self, capsys, p4_graph, direction):
        base = ["uncertainty", p4_graph, "--sigma2", "1"]
        code, out, _ = run_cli(capsys, [*base, "--direction", direction])
        assert code == 0
        assert run_cli(capsys, [*base, f"--direction={direction}"]) == (0, out, "")

    @pytest.mark.parametrize("eps", ["-1e-9", "-inf", "-nan"])
    def test_negative_eps_reaches_the_library_check(self, capsys, p4_graph, eps):
        code, out, err = run_cli(
            capsys,
            ["uncertainty", p4_graph, "--sigma2", "1", "--eps", eps, "--direction", "node:0"],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: eps must be finite and non-negative")

    def test_a_flag_still_cannot_stand_in_for_a_value(self, capsys, p4_graph):
        code, _, err = run_cli(
            capsys, ["uncertainty", p4_graph, "--sigma2", "1", "--direction", "--eps"],
        )
        assert code == 1
        assert "--direction: expected one argument" in err


class TestSampleSelect:
    def test_full_budget_lists_all_nodes(self, capsys, p2_files):
        graph, _ = p2_files
        code, out, _ = run_cli(
            capsys,
            ["sample-select", str(graph), "--budget", "2", "--sigma2", "1"],
        )
        assert code == 0
        ids_line, value_line = out.strip().splitlines()
        assert ids_line == "0 1"
        assert float(value_line) > 0

    def test_star_hub_selected_first(self, capsys, tmp_path):
        graph = tmp_path / "star.edges"
        graph.write_text("".join(f"0 {i}\n" for i in range(1, 6)))
        code, out, _ = run_cli(
            capsys,
            ["sample-select", str(graph), "--budget", "1", "--sigma2", "1",
             "--metric", "trace"],
        )
        assert code == 0
        assert out.strip().splitlines()[0] == "0"

    def test_budget_beyond_n_exits_one(self, capsys, p2_files):
        graph, _ = p2_files
        code, _, err = run_cli(
            capsys,
            ["sample-select", str(graph), "--budget", "3", "--sigma2", "1"],
        )
        assert code == 1
        assert "budget" in err

    def test_maxeig_metric_flag(self, capsys, p2_files):
        graph, _ = p2_files
        code, out, _ = run_cli(
            capsys,
            ["sample-select", str(graph), "--budget", "1", "--sigma2", "1",
             "--metric", "maxeig"],
        )
        assert code == 0


class TestDeterminism:
    def test_estimate_outputs_are_byte_identical(self, tmp_path, capsys, p2_files):
        graph, signal = p2_files
        args = ["estimate", str(graph), str(signal), "--sigma2", "0.7", "--eps", "1e-5"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_uncertainty_output_is_byte_identical(self, capsys, p2_files):
        graph, _ = p2_files
        args = ["uncertainty", str(graph), "--sigma2", "2", "--direction", "eig:1"]
        _, out_a, _ = run_cli(capsys, args)
        _, out_b, _ = run_cli(capsys, args)
        assert out_a == out_b

    def test_nodes_all_equals_explicit_full_list(self, capsys, p2_files):
        graph, signal = p2_files
        base = ["estimate", str(graph), str(signal), "--sigma2", "1.7"]
        _, out_all, _ = run_cli(capsys, base + ["--nodes", "all"])
        _, out_list, _ = run_cli(capsys, base + ["--nodes", "0,1"])
        assert out_all == out_list


class TestErrorPaths:
    """Bad flags and files exit 1 with a message naming the problem."""

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "{graph}", "{signal}", "--sigma2", "1", "--out", "{tmp}/no/dir.csv"],
         "cannot write {tmp}/no/dir.csv"),
        (["estimate", "{graph}", "{signal}", "--sigma2", "1", "--nodes", "0,one"],
         "--nodes must be 'all' or comma-separated ids, got '0,one'"),
        (["estimate", "{graph}", "{signal}", "--sigma2", "1", "--nodes", ","],
         "--nodes must name at least one node"),
        (["estimate", "{graph}", "{signal}", "--sigma2", "1", "--nodes", "0,2"],
         "node id 2 out of range for n=2"),
        (["estimate", "{graph}", "{signal}", "--sigma2", "1", "--nodes", "1,1"],
         "duplicate node ids in sampling set"),
        (["estimate", "{graph}", "{signal}", "--noise-free", "--prior", "bandlimit:low"],
         "bad bandlimit in 'bandlimit:low'"),
        (["estimate", "{graph}", "{signal}", "--sigma2", "1", "--prior", "rough"],
         "--prior must be 'smooth' or 'bandlimit:<b>', got 'rough'"),
        (["uncertainty", "{graph}", "--sigma2", "1", "--direction", "node:first"],
         "bad node index in 'node:first'"),
        (["uncertainty", "{graph}", "--sigma2", "1", "--direction", "node:2"],
         "node 2 out of range"),
        (["uncertainty", "{graph}", "--sigma2", "1", "--direction", "eig:1.5"],
         "bad eigenvector index in 'eig:1.5'"),
        (["uncertainty", "{graph}", "--sigma2", "1", "--direction", "eig:-1"],
         "eigenvector index -1 out of range"),
        (["uncertainty", "{graph}", "--sigma2", "1", "--direction", "1,x"],
         "--direction must be 'node:<i>', 'eig:<i>' or a csv vector, got '1,x'"),
        (["simulate", "--grid", "4", "--sigma2", "1", "--eps", "1e-4", "--trials", "10"],
         "--grid expects WxH, got '4'"),
        (["simulate", "--grid", "4xfour", "--sigma2", "1", "--eps", "1e-4", "--trials", "10"],
         "--grid expects WxH, got '4xfour'"),
        (["simulate", "--rgg", "12", "--sigma2", "1", "--eps", "1e-4", "--trials", "10"],
         "--rgg expects n,radius, got '12'"),
        (["simulate", "--rgg", "twelve,0.5", "--sigma2", "1", "--eps", "1e-4",
          "--trials", "10"],
         "--rgg expects n,radius, got 'twelve,0.5'"),
        # sizes below one reach the generators' errors, not the memory check
        (["simulate", "--grid", "0x5", "--sigma2", "1", "--eps", "1", "--trials", "1"],
         "grid dimensions must be positive"),
        (["simulate", "--grid", "-100000x-100000", "--sigma2", "1", "--eps", "1",
          "--trials", "1"],
         "grid dimensions must be positive"),
        (["simulate", "--rgg", "0,0.5", "--sigma2", "1", "--eps", "1", "--trials", "1"],
         "need at least one node"),
        (["simulate", "--rgg", "-100000,0.5", "--sigma2", "1", "--eps", "1", "--trials", "1"],
         "need at least one node"),
        # flags that would do nothing: the exact subspace prior has no ridge,
        # and a generated graph has no file ids to shift
        (["estimate", "{graph}", "{signal}", "--sigma2", "1", "--prior", "bandlimit:1",
          "--eps", "5"], "--eps applies to the smooth prior only, not to 'bandlimit:1'"),
        (["estimate", "{graph}", "{signal}", "--noise-free", "--prior", "bandlimit:0",
          "--eps", "nan"], "--eps applies to the smooth prior only, not to 'bandlimit:0'"),
        (["simulate", "--grid", "2x2", "--sigma2", "1", "--eps", "1", "--trials", "1",
          "--one-based"], "--one-based applies to a graph file only"),
        (["simulate", "--rgg", "5,0.5", "--sigma2", "1", "--eps", "1", "--trials", "1",
          "--one-based"], "--one-based applies to a graph file only"),
    ])
    def test_exit_one_with_the_message(self, capsys, tmp_path, p2_files, argv, message):
        graph, signal = p2_files
        fields = dict(graph=graph, signal=signal, tmp=tmp_path)
        argv = [a.format(**fields) for a in argv]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: " + message.format(**fields))

    def test_memory_error_exits_one(self, capsys, monkeypatch, p2_files):
        from graphbayes import cli

        def out_of_memory(prior, observation):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "fuse", out_of_memory)
        graph, signal = p2_files
        code, out, err = run_cli(capsys, ["estimate", str(graph), str(signal), "--sigma2", "1"])
        assert code == 1
        assert out == ""
        assert err == ("error: the dense arrays for this graph do not fit in memory: "
                       "Unable to allocate 7.28 TiB for an array\n")
