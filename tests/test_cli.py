"""End-to-end command-line behaviour: outputs, exit codes, determinism."""

import numpy as np
import pytest

from graphbayes.cli import main


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
