"""Outputs that must not move by a single bit when the code is restructured.

The digests were recorded from the implementation that stored constraints
as (row, value) pairs and built selection and adjacency matrices densely;
any refactor of those data structures must reproduce them exactly. The
8x8 greedy sets and the ``sample-select`` digest were recorded from the
greedy selection that scored every candidate with its own ``fuse``. Each
array digest is the SHA-256 of an array's shape followed by its bytes. The cases
are small enough that the BLAS runs them on one thread whatever its thread
setting, so the bits do not depend on it.
"""

import hashlib
import importlib
import json
import os

import numpy as np
import pytest

from graphbayes import (
    Graph,
    SamplingOperator,
    bandlimit_basis,
    full_observation,
    fuse,
    grid_graph,
    greedy_select,
    laplacian,
    partial_observation,
    posterior_covariance,
    smoothness_prior,
    solve_map,
    spectral_decomposition,
    subspace_prior,
)
from graphbayes.cli import main
from graphbayes.simulate import _estimator_matrix

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _digest(arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return hashlib.sha256(repr(arr.shape).encode() + arr.tobytes()).hexdigest()


def _summary_digests(summary):
    return {field: _digest(getattr(summary, field))
            for field in ("mean", "cov_basis", "cov_values", "null_basis", "zero_basis")}


def _grid_with_loose_path():
    # a 4x4 grid plus a 3-node path that no observation touches
    grid = grid_graph(4, 4)
    return Graph(19, [*grid.edges, (16, 17), (17, 18)])


PINNED_NODES = (0, 5, 10, 15, 3)


def pins_on_flat_smoothness_prior():
    prior = smoothness_prior(laplacian(_grid_with_loose_path()), 0.0)
    obs = partial_observation(SamplingOperator(n=19, nodes=PINNED_NODES),
                              np.arange(5) * 0.75 - 1.5, 0.0)
    return prior, obs


def noisy_samples_on_flat_smoothness_prior():
    prior = smoothness_prior(laplacian(_grid_with_loose_path()), 0.0)
    obs = partial_observation(SamplingOperator(n=19, nodes=PINNED_NODES),
                              np.arange(5) * 0.75 - 1.5, 0.5)
    return prior, obs


def exact_bandlimited_prior_with_pins():
    spectrum = spectral_decomposition(laplacian(grid_graph(6, 6)))
    prior = subspace_prior(bandlimit_basis(spectrum, 1.0), 0.0)
    # four pins in a six-dimensional subspace leave two flat directions
    obs = partial_observation(SamplingOperator(n=36, nodes=(1, 14, 23, 35)),
                              np.arange(4) * 0.5 - 2.0, 0.0)
    return prior, obs


CASES = {
    "pins_on_flat_smoothness_prior": pins_on_flat_smoothness_prior,
    "noisy_samples_on_flat_smoothness_prior": noisy_samples_on_flat_smoothness_prior,
    "exact_bandlimited_prior_with_pins": exact_bandlimited_prior_with_pins,
}

FUSE_DIGESTS = {
    "pins_on_flat_smoothness_prior": {
        "mean": "a8fd5856d42bed27d98c864705eeb879c07a43dd64a591c4a8badafef88db997",
        "cov_basis": "4a072c9cd0f8ed6d574341c11300ce240320918211665de95280f19a3eb07f32",
        "cov_values": "cfdb2d77dbd7ef33186775677172f49d5c268d74708635544a0464d8dfcdd047",
        "null_basis": "b582521190b502984dacd9f750ec1ff04df2be107d16e473d6ed89c82c1f6919",
        "zero_basis": "dd2952ca529cb9a1953cc60688ff2035a6d111de76e79aa165012f399807a7d6",
    },
    "noisy_samples_on_flat_smoothness_prior": {
        "mean": "69b1844b597a950641e6f6874fe5e7393f5a5e5caa8c9ae34fc264d0582878d6",
        "cov_basis": "9fa1e68ec242f4ccf765d49796ecbb8c1b9b6b6254203fe4d9f629951b32ffb3",
        "cov_values": "54a6710da37a2e7ef39898e01833f3ba647e77a1ccd1dac789d1f5ad98b5f04a",
        "null_basis": "b582521190b502984dacd9f750ec1ff04df2be107d16e473d6ed89c82c1f6919",
        "zero_basis": "775d70a91af1638ff9bbf76889dbe1b21a06fff267fe7465d416221afa53403a",
    },
    "exact_bandlimited_prior_with_pins": {
        "mean": "bd9ce977ab13e3b264d4f76c059426b4fbdc6b267126c5bdda1add43d7ec2be3",
        "cov_basis": "8283b34b5aaa4a04c646bf7700aeaa1fceb52a6b75c89d6e82ec1206f9bbe9f0",
        "cov_values": "91d6039a01f57163ec02db197e5481ffc170187e262006fa833b26f0cc064633",
        "null_basis": "2c79154d39cbdf77d82072734b2a30b009d750e9101fee1c7f0816fee47160ea",
        "zero_basis": "0a6c09b3e5fa01635d427b154164a2e63717d651da08fe114bc9676e7962f3fc",
    },
}

ITERATIVE_MAP_DIGESTS = {
    "pins_on_flat_smoothness_prior":
        "b7ca7acdcbf70f77fc158d15255a5fd65cf65d2649aaf3c03127ba2a4c612d87",
    "noisy_samples_on_flat_smoothness_prior":
        "59e5766b4eaf573b819817575e1d44fee41d4046e4c992508c089216d37b3c17",
    "exact_bandlimited_prior_with_pins":
        "bd9ce977ab13e3b264d4f76c059426b4fbdc6b267126c5bdda1add43d7ec2be3",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fuse_outputs_are_unchanged(case):
    prior, obs = CASES[case]()
    assert _summary_digests(fuse(prior, obs)) == FUSE_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_iterative_map_is_unchanged(case):
    prior, obs = CASES[case]()
    assert _digest(solve_map(prior, obs, "iterative")) == ITERATIVE_MAP_DIGESTS[case]


@pytest.mark.parametrize("width, nodes, expected", [
    (5, (7, 0, 13, 19, 2),
     "d39c74bb8b2ce8544a84198a193b7236f116f6ca5ff79f8fea1c9d50f4858d77"),
    # every node pinned: no finite directions, so the product is all zeros
    # and only the zero signs tell S - 0 from -0 + S
    (2, tuple(range(8)),
     "9d1c11f8966e08da5b1272d6a687d25eae12b4b93c7208a7f993590484988b49"),
])
def test_noise_free_estimator_matrix_is_unchanged(width, nodes, expected):
    prior = smoothness_prior(laplacian(grid_graph(width, 4)), 0.1)
    operator = SamplingOperator(n=4 * width, nodes=nodes)
    summary = fuse(prior, partial_observation(operator, np.zeros(len(nodes)), 0.0))
    assert _digest(_estimator_matrix(prior, operator, 0.0, summary)) == expected


def test_relaxed_subspace_prior_precision_is_unchanged():
    spectrum = spectral_decomposition(laplacian(grid_graph(6, 6)))
    prior = subspace_prior(bandlimit_basis(spectrum, 1.0), sigma2_prior=0.5, eps=0.1)
    assert _digest(prior.precision) == (
        "da13d8eaf89a4b35fb7a6c788ce663aec4c7422491b4f0b324e99187b146604f")


def test_posterior_covariance_is_unchanged():
    prior = smoothness_prior(laplacian(grid_graph(5, 4)), 0.1)
    summary = fuse(prior, full_observation(np.zeros(20), 0.5))
    assert _digest(posterior_covariance(summary)) == (
        "ce6afa384d21741ebdcd9ea72c82db22bbe687bc355be16dcca9ff911772dbf4")


def test_grid_laplacian_is_unchanged():
    assert _digest(laplacian(grid_graph(7, 5))) == (
        "b644846619ac5f1ee6aa2b05d5627eeb043a6c18bfcd066a462e40bb634a44f2")


@pytest.mark.parametrize("sigma2, metric, expected", [
    (0.0, "trace", (16, 40, 65)),
    (1.0, "logdet", (0, 8, 78)),
])
def test_greedy_sets_on_a_9x9_grid(sigma2, metric, expected):
    prior = smoothness_prior(laplacian(grid_graph(9, 9)), 0.0)
    assert greedy_select(prior, 3, sigma2, metric).nodes == expected


@pytest.mark.parametrize("flags, expected", [
    (["--noise-free", "--nodes", "0,5,10,15,3"],
     "b84768a8f49e9a4d6a860ffdaf818115a308a0a49a96fcd91a539437414fe066"),
    (["--sigma2", "0.5", "--nodes", "0,5,10,15,3"],
     "c63da99a4199951823fd608a0bd74a85070cbe9518f765594e45afc3cb775760"),
    (["--noise-free", "--prior", "bandlimit:1.0", "--nodes", "1,14,23,35"],
     "68bfe73c7eecbbf1fed3bfe1d86e978fba9679a4bfa7af12a1db861c528d069d"),
])
def test_estimate_stdout_is_unchanged(capsys, tmp_path, flags, expected):
    graph = tmp_path / "grid.edges"
    graph.write_text("# n=36\n" + "".join(f"{i} {j}\n" for i, j in
                                         sorted(grid_graph(6, 6).edges)))
    signal = tmp_path / "signal.csv"
    signal.write_text("node,value\n" + "".join(f"{v},{0.25 * v - 3.0}\n" for v in range(36)))
    assert main(["estimate", str(graph), str(signal), *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


@pytest.mark.parametrize("sigma2, expected", [
    (0.5, (18, 36, 49, 54)),
    (1.0, (9, 27, 45, 49)),
    (1.5, (21, 35, 49, 54)),
    (2.0, (18, 36, 49, 54)),
])
def test_greedy_sets_on_an_8x8_grid(sigma2, expected):
    prior = smoothness_prior(laplacian(grid_graph(8, 8)), 0.0)
    assert greedy_select(prior, 4, sigma2, "trace").nodes == expected


def test_sample_select_stdout_is_unchanged(capsys, tmp_path):
    graph = tmp_path / "grid.edges"
    graph.write_text("# n=64\n" + "".join(f"{i} {j}\n" for i, j in
                                         sorted(grid_graph(8, 8).edges)))
    assert main(["sample-select", str(graph), "--budget", "4", "--sigma2", "0.5"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "3344274a3311808db33407bbfbeae9f89e3a8284b4285dc3bf7e0541e346abfa")


def test_every_recorded_cli_digest_is_reproduced(capsys, monkeypatch, tmp_path):
    # the stdout digests perfbench's cli workload checks, one set per input
    # variant, from in-process runs of the four subcommands
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    with open(os.path.join(PERFBENCH, "refs.json"), encoding="utf-8") as handle:
        recorded = json.load(handle)["cli"]
    assert len(recorded) == workloads.CLI_VARIANTS
    monkeypatch.chdir(tmp_path)
    for seed in range(workloads.CLI_VARIANTS):
        inp = workloads.make_inputs("cli", seed)
        workloads.write_files(inp, str(tmp_path))
        for sub, argv in inp["argv"].items():
            assert main(argv) == 0
            digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
            assert digest == recorded[inp["variant"]][sub], (inp["variant"], sub)
