"""The four workloads: inputs made from a seed, one job each, and the checks
on a job's outputs.

Inputs are built with numpy alone, so the orchestrator can make the same
inputs for its reference answers without importing graphbayes. A job calls
the library only through ``lib`` (see ``Lib``), which is where the traced
run puts its spans. Every job of a run does identical work, so job times
pool into one distribution.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np

from tracing import CLI_SUBCOMMANDS, DIRECT

WORKLOADS = ("denoise", "calibrate", "design", "cli")

# Seeds map onto this many cli input variants, whose stdout digests were
# recorded in refs.json by make_refs.py.
CLI_VARIANTS = 32


def grid_size(text):
    """``"WIDTHxHEIGHT"`` as a (width, height) pair."""
    width, height = (int(v) for v in text.lower().split("x"))
    return width, height


def grid_edges(width, height, offset=0):
    edges = []
    for r in range(height):
        for c in range(width):
            v = offset + r * width + c
            if c + 1 < width:
                edges.append((v, v + 1))
            if r + 1 < height:
                edges.append((v, v + width))
    return edges


def edge_text(n, edges):
    return f"# n={n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def laplacian_np(n, edges):
    """Dense Laplacian built the way graphbayes builds it."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return np.diag(a.sum(axis=1)) - a


def _smooth_signal(rng, width, height):
    y, x = np.divmod(np.arange(width * height), width)
    signal = np.zeros(width * height)
    for _ in range(3):
        fx, fy = rng.uniform(0.0, 2.0, size=2)
        phase = rng.uniform(0.0, 2 * np.pi)
        signal += np.cos(np.pi * (fx * x / width + fy * y / height) + phase)
    return signal


def make_inputs(workload, seed, grid=(24, 24), trials=20000):
    """Everything a job of ``workload`` needs, as a function of ``seed``.
    ``grid`` (width, height) and ``trials`` size the calibrate workload."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "denoise":
        # 32x32 grid, every node observed, plus an unobserved 8x8 grid
        n_a, n = 1024, 1088
        edges = grid_edges(32, 32) + grid_edges(8, 8, offset=n_a)
        sigma2 = 0.5
        observed = _smooth_signal(rng, 32, 32) + math.sqrt(sigma2) * rng.standard_normal(n_a)
        on_grid = np.zeros(n)
        on_grid[:n_a] = rng.standard_normal(n_a)
        node = np.zeros(n)
        node[rng.integers(n_a)] = 1.0
        on_hidden = np.zeros(n)
        on_hidden[n_a:] = 1.0
        return {
            "n": n, "n_observed": n_a, "edges": edges, "text": edge_text(n, edges),
            "sigma2": sigma2, "observed": observed,
            # the first two directions have finite variance, the rest infinite
            "directions": [node, on_grid, on_hidden, rng.standard_normal(n)],
        }
    if workload == "calibrate":
        n = grid[0] * grid[1]
        edges = grid_edges(*grid)
        return {
            "n": n, "edges": edges, "text": edge_text(n, edges),
            "eps": 1e-6, "sigma2": 3.0, "trials": trials,
            "mc_seed": int(rng.integers(2**31)),
        }
    if workload == "design":
        edges16 = grid_edges(16, 16)
        # exact bandlimited signal: the 15 eigenvalues of the 16x16 grid at
        # or below 0.5 end at 0.49 and the next starts at 0.59, so the band
        # is a whole union of eigenspaces and any basis of it will do
        values, vectors = np.linalg.eigh(laplacian_np(256, edges16))
        band = vectors[:, values <= 0.5]
        while True:  # draw samples until they pin the band down
            nodes = tuple(sorted(rng.choice(256, size=32, replace=False).tolist()))
            svals = np.linalg.svd(band[list(nodes)], compute_uv=False)
            if svals[-1] > 1e-3:
                break
        truth = band @ rng.standard_normal(band.shape[1])
        return {
            "text9": edge_text(81, grid_edges(9, 9)),
            "greedy": (("trace", 0.0, 3), ("logdet", 1.0, 3)),
            "text16": edge_text(256, edges16), "nodes": nodes,
            "eps": 1e-6, "trials": 2000, "mc_seed": int(rng.integers(2**31)),
            "bandlimit": 0.5, "truth": truth,
        }
    if workload == "cli":
        variant = seed % CLI_VARIANTS
        vrng = np.random.default_rng([variant, WORKLOADS.index(workload)])
        values = vrng.standard_normal(64)
        sigma2 = format(0.5 * (1 + variant % 4), "g")
        return {
            "variant": variant,
            "files": {
                "g.edges": edge_text(64, grid_edges(8, 8)),
                "s.csv": "node,value\n" + "".join(
                    f"{i},{format(v, '.6f')}\n" for i, v in enumerate(values)),
            },
            "argv": {
                "estimate": ["estimate", "g.edges", "s.csv", "--sigma2", sigma2],
                "uncertainty": ["uncertainty", "g.edges", "--sigma2", sigma2,
                                "--direction", "eig:1"],
                "simulate": ["simulate", "g.edges", "--sigma2", "3", "--eps", "1e-6",
                             "--trials", "2000", "--seed", str(variant)],
                "sample_select": ["sample-select", "g.edges", "--budget", "4",
                                  "--sigma2", sigma2],
            },
        }
    raise ValueError(f"unknown workload {workload!r}")


class Lib:
    """The library's public functions a job calls, each wrapped in a span
    when a tracer is given. ``cli`` runs ``python -m graphbayes`` in
    ``cwd`` with ``env``."""

    def __init__(self, gb, tracer=None, cwd=None, env=None):
        for attr, (name, count) in DIRECT.items():
            fn = getattr(gb, attr)
            setattr(self, attr, tracer.wrap(name, fn, count) if tracer else fn)
        self.cli = {}
        for sub in CLI_SUBCOMMANDS:
            fn = self._cli_runner(cwd, env)
            self.cli[sub] = tracer.wrap(f"cli.{sub}", fn) if tracer else fn

    @staticmethod
    def _cli_runner(cwd, env):
        def run(argv):
            return subprocess.run(
                [sys.executable, "-m", "graphbayes", *argv], cwd=cwd, env=env,
                capture_output=True, timeout=120, check=False,
            )
        return run


def denoise_job(gb, lib, inp):
    graph = lib.load_edge_list(inp["text"])
    lap = lib.laplacian(graph)
    spectrum = lib.spectral_decomposition(lap)
    prior = lib.smoothness_prior(lap, 0.0)
    sampling = gb.SamplingOperator(n=graph.n, nodes=tuple(range(inp["n_observed"])))
    obs = lib.partial_observation(sampling, inp["observed"], inp["sigma2"])
    post = lib.fuse(prior, obs)
    variances = lib.node_variances(post)
    spectral = lib.spectral_uncertainty(post, spectrum)
    directional = [lib.directional_uncertainty(post, d) for d in inp["directions"]]
    with warnings.catch_warnings():
        # the hidden component makes the maximizer non-unique, by design
        warnings.simplefilter("ignore", gb.NonUniqueSolutionWarning)
        map_mean = lib.solve_map(prior, obs, method="iterative")
    return {"mean": post.mean, "variances": variances, "spectral": spectral,
            "directional": np.array(directional), "map_mean": map_mean}


def calibrate_job(gb, lib, inp):
    graph = lib.load_edge_list(inp["text"])
    config = gb.ExperimentConfig(graph=graph, eps=inp["eps"], sigma2=inp["sigma2"],
                                 trials=inp["trials"], seed=inp["mc_seed"])
    report = lib.run_calibration(config)
    csv = lib.render_report_csv(report)
    return {"variance": report.variance, "mse": report.mse, "csv": csv}


def design_job(gb, lib, inp):
    prior9 = lib.smoothness_prior(lib.laplacian(lib.load_edge_list(inp["text9"])), 0.0)
    greedy = [lib.greedy_select(prior9, budget, sigma2, metric).nodes
              for metric, sigma2, budget in inp["greedy"]]

    graph16 = lib.load_edge_list(inp["text16"])
    config = gb.ExperimentConfig(graph=graph16, eps=inp["eps"], sigma2=0.0,
                                 trials=inp["trials"], seed=inp["mc_seed"],
                                 sampling=inp["nodes"])
    report = lib.run_calibration(config)
    csv = lib.render_report_csv(report)

    spectrum = lib.spectral_decomposition(lib.laplacian(graph16))
    prior = lib.subspace_prior(lib.bandlimit_basis(spectrum, inp["bandlimit"]), 0.0)
    sampling = gb.SamplingOperator(n=graph16.n, nodes=inp["nodes"])
    obs = lib.partial_observation(sampling, inp["truth"][list(inp["nodes"])], 0.0)
    post = lib.fuse(prior, obs)
    return {
        "greedy": np.array(greedy), "variance": report.variance, "mse": report.mse,
        "csv": csv, "mean": post.mean, "trace": lib.covariance_metric(post, "trace"),
        "map_mean": lib.solve_map(prior, obs, method="iterative"),
    }


def cli_job(gb, lib, inp):
    out = {}
    for sub in CLI_SUBCOMMANDS:
        proc = lib.cli[sub](inp["argv"][sub])
        out[sub] = proc.stdout
        out[sub + "_code"] = proc.returncode
    return out


JOBS = {"denoise": denoise_job, "calibrate": calibrate_job,
        "design": design_job, "cli": cli_job}


def digest(outputs):
    """Hash of a job's outputs; equal outputs are checked once."""
    h = hashlib.sha256()
    for key in sorted(outputs):
        value = outputs[key]
        h.update(key.encode())
        if isinstance(value, str):
            value = value.encode()
        h.update(value if isinstance(value, bytes) else np.asarray(value).tobytes())
    return h.hexdigest()


def _rel(a, b):
    return float(np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b))


def check(workload, gb, inp, out, ref):
    """Failed checks of one job's outputs, as messages (empty when all pass).

    ``ref`` holds the reference answers: numpy oracles made by the
    orchestrator, and the greedy sets and cli digests of refs.json.
    """
    bad = []

    def expect(ok, message):
        if not ok:
            bad.append(message)

    if workload == "denoise":
        a = inp["n_observed"]
        finite = np.isfinite(out["variances"])
        expect(np.array_equal(np.flatnonzero(~finite), np.arange(a, inp["n"])),
               "infinite variance not exactly on the 64 unobserved nodes")
        expect(_rel(out["mean"][:a], ref["mean"]) <= 1e-9, "mean differs from solve")
        expect(_rel(out["variances"][:a], ref["variances"]) <= 1e-9,
               "variances differ from inv")
        expect(np.max(np.abs(out["mean"][a:])) <= 1e-8, "hidden mean not minimum norm")
        expect(_rel(out["map_mean"][:a], ref["mean"]) <= 1e-8, "iterative MAP differs")
        expect(np.max(np.abs(out["map_mean"][a:])) <= 1e-8, "iterative MAP not minimum norm")
        expect(_rel(out["directional"][:2], ref["directional"]) <= 1e-9,
               "directional variance differs from inv")
        expect(np.all(np.isinf(out["directional"][2:])), "hidden direction not inf")
        spectral = out["spectral"]
        expect(np.all(spectral[np.isfinite(spectral)] > 0), "spectral variance <= 0")
        expect(1 <= np.sum(np.isinf(spectral)) <= 2, "spectral inf count not 1 or 2")
    elif workload == "calibrate":
        graph = gb.load_edge_list(inp["text"])
        zero = gb.partial_observation(gb.SamplingOperator.all_nodes(graph.n),
                                      np.zeros(graph.n), inp["sigma2"])
        prior = gb.smoothness_prior(gb.laplacian(graph), inp["eps"])
        expect(np.array_equal(out["variance"], gb.node_variances(gb.fuse(prior, zero))),
               "variance column differs from node_variances")
        expect(_rel(out["variance"], ref["variance"]) <= 1e-9, "variance differs from inv")
        expect(np.max(np.abs(out["mse"] / ref["mse"] - 1)) <= 1e-9,
               "mse differs from the reference kernel")
        expect(abs(np.mean(out["mse"] / out["variance"]) - 1)
               <= 5 * math.sqrt(2 / inp["trials"]), "mse/variance not calibrated")
        expect(len(out["csv"].splitlines()) == inp["n"] + 2, "report csv length")
    elif workload == "design":
        expect(out["greedy"].tolist() == ref["greedy"], "greedy sets differ")
        truth = inp["truth"]
        scale = max(1.0, float(np.max(np.abs(truth))))
        expect(np.max(np.abs(out["mean"] - truth)) <= 1e-8 * scale, "reconstruction error")
        expect(np.max(np.abs(out["map_mean"] - truth)) <= 1e-8 * scale, "MAP reconstruction")
        expect(out["trace"] == 0.0, "reconstruction trace is not 0")
        free = np.ones(256, bool)
        free[list(inp["nodes"])] = False
        ratio = np.mean(out["mse"][free] / out["variance"][free])
        expect(abs(ratio - 1) <= 5 * math.sqrt(2 / inp["trials"]),
               "noise-free calibration off")
        expect(len(out["csv"].splitlines()) == 256 + 3, "report csv length")
    elif workload == "cli":
        for sub in CLI_SUBCOMMANDS:
            expect(out[sub + "_code"] == 0, f"{sub} exited {out[sub + '_code']}")
            expect(hashlib.sha256(out[sub]).hexdigest() == ref["cli"][sub],
                   f"{sub} stdout differs from the reference")
    return bad


def write_files(inp, directory):
    for name, text in inp.get("files", {}).items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)
