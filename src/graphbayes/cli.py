"""Command-line interface.

Subcommands::

    estimate       posterior mean and per-node variance from a graph + signal
    uncertainty    posterior variance along one direction
    simulate       Monte Carlo calibration report (mse vs. variance)
    sample-select  greedy sampling-set selection under a covariance metric

Exit codes: 0 success, 1 parse/configuration error or a graph too large
for dense arrays, 2 inconsistent noise-free constraints. All output is a
pure function of the inputs, flags and seed.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from .belief import (
    SamplingOperator,
    bandlimit_basis,
    partial_observation,
    smoothness_prior,
    subspace_prior,
)
from .graph_core import (
    GraphFormatError,
    _require_dense_fits,
    grid_graph,
    laplacian,
    load_edge_list,
    random_geometric_graph,
    read_signal_csv,
    spectral_decomposition,
)
from .inference import (
    InconsistentConstraintsError,
    directional_uncertainty,
    fuse,
    node_variances,
)
from .sampling_eval import _posterior, covariance_metric, greedy_select
from .simulate import ExperimentConfig, _fmt, render_report_csv, run_calibration

_METRIC_FLAGS = {"trace": "trace", "logdet": "logdet", "maxeig": "max_eig"}


class CliError(Exception):
    """Configuration or input problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1,1,0,0", "-1e-9" and "-inf" for options; a "-"
        # before a digit, ".digit", "inf" or "nan" starts a value here
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    # argparse exits with status 2 on usage errors by default; this CLI
    # reserves 2 for inconsistent constraints, so remap to CliError.
    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _load_graph(path, one_based):
    return load_edge_list(_read_text(path), one_based=one_based)


def _parse_nodes(spec, n):
    if spec == "all":
        return tuple(range(n))
    try:
        nodes = tuple(int(part) for part in spec.split(",") if part != "")
    except ValueError:
        raise CliError(f"--nodes must be 'all' or comma-separated ids, got {spec!r}") from None
    if not nodes:
        raise CliError("--nodes must name at least one node")
    return nodes


def _cmd_estimate(args):
    graph = _load_graph(args.graph_file, args.one_based)
    lap = laplacian(graph)
    values = read_signal_csv(_read_text(args.signal_file))
    outside = sorted(v for v in values if not 0 <= v < graph.n)
    if outside:
        raise CliError(f"signal file has rows for nodes {outside} outside range({graph.n}) "
                       "of the graph; signal ids are 0-based, with --one-based too")

    if args.noise_free and args.sigma2 is not None:
        raise CliError("--noise-free and --sigma2 are mutually exclusive")
    if not args.noise_free and args.sigma2 is None:
        raise CliError("specify --sigma2 or --noise-free")
    sigma2 = 0.0 if args.noise_free else args.sigma2

    nodes = _parse_nodes(args.nodes, graph.n)
    operator = SamplingOperator(n=graph.n, nodes=nodes)
    missing = [v for v in nodes if v not in values]
    if missing:
        raise CliError(f"signal file lacks values for nodes {missing}")
    observed = np.array([values[v] for v in nodes])

    if args.prior == "smooth":
        prior = smoothness_prior(lap, args.eps)
    elif args.prior.startswith("bandlimit:"):
        if args.eps != 0:  # the exact subspace prior has no ridge
            raise CliError(f"--eps applies to the smooth prior only, not to {args.prior!r}")
        try:
            bandlimit = float(args.prior.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad bandlimit in {args.prior!r}") from None
        spectrum = spectral_decomposition(lap)
        prior = subspace_prior(bandlimit_basis(spectrum, bandlimit))
    else:
        raise CliError(f"--prior must be 'smooth' or 'bandlimit:<b>', got {args.prior!r}")

    summary = fuse(prior, partial_observation(operator, observed, sigma2))
    variances = node_variances(summary)
    lines = ["node,mean,variance"]
    for i in range(graph.n):
        lines.append(f"{i},{_fmt(summary.mean[i])},{_fmt(variances[i])}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _parse_direction(spec, graph, lap):
    if spec.startswith("node:"):
        try:
            node = int(spec.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad node index in {spec!r}") from None
        if not 0 <= node < graph.n:
            raise CliError(f"node {node} out of range")
        direction = np.zeros(graph.n)
        direction[node] = 1.0
        return direction
    if spec.startswith("eig:"):
        try:
            index = int(spec.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad eigenvector index in {spec!r}") from None
        if not 0 <= index < graph.n:
            raise CliError(f"eigenvector index {index} out of range")
        return spectral_decomposition(lap).vectors[:, index].copy()
    try:
        direction = np.array([float(p) for p in spec.split(",")])
    except ValueError:
        raise CliError(
            f"--direction must be 'node:<i>', 'eig:<i>' or a csv vector, got {spec!r}"
        ) from None
    return direction


def _cmd_uncertainty(args):
    graph = _load_graph(args.graph_file, args.one_based)
    lap = laplacian(graph)
    direction = _parse_direction(args.direction, graph, lap)
    summary = _posterior(smoothness_prior(lap, args.eps), range(graph.n), args.sigma2)
    value = directional_uncertainty(summary, direction)
    sys.stdout.write(_fmt(value) + "\n")
    return 0


def _graph_from_simulate_args(args):
    sources = sum(x is not None for x in (args.graph_file, args.grid, args.rgg))
    if sources != 1:
        raise CliError("give exactly one of: graph file, --grid, --rgg")
    if args.one_based and args.graph_file is None:
        raise CliError("--one-based applies to a graph file only, not to --grid or --rgg")
    if args.graph_file is not None:
        return _load_graph(args.graph_file, args.one_based)
    if args.grid is not None:
        try:  # a part count other than two raises ValueError on unpacking too
            width, height = (int(part) for part in args.grid.lower().split("x"))
        except ValueError:
            raise CliError(f"--grid expects WxH, got {args.grid!r}") from None
        # refused from the node count before any edge is built; a size
        # below one goes on to the generator's own error
        _require_dense_fits(max(width, 0) * max(height, 0))
        return grid_graph(width, height)
    try:
        count, radius = args.rgg.split(",")
        count, radius = int(count), float(radius)
    except ValueError:
        raise CliError(f"--rgg expects n,radius, got {args.rgg!r}") from None
    _require_dense_fits(max(count, 0))
    return random_geometric_graph(count, radius, seed=args.seed)


def _cmd_simulate(args):
    graph = _graph_from_simulate_args(args)
    config = ExperimentConfig(
        graph=graph,
        eps=args.eps,
        sigma2=args.sigma2,
        trials=args.trials,
        seed=args.seed,
    )
    report = run_calibration(config)
    _write_text(args.out, render_report_csv(report))
    return 0


def _cmd_sample_select(args):
    graph = _load_graph(args.graph_file, args.one_based)
    prior = smoothness_prior(laplacian(graph), args.eps)
    metric = _METRIC_FLAGS[args.metric]
    selection = greedy_select(prior, args.budget, args.sigma2, metric)
    value = covariance_metric(_posterior(prior, selection.nodes, args.sigma2), metric)
    sys.stdout.write(" ".join(str(v) for v in selection.nodes) + "\n")
    sys.stdout.write(_fmt(value) + "\n")
    return 0


def build_parser():
    parser = _Parser(prog="graphbayes", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="posterior mean and node variances")
    est.add_argument("graph_file")
    est.add_argument("signal_file")
    est.add_argument("--sigma2", type=float, default=None, help="observation noise variance")
    est.add_argument("--eps", type=float, default=0.0, help="smoothness prior ridge")
    est.add_argument("--nodes", default="all", help="'all' or comma-separated sampled ids")
    est.add_argument("--noise-free", action="store_true", help="treat observations as exact")
    est.add_argument("--prior", default="smooth", help="'smooth' or 'bandlimit:<b>'")
    est.add_argument("--out", default="-", help="output CSV path ('-' for stdout)")
    est.add_argument("--one-based", action="store_true", help="graph file uses 1-based ids")
    est.set_defaults(func=_cmd_estimate)

    unc = sub.add_parser("uncertainty", help="variance along one direction")
    unc.add_argument("graph_file")
    unc.add_argument("--sigma2", type=float, required=True)
    unc.add_argument("--eps", type=float, default=0.0)
    unc.add_argument(
        "--direction", required=True,
        help="'node:<i>', 'eig:<i>' or comma-separated vector",
    )
    unc.add_argument("--one-based", action="store_true")
    unc.set_defaults(func=_cmd_uncertainty)

    sim = sub.add_parser("simulate", help="Monte Carlo calibration report")
    sim.add_argument("graph_file", nargs="?", default=None)
    sim.add_argument("--grid", default=None, help="generate a WxH grid graph")
    sim.add_argument("--rgg", default=None, help="generate a random geometric graph n,radius")
    sim.add_argument("--sigma2", type=float, required=True)
    sim.add_argument("--eps", type=float, required=True)
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default="-")
    sim.add_argument("--one-based", action="store_true")
    sim.set_defaults(func=_cmd_simulate)

    sel = sub.add_parser("sample-select", help="greedy sampling-set selection")
    sel.add_argument("graph_file")
    sel.add_argument("--budget", type=int, required=True)
    sel.add_argument("--sigma2", type=float, required=True)
    sel.add_argument("--eps", type=float, default=0.0)
    sel.add_argument("--metric", choices=sorted(_METRIC_FLAGS), default="trace")
    sel.add_argument("--one-based", action="store_true")
    sel.set_defaults(func=_cmd_sample_select)

    return parser


def main(argv=None):
    """Run the CLI; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InconsistentConstraintsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CliError, GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message gives the requested shape, i.e. the node count
        print(f"error: the dense arrays for this graph do not fit in memory: {exc}",
              file=sys.stderr)
        return 1


def entrypoint():  # pragma: no cover - thin wrapper for the console script
    sys.exit(main())
