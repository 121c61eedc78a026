"""Time the two routes of ``fuse`` on large graph posteriors in fresh
processes and append the results to BENCH_factored.json.

Usage, from the root of a checkout::

    python3 benchmarks/bench_factored.py
    python3 benchmarks/bench_factored.py --width 32 --runs 1

For each ``--width`` W (default: 32 and 48, so grids of 1024 and 2304
nodes), the graph is the W x W grid beside a hidden 8x8 grid, under the
eps = 0 smoothness prior, with every other node of the W x W grid
observed at sigma2 = 0.5: the hidden grid is the flat component. Each run
is one fresh process per route, which imports graphbayes from this
repository's ``src/`` with one BLAS thread; the two routes alternate
which goes first. A process computes the graph's spectrum, then times one
``fuse`` (the factored route: ``inference.fuse``, which factors from 1024
nodes up; the eigen route: ``inference._eigen_fuse``), ``node_variances``
and ``spectral_uncertainty`` on the result, each on its own clock, and
reads the process's peak resident set (``VmHWM`` of
``/proc/self/status``, null where there is none), which the spectrum's own
``eigh`` also sets. It then repeats the three calls under tracemalloc,
which numpy reports its array buffers to, for the peak traced bytes of the
timed work alone.

One entry per width and route is appended to ``BENCH_factored.json`` at
the root of this repository: the commit id, whether its ``src/`` differs
from it, the summary type ``fuse`` returned, every run's wall time for
the three calls together and for each call, ``VmHWM`` and peak traced
bytes, with their medians (and the total times' quartiles), the counts
of finite, flat and zero-variance directions and the sum of the finite
node variances, by which the two routes' answers can be compared, and
the versions of Python and numpy.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

from record import VM_HWM_SOURCE, _append, _fresh_runs, _header, _timed, _timed_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(ROOT, "BENCH_factored.json")
WIDTHS = (32, 48)
ROUTES = ("factored", "eigen")
CALLS = ("fuse", "node_variances", "spectral_uncertainty")

CHILD = VM_HWM_SOURCE + r"""
import json, platform, sys, time, tracemalloc
import numpy as np
from graphbayes import (Graph, SamplingOperator, grid_graph, inference, laplacian,
                        node_variances, partial_observation, smoothness_prior,
                        spectral_decomposition, spectral_uncertainty)

width, route = int(sys.argv[1]), sys.argv[2]
size = width * width
graph = Graph(size + 64, list(grid_graph(width, width).edges)
              + [(size + i, size + j) for i, j in grid_graph(8, 8).edges])
lap = laplacian(graph)
spectrum = spectral_decomposition(lap)
prior = smoothness_prior(lap, 0.0)
sampling = SamplingOperator(n=graph.n, nodes=range(0, size, 2))
obs = partial_observation(sampling, np.random.default_rng(width).standard_normal(sampling.n_s),
                          0.5)
build = {"factored": inference.fuse, "eigen": inference._eigen_fuse}[route]

def job():
    stamps = [time.perf_counter()]
    summary = build(prior, obs)
    stamps.append(time.perf_counter())
    variances = node_variances(summary)
    stamps.append(time.perf_counter())
    spectral_uncertainty(summary, spectrum)
    stamps.append(time.perf_counter())
    return summary, variances, np.diff(stamps).tolist()

summary, variances, call_s = job()
seconds = sum(call_s)
hwm_kb = vm_hwm_kb()
tracemalloc.start()
job()
peak_traced = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({
    "seconds": seconds, "call_s": call_s, "vm_hwm_kb": hwm_kb, "peak_traced_bytes": peak_traced,
    "summary": type(summary).__name__, "counts": list(summary.counts), "n": graph.n,
    "finite_variance_sum": float(variances[np.isfinite(variances)].sum()),
    "python": platform.python_version(), "numpy": np.__version__,
}))
"""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--width", type=int, action="append",
                        help="grid width (repeat for several; default: 32 and 48)")
    parser.add_argument("--runs", type=int, default=7, help="fresh processes per route")
    args = parser.parse_args()

    entries = []
    for width in args.width or WIDTHS:
        results = {route: [] for route in ROUTES}
        for k in range(args.runs):
            for route in ROUTES[::-1] if k % 2 else ROUTES:
                results[route] += _fresh_runs([ROOT], CHILD, (width, route), 1)[ROOT]
        medians, counts = {}, {}
        for route, runs in results.items():
            last = runs[-1]
            entry = {
                **_header(ROOT),
                "grid": f"{width}x{width}", "hidden": "8x8", "n": last["n"], "eps": 0.0,
                "sigma2": 0.5, "route": route, "summary": last["summary"],
                "counts": last["counts"], **_timed(runs),
                "call_s": {call: [r["call_s"][k] for r in runs] for k, call in enumerate(CALLS)},
                "median_call_s": {call: statistics.median(r["call_s"][k] for r in runs)
                                  for k, call in enumerate(CALLS)},
                **{key: last[key] for key in ("finite_variance_sum", "python", "numpy")},
            }
            entries.append(entry)
            medians[route], counts[route] = entry["median_s"], entry["counts"]
            calls = ", ".join(f"{call} {t:.4f}" for call, t in entry["median_call_s"].items())
            print(f"{entry['grid']} + 8x8 {route:8s} {entry['commit'][:7]}"
                  f"{'+' if entry['dirty'] else ''}: {entry['summary']} "
                  f"{tuple(entry['counts'])}, {_timed_text(entry)}, medians {calls}, "
                  f"finite variance sum {entry['finite_variance_sum']:.12g}", flush=True)
        print(f"{width}x{width} + 8x8 factored / eigen median time: "
              f"{medians['factored'] / medians['eigen']:.3f}; counts "
              f"{'agree' if counts['factored'] == counts['eigen'] else 'differ'}", flush=True)

    _append(BENCH_PATH, entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
