"""Time graph intake, the edge-list parse and the grid generator, in fresh
processes and append the results to BENCH_intake.json.

Usage, from the root of a checkout::

    python3 benchmarks/bench_intake.py
    python3 benchmarks/bench_intake.py --checkout ../parent --checkout . --runs 9
    python3 benchmarks/bench_intake.py --width 33 --runs 1

For each ``--width`` W (default: 33 and 316, so n = 1 089 and 99 856), each
run is one fresh process per ``--checkout`` (default: this repository),
which imports graphbayes from that checkout's ``src/`` with one BLAS thread;
with two checkouts the order alternates from run to run. A process builds
the edge-list text of the W x W grid (a ``# n=<N>`` header, then each
node's right and down neighbour, row-major), times one ``load_edge_list``
call on it and one ``grid_graph(W, W)`` call, and checks that the two
graphs are equal. Beside each time it counts the garbage collections of
generations 0, 1 and 2 that ran during the call (``gc.get_stats()``, read
outside the timed span): a time moved by where a collection landed tells
itself apart from one moved by the code.

One entry per width and checkout is appended to ``BENCH_intake.json`` at
the root of this repository: the commit id, whether its ``src/`` differs
from it, every run's wall time of each call with their median and
quartiles and every run's collection counts, the node and edge counts and
the versions of Python and numpy.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

from record import _append, _fresh_runs, _header, _quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(ROOT, "BENCH_intake.json")
WIDTHS = (33, 316)

CHILD = r"""
import gc, json, platform, sys, time
import numpy as np
from graphbayes import grid_graph, load_edge_list

def collections():
    return [generation["collections"] for generation in gc.get_stats()]

width = int(sys.argv[1])
lines = [f"# n={width * width}"]
for v in range(width * width):
    if v % width + 1 < width:
        lines.append(f"{v} {v + 1}")
    if v + width < width * width:
        lines.append(f"{v} {v + width}")
text = "\n".join(lines) + "\n"

before = collections()
start = time.perf_counter()
parsed = load_edge_list(text)
load_s = time.perf_counter() - start
load_gc = [b - a for a, b in zip(before, collections())]
before = collections()
start = time.perf_counter()
generated = grid_graph(width, width)
grid_s = time.perf_counter() - start
grid_gc = [b - a for a, b in zip(before, collections())]
assert parsed == generated
print(json.dumps({
    "load_edge_list_s": load_s, "grid_graph_s": grid_s,
    "load_edge_list_collections": load_gc, "grid_graph_collections": grid_gc,
    "n": parsed.n, "edges": len(parsed.edges),
    "python": platform.python_version(), "numpy": np.__version__,
}))
"""


def _timings(results, name):
    seconds = [r[f"{name}_s"] for r in results]
    return {f"{name}_s": seconds, f"{name}_median_s": statistics.median(seconds),
            f"{name}_quartiles_s": _quartiles(seconds)[::2],
            f"{name}_collections": [r[f"{name}_collections"] for r in results]}


def _collections(entry, name):
    """Collections of generations 0/1/2 during ``name``'s calls, summed over the runs."""
    return "/".join(str(sum(gens)) for gens in zip(*entry[f"{name}_collections"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append",
                        help="checkout to run (repeat for a pair; default: this repository)")
    parser.add_argument("--width", type=int, action="append",
                        help=f"grid width W (repeatable; default: {' and '.join(map(str, WIDTHS))})")
    parser.add_argument("--runs", type=int, default=7, help="fresh processes per width")
    args = parser.parse_args()
    checkouts = [os.path.abspath(c) for c in args.checkout or [ROOT]]

    entries = []
    for width in args.width or WIDTHS:
        runs = _fresh_runs(checkouts, CHILD, (width,), args.runs)
        for checkout, results in runs.items():
            last = results[-1]
            entry = {
                **_header(checkout),
                "grid": f"{width}x{width}",
                **_timings(results, "load_edge_list"),
                **_timings(results, "grid_graph"),
                **{key: last[key] for key in ("n", "edges", "python", "numpy")},
            }
            entries.append(entry)
            print(f"{entry['grid']:7s} {entry['commit'][:7]}{'+' if entry['dirty'] else ''}: "
                  f"load_edge_list median {entry['load_edge_list_median_s']:.4f} s "
                  f"(quartiles {entry['load_edge_list_quartiles_s'][0]:.4f} "
                  f"{entry['load_edge_list_quartiles_s'][1]:.4f}; "
                  f"gc 0/1/2 {_collections(entry, 'load_edge_list')}), "
                  f"grid_graph median {entry['grid_graph_median_s']:.4f} s "
                  f"(quartiles {entry['grid_graph_quartiles_s'][0]:.4f} "
                  f"{entry['grid_graph_quartiles_s'][1]:.4f}; "
                  f"gc 0/1/2 {_collections(entry, 'grid_graph')}), "
                  f"n={entry['n']} edges={entry['edges']}", flush=True)

    _append(BENCH_PATH, entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
