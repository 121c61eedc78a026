"""Time greedy sampling-set selection in fresh processes and append the
results to BENCH_greedy.json.

Usage, from the root of a checkout::

    python3 benchmarks/bench_greedy.py
    python3 benchmarks/bench_greedy.py --checkout ../parent --checkout . --runs 9

Three cases on the 9x9 grid under the eps = 0 smoothness prior, budget 3:
``trace`` at sigma2 = 0, ``logdet`` at sigma2 = 1 and ``max_eig`` at
sigma2 = 0. Each case runs in ``--runs`` fresh processes per ``--checkout``
(default: this repository), which import graphbayes from that checkout's
``src/`` with one BLAS thread; with two checkouts the order alternates from
run to run. A process times its first ``greedy_select`` call, the one a
``sample-select`` process pays, and reads the process's peak resident
set (``VmHWM`` of ``/proc/self/status``, null where there is none). It
then repeats the call under tracemalloc, which numpy reports its array
buffers to, with ``sampling_eval``'s names counted: the peak traced bytes,
the candidates scored exactly (those handed to ``_exact_scores``) and the
``fuse`` calls. The second call must return the same set.

One entry per case and checkout is appended to ``BENCH_greedy.json`` at
the root of this repository: the commit id, whether its ``src/`` differs
from it, every run's wall time, ``VmHWM`` and peak traced bytes with their
medians (and the times' quartiles), the set, the counts and the versions
of Python and numpy.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

from record import _append, _fresh_runs, _header, _quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(ROOT, "BENCH_greedy.json")
CASES = (("trace", 0.0), ("logdet", 1.0), ("max_eig", 0.0))
BUDGET = 3

CHILD = r"""
import json, platform, sys, time, tracemalloc
import numpy as np
from graphbayes import grid_graph, laplacian, sampling_eval, smoothness_prior

metric, sigma2, budget = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
prior = smoothness_prior(laplacian(grid_graph(9, 9)), 0.0)
start = time.perf_counter()
nodes = sampling_eval.greedy_select(prior, budget, sigma2, metric).nodes
seconds = time.perf_counter() - start
try:
    with open("/proc/self/status", encoding="ascii") as status:
        hwm_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    hwm_kb = None

counts = dict.fromkeys(("_exact_scores", "fuse"), 0)
exact_scores, fuse = sampling_eval._exact_scores, sampling_eval.fuse

def counted_exact_scores(prior, selected, candidates, *args):
    counts["_exact_scores"] += len(candidates)
    return exact_scores(prior, selected, candidates, *args)

def counted_fuse(*args):
    counts["fuse"] += 1
    return fuse(*args)

sampling_eval._exact_scores, sampling_eval.fuse = counted_exact_scores, counted_fuse
tracemalloc.start()
assert sampling_eval.greedy_select(prior, budget, sigma2, metric).nodes == nodes
peak_traced = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({
    "seconds": seconds, "vm_hwm_kb": hwm_kb, "peak_traced_bytes": peak_traced,
    "nodes": list(nodes),
    "exact_scores": counts["_exact_scores"],
    "fuse_calls": counts["fuse"],
    "python": platform.python_version(), "numpy": np.__version__,
}))
"""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append",
                        help="checkout to run (repeat for a pair; default: this repository)")
    parser.add_argument("--runs", type=int, default=7, help="fresh processes per case")
    args = parser.parse_args()
    checkouts = [os.path.abspath(c) for c in args.checkout or [ROOT]]

    entries = []
    for metric, sigma2 in CASES:
        runs = _fresh_runs(checkouts, CHILD, (metric, sigma2, BUDGET), args.runs)
        for checkout, results in runs.items():
            seconds = [r["seconds"] for r in results]
            hwm = [r["vm_hwm_kb"] for r in results]
            traced = [r["peak_traced_bytes"] for r in results]
            last = results[-1]
            entry = {
                **_header(checkout),
                "grid": "9x9", "eps": 0.0, "budget": BUDGET, "metric": metric,
                "sigma2": sigma2,
                "seconds": seconds, "median_s": statistics.median(seconds),
                "quartiles_s": _quartiles(seconds)[::2],
                "vm_hwm_kb": hwm,
                "median_vm_hwm_kb": None if None in hwm else statistics.median(hwm),
                "peak_traced_bytes": traced,
                "median_peak_traced_bytes": statistics.median(traced),
                **{key: last[key] for key in
                   ("nodes", "exact_scores", "fuse_calls", "python", "numpy")},
            }
            entries.append(entry)
            print(f"{metric:8s} sigma2={sigma2:g} {entry['commit'][:7]}"
                  f"{'+' if entry['dirty'] else ''}: median {entry['median_s']:.4f} s "
                  f"(quartiles {entry['quartiles_s'][0]:.4f} {entry['quartiles_s'][1]:.4f}), "
                  f"VmHWM median {entry['median_vm_hwm_kb']} kB, "
                  f"peak traced median {entry['median_peak_traced_bytes']:.0f} B, "
                  f"{entry['exact_scores']} exact scores, {entry['fuse_calls']} fuse calls, "
                  f"set {tuple(entry['nodes'])}", flush=True)

    _append(BENCH_PATH, entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
