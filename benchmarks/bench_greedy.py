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
``sample-select`` process pays, then repeats the call with
``sampling_eval``'s names counted: the candidates scored exactly (the
observations built, less the one per screened round) and the ``fuse``
calls. The second call must return the same set.

One entry per case and checkout is appended to ``BENCH_greedy.json`` at
the root of this repository: the commit id, whether its ``src/`` differs
from it, every run's wall time with their median and quartiles, the set,
the counts and the versions of Python and numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from record import _append, _git

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(ROOT, "BENCH_greedy.json")
CASES = (("trace", 0.0), ("logdet", 1.0), ("max_eig", 0.0))
BUDGET = 3

CHILD = r"""
import json, platform, sys, time
import numpy as np
from graphbayes import grid_graph, laplacian, sampling_eval, smoothness_prior

metric, sigma2, budget = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
prior = smoothness_prior(laplacian(grid_graph(9, 9)), 0.0)
start = time.perf_counter()
nodes = sampling_eval.greedy_select(prior, budget, sigma2, metric).nodes
seconds = time.perf_counter() - start

counts = dict.fromkeys(("partial_observation", "_screen", "fuse"), 0)

def counted(name):
    original = getattr(sampling_eval, name)
    def call(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)
    return call

for name in counts:
    setattr(sampling_eval, name, counted(name))
assert sampling_eval.greedy_select(prior, budget, sigma2, metric).nodes == nodes
print(json.dumps({
    "seconds": seconds, "nodes": list(nodes),
    "exact_scores": counts["partial_observation"] - counts["_screen"],
    "fuse_calls": counts["fuse"],
    "python": platform.python_version(), "numpy": np.__version__,
}))
"""


def _run(checkout, metric, sigma2):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, metric, str(sigma2), str(BUDGET)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append",
                        help="checkout to run (repeat for a pair; default: this repository)")
    parser.add_argument("--runs", type=int, default=7, help="fresh processes per case")
    args = parser.parse_args()
    checkouts = [os.path.abspath(c) for c in args.checkout or [ROOT]]

    entries = []
    for metric, sigma2 in CASES:
        runs = {c: [] for c in checkouts}
        for k in range(args.runs):
            for checkout in checkouts[::-1] if k % 2 else checkouts:
                runs[checkout].append(_run(checkout, metric, sigma2))
        for checkout, results in runs.items():
            seconds = [r["seconds"] for r in results]
            last = results[-1]
            entry = {
                "commit": _git(checkout, "rev-parse", "HEAD"),
                "dirty": bool(_git(checkout, "status", "--porcelain", "--", "src")),
                "grid": "9x9", "eps": 0.0, "budget": BUDGET, "metric": metric,
                "sigma2": sigma2, "blas_threads": 1, "cpus": os.cpu_count(),
                "seconds": seconds, "median_s": statistics.median(seconds),
                "quartiles_s": statistics.quantiles(seconds, n=4)[::2],
                **{key: last[key] for key in
                   ("nodes", "exact_scores", "fuse_calls", "python", "numpy")},
            }
            entries.append(entry)
            print(f"{metric:8s} sigma2={sigma2:g} {entry['commit'][:7]}"
                  f"{'+' if entry['dirty'] else ''}: median {entry['median_s']:.4f} s "
                  f"(quartiles {entry['quartiles_s'][0]:.4f} {entry['quartiles_s'][1]:.4f}), "
                  f"{entry['exact_scores']} exact scores, {entry['fuse_calls']} fuse calls, "
                  f"set {tuple(entry['nodes'])}", flush=True)

    _append(BENCH_PATH, entries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
