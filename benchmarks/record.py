"""Run the perfbench benchmark and append its results to BENCH_perfbench.json.

Usage, from the root of a checkout::

    python3 benchmarks/record.py --workload design --seeds 501 502 503
    python3 benchmarks/record.py --checkout ../parent --checkout . \\
        --workload design --workload cli --seeds $(seq 501 510)

For every workload and seed, ``perfbench/run.py`` runs once in each
``--checkout`` (default: this repository), reading the sources under that
checkout's ``src/``. With two checkouts the order alternates from seed to
seed, so each side runs first in half of the pairs. Each run lasts the
``run_seconds`` of ``BENCHMARK.json``. Every run, failed or not, appends
one entry to ``BENCH_perfbench.json`` at the root of this repository: its
final JSON line (``correct``, ``attempted``, ``failed``, ``metrics``) with
the workload, seed, run length, trace flag, the commit id of the checkout,
whether its ``src/`` or ``perfbench/`` differ from that commit, and the
environment from the run's detail record. A run that prints no result is
recorded with ``result`` and ``environment`` null and the tail of its
stderr, and the series goes on.

A summary follows: for each workload and checkout, the median and
quartiles of every metric over the runs with a result. With two
checkouts it also counts, among the seeds where both have a result, those
on which the second checkout is better, in the direction (``better``:
``lower`` or ``higher``) that ``BENCHMARK.json`` declares for the metric,
and, separately, those on which the two are tied, then gives a verdict
for each ``end_to_end`` metric:

- ``gain``: the second checkout is better on at least 9 of 10 pairs (ties
  count for neither side), and its median beats the first's by more than
  the first checkout's interquartile range;
- ``worse``: the second checkout's median is worse than the first's by
  more than the metric's relative ``bound``;
- ``unresolved``: the first checkout's interquartile range exceeds
  ``bound`` times its median, and not every run of the second checkout
  beats every run of the first;
- ``level``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(ROOT, "BENCH_perfbench.json")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    _BENCHMARK = json.load(_handle)
RUN_SECONDS = _BENCHMARK["run_seconds"]
BETTER = {m["name"]: m["better"] for m in _BENCHMARK["end_to_end"] + _BENCHMARK["per_layer"]}
BOUND = {m["name"]: m["bound"] for m in _BENCHMARK["end_to_end"]}


def _git(checkout, *args):
    return subprocess.run(["git", "-C", checkout, *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def _alternating(checkouts, k):
    """``checkouts`` in the order of run ``k``: with two, each runs first
    in every other run."""
    return checkouts[::-1] if k % 2 else checkouts


def _fresh_runs(checkouts, code, args, runs):
    """{checkout: the JSON that each of ``runs`` fresh processes prints}.
    A process runs the Python ``code`` with the arguments ``args``,
    importing graphbayes from the checkout's ``src/`` with one BLAS thread;
    the checkouts take turns in the order of :func:`_alternating`."""
    results = {c: [] for c in checkouts}
    for k in range(runs):
        for checkout in _alternating(checkouts, k):
            env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
                       OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
            proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                                  env=env, capture_output=True, text=True, check=True)
            results[checkout].append(json.loads(proc.stdout))
    return results


def _header(checkout):
    """The keys that open an entry of :func:`_fresh_runs`' results: the
    commit id of ``checkout``, whether its ``src/`` differs from it, the
    BLAS threads and the cpus."""
    return {"commit": _git(checkout, "rev-parse", "HEAD"),
            "dirty": bool(_git(checkout, "status", "--porcelain", "--", "src")),
            "blas_threads": 1, "cpus": os.cpu_count()}


def _run(checkout, workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    entry = {
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--", "src", "perfbench")),
        "workload": workload, "seed": seed, "seconds": RUN_SECONDS, "trace": trace,
        "exit_code": proc.returncode, "result": None, "environment": None,
    }
    lines = proc.stdout.strip().splitlines()
    try:
        environment = json.loads(lines[-2])["detail"]["environment"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, TypeError, ValueError):
        return dict(entry, stderr=proc.stderr[-2000:])
    return dict(entry, result=result, environment=environment)


def _append(path, entries):
    """Append ``entries`` to the JSON list at ``path`` through a temporary
    file, so that a run stopped mid-write leaves the recorded list whole."""
    recorded = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            recorded = json.load(handle)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(recorded + entries, handle, indent=1)
        handle.write("\n")
    os.replace(tmp, path)


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def _verdict(first, second, wins, pairs, better, bound):
    """The verdict on ``second`` against ``first``, the values of one metric
    in each checkout, the second being better on ``wins`` of ``pairs``
    seeds."""
    sign = 1 if better == "higher" else -1
    median = statistics.median(first)
    gain = sign * (statistics.median(second) - median)
    q1, _, q3 = _quartiles(first)
    if pairs and 10 * wins >= 9 * pairs and gain > q3 - q1:
        return "gain"
    if gain < -bound * abs(median):
        return "worse"
    # every run of the second checkout beats every run of the first
    separated = min(sign * v for v in second) > max(sign * v for v in first)
    if q3 - q1 > bound * abs(median) and not separated:
        return "unresolved"
    return "level"


def _summary(entries, checkouts):
    for workload in dict.fromkeys(e["workload"] for e in entries):
        runs = {c: {e["seed"]: e["result"]["metrics"] for e in entries
                    if e["workload"] == workload and e["checkout"] == c and e["result"]}
                for c in checkouts}
        names = dict.fromkeys(name for r in runs.values() for m in r.values() for name in m)
        for name in names:
            values = {c: [m[name]["value"] for m in runs[c].values() if name in m]
                      for c in checkouts}
            for c in checkouts:
                if not values[c]:
                    continue
                q = _quartiles(values[c])
                print(f"{workload:10s} {name:36s} {c}: median {statistics.median(values[c]):.6g} "
                      f"quartiles {q[0]:.6g} {q[2]:.6g} ({len(values[c])} runs)")
            if len(checkouts) == 2:
                first, second = (runs[c] for c in checkouts)
                pairs = [(first[s][name]["value"], second[s][name]["value"]) for s in first
                         if name in first[s] and name in second.get(s, {})]
                sign = 1 if BETTER[name] == "higher" else -1
                wins = sum(sign * (b - a) > 0 for a, b in pairs)
                ties = sum(a == b for a, b in pairs)
                print(f"{workload:10s} {name:36s} better ({BETTER[name]}) in the second "
                      f"checkout on {wins} of {len(pairs)} seeds, tied on {ties}")
                if name in BOUND and all(values.values()):
                    verdict = _verdict(*values.values(), wins, len(pairs), BETTER[name],
                                       BOUND[name])
                    print(f"{workload:10s} {name:36s} verdict: {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", action="append",
                        help="checkout to run (repeat for a pair; default: this repository)")
    parser.add_argument("--workload", action="append", required=True,
                        choices=("denoise", "calibrate", "design", "cli"))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    checkouts = [os.path.abspath(c) for c in args.checkout or [ROOT]]
    if len(checkouts) > 2:
        parser.error("give one checkout, or two to compare")

    entries = []
    for workload in args.workload:
        for k, seed in enumerate(args.seeds):
            for checkout in _alternating(checkouts, k):
                entry = _run(checkout, workload, seed, args.trace)
                _append(BENCH_PATH, [entry])
                entries.append(dict(entry, checkout=checkout))
                shown = (json.dumps(entry["result"]) if entry["result"]
                         else f"no result, exit {entry['exit_code']}")
                print(f"{workload} seed {seed} {entry['commit'][:7]}"
                      f"{'+' if entry['dirty'] else ''}: {shown}", flush=True)
    _summary(entries, checkouts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
