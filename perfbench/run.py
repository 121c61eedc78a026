"""graphbayes benchmark: four workloads, end-to-end metrics, a traced run
for per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload denoise --seed 1 --seconds 20 --trace 0

``--grid`` and ``--trials`` resize the calibrate workload (default 24x24
and 20000), for timing other calibration sizes with the same jobs, checks
and timing loop; the benchmark itself runs the defaults.

Workloads (inputs made from ``--seed``; every job does the same work):

* ``denoise``: one large dense posterior per job. A 32x32 grid observed
  with noise plus an unobserved 8x8 grid (n=1088): eigh, ``fuse``, node,
  spectral and directional variances and the iterative MAP. The hidden
  component puts infinite variance into every job.
* ``calibrate``: ``run_calibration`` on a 24x24 grid, 20000 trials, then
  the CSV report. The Monte Carlo kernel dominates.
* ``design``: hundreds of small ``fuse`` calls, most with exact
  constraints: greedy sampling-set selection on a 9x9 grid (trace metric
  noise-free, logdet metric noisy), a noise-free calibration on a 16x16
  grid and an exact bandlimited reconstruction.
* ``cli``: four fresh ``python -m graphbayes`` processes on 8x8 inputs, one
  per subcommand. Process start, import and CSV output dominate.

A run makes ``WORKERS`` fresh worker processes, one after another, each
measuring its share of ``--seconds``. With ``--trace 0`` it reports the
end-to-end metrics: ``setup_s`` (median over the workers of the time from
process spawn to the first timed job), ``job_s`` (median job wall time),
``job_tail_s`` (the highest percentile with at least ten jobs beyond it),
``peak_rss_mb``. With ``--trace 1`` it reports per-layer metrics from
spans. The last line of stdout is one JSON object; the lines before it name
every metric with its unit and give the run's details. The exit code is 1
when any output check failed.

Generated load uses one process at a time and one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKERS = 3
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads, in this process and its children

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from tracing import CLI_SUBCOMMANDS, EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS, grid_size, make_inputs  # noqa: E402


def _tail(values):
    """Highest percentile with at least ten values beyond it, and the value."""
    ordered = sorted(values)
    rank = max(len(ordered) - 11, 0)
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _run_worker(args, k, src, run_dir, refs_path, out_dir):
    result_path = os.path.join(run_dir, f"worker-{k}.json")
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds / WORKERS),
        "--min-jobs", str(-(-11 // WORKERS)), "--trace", str(args.trace),
        "--grid", args.grid, "--trials", str(args.trials),
        "--src", src, "--refs", refs_path, "--result", result_path,
        "--spans", os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}-w{k}.json"),
    ]
    env = dict(os.environ, PYTHONPATH=src)
    # set-up, the worker's share of the run, its last job and the probes
    timeout = 45 + 2 * args.seconds / WORKERS
    spawned = time.monotonic()
    # its own process group, so that the worker and its cli children can
    # be stopped together on a timeout or when this process is terminated
    proc = subprocess.Popen(command, cwd=run_dir, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {k} took longer than {timeout:g} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise SystemExit(f"worker {k} exited {code}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    result["setup_s"] = result["first_job_at"] - spawned
    return result


def _layer_metrics(workload, results, jobs):
    """Per-layer metrics, a note on each, and self-check failures."""
    traced = [job for job in jobs if job["traced"] and job["error"] is None]
    untraced = [job["wall"] for job in jobs if not job["traced"]]
    problems = []
    metrics, notes = {}, {}
    for key in traced[0]["layers"]:
        values = [job["layers"][key] for job in traced]
        if key in EXACT_COUNTS:
            metrics[key] = values[0]
            notes[key] = f"exact count, equal in all {len(traced)} traced jobs"
            if len(set(values)) > 1:
                problems.append(f"{key} differs between jobs: {sorted(set(values))}")
        else:
            metrics[key] = statistics.median(values)
            notes[key] = f"median of {len(traced)} traced jobs"
    # kernel trials of one job; cli trials run in children and count 0
    metrics["trials_per_s"] = metrics["kernels.trials"] / statistics.median(untraced)
    notes["trials_per_s"] = f"kernel trials / median of {len(untraced)} untraced jobs"
    metrics["cli.import_s"] = statistics.median(r["probes"]["import_s"] for r in results)
    notes["cli.import_s"] = f"median of {len(results)} fresh imports"
    overhead = 0.0
    if workload == "cli":
        for sub in CLI_SUBCOMMANDS:
            inproc = statistics.median(r["probes"]["cli_main_s"][sub] for r in results)
            overhead += metrics[f"cli_{sub}_s"] - inproc
    metrics["cli.process_overhead_s"] = overhead
    notes["cli.process_overhead_s"] = "subprocess wall minus in-process cli.main, summed"
    metrics["trace.overhead_s"] = (statistics.median(job["wall"] for job in traced)
                                   - statistics.median(untraced))
    notes["trace.overhead_s"] = "median traced minus median untraced job"
    return metrics, notes, problems


UNITS = (("per_s", "1/s"), ("gflops", "GFLOP/s"), ("_s", "s"), (".s", "s"),
         ("_mb", "MB"), ("coverage", "ratio"))


def _unit(name):
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def _grid(text):
    try:
        width, height = grid_size(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not WIDTHxHEIGHT: {text!r}") from None
    return f"{width}x{height}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", type=_grid, default="24x24",
                        help="calibrate only: grid WIDTHxHEIGHT")
    parser.add_argument("--trials", type=int, default=20000,
                        help="calibrate only: Monte Carlo trials")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "graphbayes", "__init__.py")):
        print(f"error: no graphbayes sources under {src}", file=sys.stderr)
        return 2

    out_dir = os.path.join(root, ".perfbench_out")
    run_dir = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        inp = make_inputs(args.workload, args.seed, grid_size(args.grid), args.trials)
        ref = oracle.references(args.workload, inp)
        with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as handle:
            recorded = json.load(handle)
        if args.workload == "design":
            ref["greedy"] = recorded["design_greedy"]
        if args.workload == "cli":
            ref["cli"] = recorded["cli"][inp["variant"]]
        refs_path = os.path.join(run_dir, "refs.json")
        with open(refs_path, "w", encoding="utf-8") as handle:
            json.dump({k: v.tolist() if isinstance(v, np.ndarray) else v
                       for k, v in ref.items()}, handle)
        results = [_run_worker(args, k, src, run_dir, refs_path, out_dir)
                   for k in range(WORKERS)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    jobs = [job for r in results for job in r["jobs"]]
    attempted = len(jobs) + len(results)  # the warm-up jobs are checked too
    errors = [job["error"] for r in results for job in [r["warmup"]] + r["jobs"]
              if job["error"]]
    walls = [job["wall"] for job in jobs]
    percentile, tail = _tail(walls)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "workers": WORKERS, "jobs": len(jobs),
        "job_s_quartiles": _quartiles(walls),
        "job_s_samples": walls,
        "job_tail_percentile": percentile,
        "setup_s_samples": [r["setup_s"] for r in results],
        "failed_ratio": len(errors) / attempted,
        "errors": sorted(set(errors))[:5],
        "environment": results[0]["environment"],
    }
    if args.workload == "calibrate":
        detail.update(grid=args.grid, trials=args.trials)
    problems = []
    if args.trace:
        metrics, notes, problems = _layer_metrics(args.workload, results, jobs)
        detail["problems"] = problems
        notes["kernels.arith_gflops"] += ", computed from array shapes"
        if metrics["trace.coverage"] < 0.9:
            print("warning: spans cover less than 90% of a traced job", file=sys.stderr)
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "job_s": statistics.median(walls),
            "job_tail_s": tail,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        }
        notes = {"setup_s": f"median of {len(results)} processes",
                 "job_s": f"median of {len(walls)} jobs",
                 "job_tail_s": f"p{percentile:.0f} of {len(walls)} jobs",
                 "peak_rss_mb": f"max of {len(results)} processes"}
    for name, value in metrics.items():
        print(f"{name:36s} {value:12.6g} {_unit(name):8s} {notes[name]}")
    print(f"{'failed_ratio':36s} {detail['failed_ratio']:12.6g} {'ratio':8s} "
          f"{len(errors)} of {attempted} jobs")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not errors and not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if not errors and not problems else 1


if __name__ == "__main__":
    sys.exit(main())
