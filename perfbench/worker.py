"""One worker process of a benchmark run.

It starts from a fresh interpreter, imports graphbayes, makes its inputs
and runs one warm-up job; the first timed job starts when that set-up
ends. It then runs jobs back to back (a closed loop with one client) until
its share of the run's seconds is used, checks every distinct output and
writes a JSON result file. In a traced run every second job is traced, so
the tracing overhead is measured inside one process.

Run by ``run.py``; the working directory is the run's scratch directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

from tracing import CLI_SUBCOMMANDS, Tracer, job_metrics
from workloads import JOBS, Lib, check, digest, grid_size, make_inputs, write_files

def _environment(gb):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_backend": gb._kernels.active_backend(),
    }


def _probe_import():
    """Wall time of a fresh ``import graphbayes``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import graphbayes"], check=True, timeout=60)
    return time.perf_counter() - start


def _probe_cli_main(inp):
    """In-process time of ``graphbayes.cli.main`` per subcommand."""
    from graphbayes.cli import main

    times = {}
    for sub in CLI_SUBCOMMANDS:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            main(inp["argv"][sub])
        times[sub] = time.perf_counter() - start
    return times


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-jobs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--refs", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--grid", required=True)
    parser.add_argument("--trials", type=int, required=True)
    args = parser.parse_args()

    import graphbayes as gb

    if os.path.dirname(os.path.abspath(gb.__file__)) != os.path.join(args.src, "graphbayes"):
        raise SystemExit(f"graphbayes imported from {gb.__file__}, not {args.src}")
    inp = make_inputs(args.workload, args.seed, grid_size(args.grid), args.trials)
    write_files(inp, os.getcwd())
    job = JOBS[args.workload]
    plain = Lib(gb, cwd=os.getcwd(), env=os.environ)
    tracer = Tracer() if args.trace else None
    traced = Lib(gb, tracer, cwd=os.getcwd(), env=os.environ) if args.trace else None
    distinct = {}

    def run_one(index, use_trace):
        record = {"traced": use_trace, "error": None}
        first = len(tracer.spans) if use_trace else 0
        start = time.perf_counter()
        try:
            if use_trace:
                with tracer.job(index):
                    out = job(gb, traced, inp)
            else:
                out = job(gb, plain, inp)
        except Exception as exc:  # a failed job is counted, the run goes on
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            record["digest"] = digest(out)
            distinct.setdefault(record["digest"], out)
            if use_trace:
                record["layers"] = job_metrics(tracer.spans, first, len(tracer.spans))
        record["wall"] = time.perf_counter() - start
        return record

    warmup = run_one(-1, False)
    first_job_at = time.monotonic()
    deadline = time.perf_counter() + args.seconds
    records = []
    while len(records) < args.min_jobs or time.perf_counter() < deadline:
        records.append(run_one(len(records), bool(args.trace) and len(records) % 2 == 0))
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    probes = {}
    if args.trace:
        probes["import_s"] = _probe_import()
        if args.workload == "cli":
            probes["cli_main_s"] = _probe_cli_main(inp)
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "counts"],
                       "spans": tracer.spans}, handle)

    with open(args.refs, encoding="utf-8") as handle:
        refs = json.load(handle)
    ref = {key: np.array(value) if isinstance(value, list) and key != "greedy" else value
           for key, value in refs.items()}
    problems = {key: check(args.workload, gb, inp, out, ref) for key, out in distinct.items()}
    for record in [warmup] + records:
        if record["error"] is None and problems[record["digest"]]:
            record["error"] = "; ".join(problems[record["digest"]])
        record.pop("digest", None)

    result = {
        "first_job_at": first_job_at,
        "warmup": warmup,
        "jobs": records,
        # ru_maxrss is in KiB on Linux; a cli job's work runs in children
        "peak_rss_mb": (usage_children if args.workload == "cli" else usage_self) / 1024,
        "probes": probes,
        "environment": _environment(gb),
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
