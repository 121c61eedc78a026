"""In-memory spans around graphbayes calls, and the per-layer numbers
taken from them.

A span is ``[name, start, end, parent, job, counts]``. Spans are kept in a
list while the run lasts and written out once at its end. Self time is a
span's duration minus the time its direct children cover; calls inside
one thread never overlap, so that cover is the sum of the children.

Nested layers are reached by rebinding module-level names of graphbayes
(``NESTED``) for the duration of one traced job and restoring them after.
The library source is never changed.
"""

from __future__ import annotations

import contextlib
import importlib
import time

import numpy as np


def _nbytes(obj):
    """Bytes held in numpy arrays reachable from a belief or a tuple."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(item) for item in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_nbytes(getattr(obj, f)) for f in obj.__dataclass_fields__)
    return 0


def _belief_counts(args, kwargs, result):
    return {"dense_bytes": _nbytes(result)}


def _fuse_counts(args, kwargs, result):
    prior, observation = args[0], args[1]
    rows = len(prior.constraints) + len(observation.constraints)
    return {"calls": 1, "constraint_rows": rows}


def _kernel_counts(args, kwargs, result):
    # calibration_mse(seed, trials, vectors, scale, estimator, sample, sigma)
    trials, vectors, estimator = args[1], args[2], args[4]
    n, n_s = vectors.shape[0], estimator.shape[1]
    # per trial: signal matmul, estimator matmul, sampling, noise, squares
    flops = 2 * n * n + 2 * n * n_s + 4 * n + 2 * n_s
    return {"trials": trials, "flops": trials * flops}


# Public call made by a job -> (span name, counter).
DIRECT = {
    "load_edge_list": ("graph_core.load_edge_list", None),
    "laplacian": ("graph_core.laplacian", None),
    "spectral_decomposition": ("graph_core.spectral_decomposition", None),
    "smoothness_prior": ("belief.prior", _belief_counts),
    "subspace_prior": ("belief.prior", _belief_counts),
    "bandlimit_basis": ("belief.prior", None),
    "partial_observation": ("belief.observation", _belief_counts),
    "fuse": ("inference.fuse", _fuse_counts),
    "node_variances": ("inference.queries", None),
    "directional_uncertainty": ("inference.queries", None),
    "spectral_uncertainty": ("inference.queries", None),
    "solve_map": ("inference.solve_map", None),
    "covariance_metric": ("sampling_eval.covariance_metric", None),
    "greedy_select": ("sampling_eval.greedy_select", None),
    "run_calibration": ("simulate.run_calibration", None),
    "render_report_csv": ("simulate.render_report_csv", None),
}

# Names rebound inside graphbayes during a traced job:
# (module, attribute, span name, counter).
NESTED = (
    ("graphbayes.sampling_eval", "fuse", "inference.fuse", _fuse_counts),
    ("graphbayes.sampling_eval", "partial_observation", "belief.observation",
     _belief_counts),
    ("graphbayes.sampling_eval", "covariance_metric",
     "sampling_eval.covariance_metric", None),
    ("graphbayes.simulate", "smoothness_prior", "belief.prior", _belief_counts),
    ("graphbayes.simulate", "partial_observation", "belief.observation",
     _belief_counts),
    ("graphbayes.simulate", "fuse", "inference.fuse", _fuse_counts),
    ("graphbayes.simulate", "node_variances", "inference.queries", None),
    ("graphbayes.simulate", "laplacian", "graph_core.laplacian", None),
    ("graphbayes.simulate", "spectral_decomposition",
     "graph_core.spectral_decomposition", None),
    ("graphbayes._kernels", "calibration_mse", "_kernels.calibration_mse",
     _kernel_counts),
    ("graphbayes._rng", "stream_keys", "_rng.stream_keys", None),
    ("graphbayes._rng", "normals_block", "_rng.normals_block", None),
)


class Tracer:
    """Collects spans for the jobs of one worker process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self._job, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def job(self, job_id):
        """Root span of one job, with every NESTED name rebound."""
        modules = []
        for module, attr, name, count in NESTED:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            modules.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, count))
        self._job = job_id
        root = ["job", time.perf_counter(), 0.0, -1, job_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        try:
            yield
        finally:
            root[2] = time.perf_counter()
            self._stack.pop()
            self._job = None
            for mod, attr, original in reversed(modules):
                setattr(mod, attr, original)


CLI_SUBCOMMANDS = ("estimate", "uncertainty", "simulate", "sample_select")

# Per-layer metric -> summed duration of spans with this name.
TOTALS = {
    "graph_core.load_edge_list.s": "graph_core.load_edge_list",
    "graph_core.laplacian.s": "graph_core.laplacian",
    "graph_core.spectral_decomposition.s": "graph_core.spectral_decomposition",
    "belief.prior.s": "belief.prior",
    "belief.observation.s": "belief.observation",
    "inference.fuse.s": "inference.fuse",
    "inference.queries.s": "inference.queries",
    "inference.solve_map.s": "inference.solve_map",
    "sampling_eval.greedy_select.s": "sampling_eval.greedy_select",
    "simulate.run_calibration.s": "simulate.run_calibration",
    "simulate.render_report_csv.s": "simulate.render_report_csv",
    "kernels.calibration_mse.s": "_kernels.calibration_mse",
    **{f"cli_{sub}_s": f"cli.{sub}" for sub in CLI_SUBCOMMANDS},
}

# Metric names whose values must repeat exactly from job to job.
EXACT_COUNTS = ("inference.fuse.calls", "inference.fuse.constraint_rows",
                "belief.dense_bytes", "kernels.trials")


def job_metrics(spans, first, stop):
    """Per-layer numbers of the job whose spans are ``spans[first:stop]``,
    the root span first."""
    job_s = spans[first][2] - spans[first][1]
    total, own, cover, counts = {}, {}, {}, dict.fromkeys(
        ("calls", "constraint_rows", "dense_bytes", "trials", "flops"), 0)
    for i in range(stop - 1, first, -1):  # children before their parents
        name, start, end, parent, _, span_counts = spans[i]
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        own[name] = own.get(name, 0.0) + duration - cover.get(i, 0.0)
        cover[parent] = cover.get(parent, 0.0) + duration
        for key, value in (span_counts or {}).items():
            counts[key] += value
    arith_s = own.get("_kernels.calibration_mse", 0.0)
    metrics = {key: total.get(name, 0.0) for key, name in TOTALS.items()}
    metrics.update({
        "sampling_eval.greedy_select.self_s":
            own.get("sampling_eval.greedy_select", 0.0),
        "simulate.run_calibration.self_s":
            own.get("simulate.run_calibration", 0.0),
        "kernels.rng_s":
            total.get("_rng.stream_keys", 0.0) + total.get("_rng.normals_block", 0.0),
        "kernels.arith_s": arith_s,
        "kernels.arith_gflops": counts["flops"] / arith_s / 1e9 if arith_s else 0.0,
        "kernels.trials": counts["trials"],
        "inference.fuse.calls": counts["calls"],
        "inference.fuse.constraint_rows": counts["constraint_rows"],
        "belief.dense_bytes": counts["dense_bytes"],
        "trace.job_s": job_s,
        "trace.coverage": cover.get(first, 0.0) / job_s,
    })
    return metrics
