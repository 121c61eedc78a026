"""Seeded Monte Carlo calibration: empirical error vs. posterior variance.

Each trial draws a ground-truth signal from the smoothness prior, observes
it under the configured noise model, estimates it as the posterior mean and
accumulates per-node squared errors. The posterior variance diagonal is
computed once, outside the trial loop, because it does not depend on the
observed values. When the model is calibrated the two vectors agree up to
Monte Carlo error.

Trials use independent counter-based substreams (seed, trial index), so the
report is a pure function of the configuration regardless of execution
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .belief import SamplingOperator, partial_observation, smoothness_prior
from .graph_core import Graph, laplacian, spectral_decomposition
from .inference import fuse, node_variances, posterior_covariance

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "draw_prior_signal",
    "observe",
    "run_calibration",
    "render_report_csv",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one calibration experiment.

    ``eps`` must be positive: ground-truth signals are drawn from the
    smoothness prior, which is only a proper distribution once
    regularized. ``sampling`` restricts observations to a node subset
    (None observes every node).
    """

    graph: Graph
    eps: float
    sigma2: float
    trials: int
    seed: int
    sampling: tuple = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive to draw prior signals")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be non-negative")
        if self.sampling is not None:
            object.__setattr__(self, "sampling", tuple(int(v) for v in self.sampling))


@dataclass(frozen=True)
class ExperimentReport:
    """Per-node empirical mean squared error against posterior variance."""

    variance: np.ndarray
    mse: np.ndarray
    trials: int
    seed: int
    eps: float
    sigma2: float
    sampling: tuple = None

    @property
    def ratio(self):
        """Per-node mse / variance; 0 where variance is infinite and nan
        for 0/0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.mse / self.variance


def draw_prior_signal(spectrum, eps, rng):
    """One signal from the regularized smoothness prior.

    The draw is ``vectors @ (xi / sqrt(values + eps))`` with ``xi`` standard
    normal, which has covariance ``(L + eps I)^-1`` exactly.
    """
    if eps <= 0:
        raise ValueError("eps must be positive to draw prior signals")
    scale = 1.0 / np.sqrt(spectrum.values + eps)
    return spectrum.vectors @ (scale * rng.normals(spectrum.n))


def observe(signal, sigma2, sampling, rng):
    """Noisy observation of a signal, optionally restricted to a subset.

    Always consumes the same number of variates from ``rng`` regardless of
    ``sigma2`` so that stream positions stay aligned across noise levels.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be non-negative")
    signal = np.asarray(signal, dtype=np.float64)
    if sampling is None:
        sampled = signal
    else:
        sampled = signal[list(sampling.nodes)]
    return sampled + np.sqrt(sigma2) * rng.normals(sampled.shape[0])


def _estimator_matrix(prior, operator, sigma2, summary):
    """Matrix mapping observed values to the posterior mean.

    The mean is linear in the observations here because the prior carries no
    information vector, and both forms are read off ``summary``, the
    posterior for an all-zero observation, with no further ``fuse``. With
    positive noise it is ``covariance @ S / sigma2``, ``S`` the selection
    matrix. In the noise-free limit column j is the constrained mean for a
    unit observation at the j-th sampled node: the minimum-norm point
    ``S e_j`` of the node-pinning constraints, moved by the finite-variance
    part of the posterior against the prior's pull, which gives
    ``S - cov_basis diag(cov_values) cov_basis' P_prior S``.
    """
    nodes = list(operator.nodes)
    if sigma2 > 0:
        cov = posterior_covariance(summary)
        return cov[:, nodes] / sigma2
    basis = summary.cov_basis
    pull = basis.T @ prior.precision[:, nodes]
    # S by index: 0.0 - x, not -x, gives the signed zeros of S - x
    estimator = 0.0 - basis @ (summary.cov_values[:, None] * pull)
    estimator[nodes, np.arange(len(nodes))] += 1.0
    return estimator


def run_calibration(config):
    """Run the Monte Carlo experiment described by ``config``.

    Returns an :class:`ExperimentReport` whose variance vector never touches
    the random number generator: re-running with a different seed changes
    only the mse column. Nodes whose direction has unbounded posterior
    uncertainty are flagged with ``inf`` variance rather than raising.
    """
    graph = config.graph
    lap = laplacian(graph)
    spectrum = spectral_decomposition(lap)
    prior = smoothness_prior(lap, config.eps)

    if config.sampling is None:
        operator = SamplingOperator.all_nodes(graph.n)
    else:
        operator = SamplingOperator(n=graph.n, nodes=config.sampling)

    zero_obs = partial_observation(operator, np.zeros(operator.n_s), config.sigma2)
    summary = fuse(prior, zero_obs)
    variance = node_variances(summary)
    estimator = _estimator_matrix(prior, operator, config.sigma2, summary)

    mse = _kernels.calibration_mse(
        config.seed,
        config.trials,
        spectrum.vectors,
        1.0 / np.sqrt(spectrum.values + config.eps),
        estimator,
        np.array(operator.nodes, dtype=np.int64),
        float(np.sqrt(config.sigma2)),
    )

    return ExperimentReport(
        variance=variance,
        mse=mse,
        trials=config.trials,
        seed=config.seed,
        eps=config.eps,
        sigma2=config.sigma2,
        sampling=config.sampling,
    )


def _fmt(value):
    return format(value, ".12g")


def render_report_csv(report):
    """Serialize a report as ``node,variance,mse,ratio`` CSV text with a
    comment block echoing the configuration."""
    lines = [
        f"# eps={_fmt(report.eps)} sigma2={_fmt(report.sigma2)} "
        f"trials={report.trials} seed={report.seed}"
    ]
    if report.sampling is not None:
        lines.append("# nodes=" + ",".join(str(v) for v in report.sampling))
    lines.append("node,variance,mse,ratio")
    ratio = report.ratio
    for i in range(report.variance.shape[0]):
        lines.append(
            f"{i},{_fmt(report.variance[i])},{_fmt(report.mse[i])},{_fmt(ratio[i])}"
        )
    return "\n".join(lines) + "\n"
