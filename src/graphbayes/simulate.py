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
from .graph_core import Graph, _as_index, _as_scalar, laplacian, spectral_decomposition
from .inference import fuse, node_variances, posterior_covariance

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_calibration",
    "render_report_csv",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one calibration experiment.

    ``eps`` must be positive: ground-truth signals are drawn from the
    smoothness prior, which is only a proper distribution once
    regularized. ``sampling`` restricts observations to a node subset
    (None observes every node), checked as :class:`SamplingOperator`
    checks it when the configuration is built.
    """

    graph: Graph
    eps: float
    sigma2: float
    trials: int
    seed: int
    sampling: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "trials", _as_index(self.trials, "trials"))
        object.__setattr__(self, "seed", _as_index(self.seed, "seed"))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        _as_scalar(self.eps, "eps (to draw prior signals)", positive=True)
        _as_scalar(self.sigma2, "sigma2")
        if self.sampling is not None:
            nodes = SamplingOperator(n=self.graph.n, nodes=self.sampling).nodes
            object.__setattr__(self, "sampling", nodes)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-node empirical mean squared error against posterior variance,
    with the configuration that produced them."""

    variance: np.ndarray
    mse: np.ndarray
    config: ExperimentConfig

    @property
    def ratio(self):
        """Per-node mse / variance; 0 where variance is infinite and nan
        for 0/0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.mse / self.variance


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
        # gathered in C order, the layout the kernel's bits hold for
        return np.take(posterior_covariance(summary), nodes, axis=1) / sigma2
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
    operator = SamplingOperator(
        n=graph.n, nodes=range(graph.n) if config.sampling is None else config.sampling)
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

    return ExperimentReport(variance=variance, mse=mse, config=config)


def _fmt(value):
    return format(value, ".12g")


def render_report_csv(report):
    """Serialize a report as ``node,variance,mse,ratio`` CSV text with a
    comment block echoing the configuration."""
    config = report.config
    lines = [
        f"# eps={_fmt(config.eps)} sigma2={_fmt(config.sigma2)} "
        f"trials={config.trials} seed={config.seed}"
    ]
    if config.sampling is not None:
        lines.append("# nodes=" + ",".join(str(v) for v in config.sampling))
    lines.append("node,variance,mse,ratio")
    ratio = report.ratio
    for i in range(report.variance.shape[0]):
        lines.append(
            f"{i},{_fmt(report.variance[i])},{_fmt(report.mse[i])},{_fmt(ratio[i])}"
        )
    return "\n".join(lines) + "\n"
