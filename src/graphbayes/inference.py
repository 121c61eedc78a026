"""Posterior formation and uncertainty queries for fused Gaussian beliefs.

The posterior of a prior belief fused with an observation belief is a
Gaussian restricted to the affine set cut out by the exact constraints. Its
signal space splits into three mutually orthogonal parts:

* ``zero_basis``  - directions fixed exactly by constraints (zero variance),
* ``cov_basis``   - directions with finite positive variance,
* ``null_basis``  - directions the fused precision does not see at all
                    (infinite variance; the density is flat there).

Queries against a :class:`PosteriorSummary` return ``math.inf`` for
directions touching the flat part rather than raising, so downstream
metrics can propagate unbounded uncertainty as a value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PosteriorSummary",
    "InconsistentConstraintsError",
    "InfiniteVarianceError",
    "SolverDivergenceError",
    "NonUniqueSolutionWarning",
    "DegradedRankWarning",
    "RANK_TOL",
    "DIRECTION_TOL",
    "fuse",
    "posterior_mean",
    "posterior_covariance",
    "node_variances",
    "directional_uncertainty",
    "spectral_uncertainty",
    "solve_map",
    "perfect_reconstruct",
    "is_perfectly_reconstructible",
]

# Relative eigenvalue cut separating finite from infinite variance: the
# threshold scales with the largest projected precision eigenvalue (floor 1)
# so that graph size and noise scale do not shift the classification.
RANK_TOL = 1e-10

# Tolerance on the component of a query direction inside the flat subspace.
DIRECTION_TOL = 1e-8

_CONSISTENCY_TOL = 1e-8


class InconsistentConstraintsError(ValueError):
    """Exact constraints contradict each other (no feasible signal)."""


class InfiniteVarianceError(ValueError):
    """A dense covariance was requested but flat directions are present."""


class SolverDivergenceError(RuntimeError):
    """Iterative solver failed to reach its residual target."""


class NonUniqueSolutionWarning(UserWarning):
    """The estimation problem has flat directions; the minimum-norm
    representative was returned."""


class DegradedRankWarning(UserWarning):
    """Sample/subspace geometry is rank deficient; a pseudo-inverse
    reconstruction was returned."""


@dataclass(frozen=True)
class PosteriorSummary:
    """Mean plus an orthogonal decomposition of posterior uncertainty."""

    mean: np.ndarray
    cov_basis: np.ndarray   # (n, k) directions with finite positive variance
    cov_values: np.ndarray  # (k,) variances along cov_basis columns
    null_basis: np.ndarray  # (n, m) flat directions (infinite variance)
    zero_basis: np.ndarray  # (n, z) exactly determined directions

    @property
    def n(self):
        return self.mean.shape[0]

    @property
    def unique_mean(self):
        return self.null_basis.shape[1] == 0


def _freeze(arr):
    # C order whatever the source (eigh returns Fortran-ordered vectors):
    # the layout decides how later products with the array round
    out = np.array(arr, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


def _reduce_constraints(c_mat, d_vec):
    """Orthonormalize constraint rows (at least one) and solve them.

    Returns ``(zero_basis, kernel_basis, particular)`` where ``particular``
    is the minimum-norm point satisfying all constraints. Raises
    :class:`InconsistentConstraintsError` when the system has no solution.
    """
    _, svals, vt = np.linalg.svd(c_mat, full_matrices=True)
    cutoff = max(c_mat.shape) * np.finfo(np.float64).eps * (svals[0] if svals.size else 0.0)
    rank = int(np.sum(svals > cutoff))
    zero_basis = vt[:rank].T
    kernel_basis = vt[rank:].T
    particular, *_ = np.linalg.lstsq(c_mat, d_vec, rcond=None)
    residual = c_mat @ particular - d_vec
    scale = 1.0 + (np.max(np.abs(d_vec)) if d_vec.size else 0.0)
    if np.max(np.abs(residual)) > _CONSISTENCY_TOL * scale:
        raise InconsistentConstraintsError(
            "exact constraints are mutually inconsistent "
            f"(max violation {np.max(np.abs(residual)):.3e})"
        )
    return zero_basis, kernel_basis, particular


def fuse(prior, observation):
    """Fuse two beliefs and summarize the resulting posterior.

    The fused density on the constraint set ``{x : C x = d}`` is
    proportional to ``exp(-x' P x / 2 + h' x)`` with ``P`` and ``h`` the
    summed finite parts. The constraint kernel is eigendecomposed under the
    projected precision; eigenvalues below ``RANK_TOL`` times the largest
    one (floor 1) are classified as flat, and one below minus that cut
    raises ``ValueError``: the fused precision must be positive
    semidefinite. The mean is the minimum-norm representative when flat
    directions exist.

    Without constraints the kernel is the whole space, so ``P`` itself is
    eigendecomposed: its eigenvectors are the bases and ``h`` is solved
    directly, with no projection through an identity kernel.
    """
    fused = prior.combine(observation)
    n = fused.n
    c_mat, d_vec = fused.constraint_arrays()
    if c_mat.shape[0] == 0:
        kernel, zero_basis, particular = None, np.zeros((n, 0)), np.zeros(n)
        projected = fused.precision + fused.precision.T
        g = fused.info
    else:
        zero_basis, kernel, particular = _reduce_constraints(c_mat, d_vec)
        if kernel.shape[1] == 0:
            return PosteriorSummary(
                mean=_freeze(particular),
                cov_basis=_freeze(np.zeros((n, 0))),
                cov_values=_freeze(np.zeros(0)),
                null_basis=_freeze(np.zeros((n, 0))),
                zero_basis=_freeze(zero_basis),
            )
        projected = kernel.T @ fused.precision @ kernel
        projected = projected + projected.T
        # h restricted to the kernel, shifted by the particular solution
        g = kernel.T @ (fused.info - fused.precision @ particular)
    projected *= 0.5
    evals, evecs = np.linalg.eigh(projected)
    tau = RANK_TOL * max(float(evals[-1]), 1.0)
    if evals[0] < -tau:
        raise ValueError(
            "fused precision is indefinite: eigenvalue "
            f"{float(evals[0]):.3e} lies below -tau = {-tau:.3e}"
        )
    finite = evals >= tau

    g_rot = evecs.T @ g
    y = evecs[:, finite] @ (g_rot[finite] / evals[finite])
    if kernel is None:
        # -0.0 -> +0.0, in place, as the product with an identity kernel did
        np.add(evecs, 0.0, out=evecs)
        mean = particular + y
        cov_basis, null_basis = evecs[:, finite], evecs[:, ~finite]
    else:
        mean = particular + kernel @ y
        cov_basis, null_basis = kernel @ evecs[:, finite], kernel @ evecs[:, ~finite]

    return PosteriorSummary(
        mean=_freeze(mean),
        cov_basis=_freeze(cov_basis),
        cov_values=_freeze(1.0 / evals[finite]),
        null_basis=_freeze(null_basis),
        zero_basis=_freeze(zero_basis),
    )


def posterior_mean(summary):
    """Posterior mean (minimum-norm representative if not unique)."""
    return summary.mean


def posterior_covariance(summary):
    """Dense posterior covariance.

    Only defined when no flat directions exist; zero-variance directions
    contribute zero blocks. Raises :class:`InfiniteVarianceError` otherwise,
    in which case use :func:`directional_uncertainty` instead.
    """
    if summary.null_basis.shape[1] > 0:
        raise InfiniteVarianceError(
            "posterior has directions of infinite variance; "
            "query them directionally instead"
        )
    cov = summary.cov_basis @ (summary.cov_values[:, None] * summary.cov_basis.T)
    return 0.5 * (cov + cov.T)


def node_variances(summary):
    """Marginal variance for each node direction; ``inf`` where the node
    has a component along a flat direction."""
    finite = (summary.cov_basis ** 2) @ summary.cov_values
    if summary.null_basis.shape[1] == 0:
        return finite
    null_mass = np.linalg.norm(summary.null_basis, axis=1)
    return np.where(null_mass > DIRECTION_TOL, math.inf, finite)


def directional_uncertainty(summary, direction):
    """Posterior variance along a direction (normalized internally).

    Returns ``math.inf`` when the direction has a component inside the flat
    subspace beyond ``DIRECTION_TOL``; returns 0 for directions fixed by
    constraints.
    """
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != (summary.n,):
        raise ValueError(
            f"direction must have shape ({summary.n},), got {direction.shape}"
        )
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise ValueError("direction must be a nonzero vector")
    unit = direction / norm
    if summary.null_basis.shape[1]:
        if np.linalg.norm(summary.null_basis.T @ unit) > DIRECTION_TOL:
            return math.inf
    coeffs = summary.cov_basis.T @ unit
    return float(summary.cov_values @ coeffs**2)


def spectral_uncertainty(summary, spectrum):
    """Variance along each eigenbasis direction, as a length-n vector.

    Under a smoothness prior with a full noisy observation the i-th entry
    equals ``1 / (1/sigma2 + value_i)``. The entries are those of
    :func:`directional_uncertainty` on each eigenvector, up to rounding,
    taken in one batch: the finite variances from one product of
    ``cov_basis.T`` with the whole eigenvector matrix, and the ``inf``
    entries from the column norms of ``null_basis.T`` times that matrix.
    """
    if spectrum.n != summary.n:
        raise ValueError("spectrum dimension does not match posterior")
    vectors = spectrum.vectors
    norms = np.linalg.norm(vectors, axis=0)
    coeffs = summary.cov_basis.T @ vectors
    np.square(coeffs, out=coeffs)
    variances = (summary.cov_values @ coeffs) / norms**2
    if summary.null_basis.shape[1]:
        null_mass = np.linalg.norm(summary.null_basis.T @ vectors, axis=0) / norms
        variances[null_mass > DIRECTION_TOL] = math.inf
    return variances


def _conjugate_gradient(apply_op, rhs, rtol, max_iter, x0=None):
    """CG for a symmetric PSD operator; minimum-norm solution from x0=0
    when the right-hand side lies in the operator's range."""
    x = np.zeros_like(rhs) if x0 is None else x0.astype(np.float64).copy()
    r = rhs - apply_op(x)
    target = rtol * max(np.linalg.norm(rhs), np.linalg.norm(r))
    if np.linalg.norm(r) <= target:
        return x
    p = r.copy()
    rs = float(r @ r)
    for _ in range(max_iter):
        ap = apply_op(p)
        p_ap = float(p @ ap)
        if p_ap <= 0.0:
            break  # flat or numerically indefinite direction; stop moving
        alpha = rs / p_ap
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= target:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise SolverDivergenceError(
        f"conjugate gradient missed relative residual {rtol:.1e} "
        f"after {max_iter} iterations "
        f"(residual {np.linalg.norm(rhs - apply_op(x)):.3e})"
    )


def solve_map(prior, observation, method="closed_form", rtol=1e-10, max_iter=None):
    """Maximize the fused posterior density.

    ``closed_form`` goes through :func:`fuse`; ``iterative`` runs conjugate
    gradient on the constraint kernel without forming a dense
    factorization, and on the fused precision itself when there are no
    constraints. Both return the minimum-norm representative and emit
    :class:`NonUniqueSolutionWarning` when flat directions make the
    maximizer non-unique (adding a small ridge to the prior restores
    uniqueness). The iterative path raises :class:`SolverDivergenceError`
    with the iteration count if it cannot reach ``rtol``.
    """
    if method == "closed_form":
        summary = fuse(prior, observation)
        if not summary.unique_mean:
            warnings.warn(
                "estimation problem has flat directions; returning the "
                "minimum-norm solution",
                NonUniqueSolutionWarning,
                stacklevel=2,
            )
        return summary.mean

    if method != "iterative":
        raise ValueError(f"unknown method {method!r}")

    fused = prior.combine(observation)
    precision = fused.precision
    c_mat, d_vec = fused.constraint_arrays()
    if c_mat.shape[0] == 0:
        # the kernel is the whole space: run CG on the precision itself
        kernel = None
        rhs = fused.info

        def apply_op(y):
            return precision @ y
    else:
        _, kernel, particular = _reduce_constraints(c_mat, d_vec)
        if kernel.shape[1] == 0:
            return particular
        rhs = kernel.T @ (fused.info - precision @ particular)

        def apply_op(y):
            return kernel.T @ (precision @ (kernel @ y))

    free = rhs.shape[0]
    if max_iter is None:
        max_iter = max(10 * free, 50)
    solution = _conjugate_gradient(apply_op, rhs, rtol, max_iter)

    # Flat directions are invisible to CG started at zero: re-solving from a
    # seeded random point leaves its flat component untouched, so any
    # disagreement between the two runs reveals non-uniqueness.
    probe_start = np.random.default_rng(0x5EED).standard_normal(free)
    probe = _conjugate_gradient(apply_op, rhs, rtol, max_iter, x0=probe_start)
    if np.linalg.norm(probe - solution) > 1e-6 * (1.0 + np.linalg.norm(solution)):
        warnings.warn(
            "estimation problem has flat directions; returning the "
            "minimum-norm solution",
            NonUniqueSolutionWarning,
            stacklevel=2,
        )
    if kernel is None:
        return solution
    return particular + kernel @ solution


def perfect_reconstruct(subspace, sampling, observed_s):
    """Reconstruct a subspace signal from samples.

    Solves for the subspace coefficients from the sampled rows of the basis.
    When that system is square and well conditioned the reconstruction is
    exact for any signal in the subspace; otherwise the least-squares
    (pseudo-inverse) solution is returned and :class:`DegradedRankWarning`
    is emitted.
    """
    if subspace.n != sampling.n:
        raise ValueError("subspace and sampling operator dimensions differ")
    if sampling.n_s < 1:
        raise ValueError("need at least one sampled node")
    observed_s = np.asarray(observed_s, dtype=np.float64)
    if observed_s.shape != (sampling.n_s,):
        raise ValueError(
            f"observed vector must have shape ({sampling.n_s},)"
        )
    sampled_rows = subspace.basis[list(sampling.nodes), :]
    svals = np.linalg.svd(sampled_rows, compute_uv=False)
    square = sampled_rows.shape[0] == sampled_rows.shape[1]
    well_conditioned = svals.size > 0 and svals[-1] > 1e-12 * max(svals[0], 1.0)
    if square and well_conditioned:
        coeffs = np.linalg.solve(sampled_rows, observed_s)
    else:
        warnings.warn(
            "sampled basis rows are not square and invertible; using the "
            "pseudo-inverse reconstruction",
            DegradedRankWarning,
            stacklevel=2,
        )
        coeffs, *_ = np.linalg.lstsq(sampled_rows, observed_s, rcond=None)
    return subspace.basis @ coeffs


def is_perfectly_reconstructible(subspace, sampling, tol=1e-10):
    """Whether samples pin down every subspace signal exactly.

    True when the sampled-node indicator plus the projector onto the
    subspace complement is invertible, i.e. its smallest eigenvalue
    exceeds ``tol``: no nonzero subspace signal vanishes on the samples.
    """
    if subspace.n != sampling.n:
        raise ValueError("subspace and sampling operator dimensions differ")
    n = subspace.n
    u = subspace.basis
    gram = np.eye(n) - u @ u.T
    for v in sampling.nodes:
        gram[v, v] += 1.0
    gram = 0.5 * (gram + gram.T)
    smallest = float(np.linalg.eigvalsh(gram)[0])
    return smallest > tol
