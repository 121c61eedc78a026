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

# Relative eigenvalue cut separating finite from infinite variance, shared
# by fuse and conjugate gradient: tau is RANK_TOL times the largest diagonal
# entry of the fused precision P (for a positive semidefinite P, its largest
# |P_ij|), so the units of the signal do not shift it.
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
    is the minimum-norm point satisfying all constraints, taken from the
    same SVD. Raises :class:`InconsistentConstraintsError` when that point
    misses a constraint by more than ``_CONSISTENCY_TOL`` times the largest
    constraint value.
    """
    u, svals, vt = np.linalg.svd(c_mat, full_matrices=True)
    cutoff = max(c_mat.shape) * np.finfo(np.float64).eps * svals[0]
    rank = int(np.sum(svals > cutoff))
    particular = vt[:rank].T @ ((u[:, :rank].T @ d_vec) / svals[:rank])
    violation = np.max(np.abs(c_mat @ particular - d_vec))
    if violation > _CONSISTENCY_TOL * np.max(np.abs(d_vec)):
        raise InconsistentConstraintsError(
            f"exact constraints are mutually inconsistent (max violation {violation:.3e})"
        )
    return vt[:rank].T, vt[rank:].T, particular


def _restrict(prior, observation):
    """Fuse two beliefs and restrict them to the constraint set.

    Returns the fused precision, the constraint kernel basis (``None``
    without constraints: the whole space), the constrained directions, the
    minimum-norm feasible point, the fused information on the kernel
    shifted by that point, and the eigenvalue cut ``tau``.
    """
    fused = prior.combine(observation)
    precision = fused.precision
    tau = RANK_TOL * float(precision.diagonal().max(initial=0.0))
    if fused.constraints.shape[0] == 0:
        return precision, None, np.zeros((fused.n, 0)), np.zeros(fused.n), fused.info, tau
    zero_basis, kernel, particular = _reduce_constraints(fused.constraints, fused.targets)
    info = kernel.T @ (fused.info - precision @ particular)
    return precision, kernel, zero_basis, particular, info, tau


def _indefinite(curvature, tau):
    return ValueError(
        "fused precision is indefinite: curvature "
        f"{curvature:.3e} lies below -tau = {-tau:.3e}"
    )


def fuse(prior, observation):
    """Fuse two beliefs and summarize the resulting posterior.

    The fused density on the constraint set ``{x : C x = d}`` is
    proportional to ``exp(-x' P x / 2 + h' x)`` with ``P`` and ``h`` the
    summed finite parts. The constraint kernel is eigendecomposed under the
    projected precision; eigenvalues above the cut ``tau``, ``RANK_TOL``
    times the largest diagonal entry of ``P``, have finite variance, the
    others are flat, and one below ``-tau`` raises ``ValueError``: the fused
    precision must be positive semidefinite. The mean is the minimum-norm
    representative when flat directions exist.

    Without constraints the kernel is the whole space, so ``P`` itself is
    eigendecomposed: its eigenvectors are the bases and ``h`` is solved
    directly, with no projection through an identity kernel.
    """
    precision, kernel, zero_basis, particular, g, tau = _restrict(prior, observation)
    if kernel is None:
        projected = precision + precision.T
    else:
        projected = kernel.T @ precision @ kernel
        projected = projected + projected.T
    projected *= 0.5
    evals, evecs = np.linalg.eigh(projected)
    if evals.size and evals[0] < -tau:
        raise _indefinite(float(evals[0]), tau)
    finite = evals > tau

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


def _conjugate_gradient(apply_op, rhs, rtol, max_iter, x0=None, tau=0.0):
    """CG for a symmetric PSD operator; minimum-norm solution from x0=0
    when the right-hand side lies in the operator's range. A curvature
    ``p'Ap / p'p`` below ``-tau`` raises as in :func:`fuse`; one up to
    ``tau`` is a flat search direction, which in exact arithmetic only a
    right-hand side outside the range produces, so it raises
    :class:`SolverDivergenceError` at once."""
    x = np.zeros_like(rhs) if x0 is None else x0.astype(np.float64).copy()
    r = rhs - apply_op(x)
    target = rtol * max(np.linalg.norm(rhs), np.linalg.norm(r))
    if np.linalg.norm(r) <= target:
        return x
    p = r.copy()
    rs = float(r @ r)
    for step in range(1, max_iter + 1):
        ap = apply_op(p)
        p_ap, p_p = float(p @ ap), float(p @ p)
        if p_ap < -tau * p_p:
            raise _indefinite(p_ap / p_p, tau)
        if p_ap <= tau * p_p:
            raise SolverDivergenceError(
                f"conjugate gradient stopped on a flat direction at iteration {step}: "
                "the information has a component the precision cannot explain "
                f"(residual {np.linalg.norm(r):.3e})"
            )
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
    uniqueness), and both raise ``ValueError`` on an indefinite fused
    precision. The iterative path raises :class:`SolverDivergenceError`
    with the iteration count if it cannot reach ``rtol``.

    When the information has a component along a flat direction (say
    ``precision=diag(1, 0)`` with ``info=ones(2)``) no maximizer exists:
    ``closed_form`` returns the pseudo-inverse mean, which ignores that
    component, with :class:`NonUniqueSolutionWarning`, while CG meets the
    flat direction and ``iterative`` raises :class:`SolverDivergenceError`
    naming the iteration.
    """
    if method == "closed_form":
        summary = fuse(prior, observation)
        mean, unique = summary.mean, summary.unique_mean
    elif method == "iterative":
        precision, kernel, _, particular, rhs, tau = _restrict(prior, observation)
        if kernel is None:
            # the kernel is the whole space: run CG on the precision itself
            def apply_op(y):
                return precision @ y
        else:
            def apply_op(y):
                return kernel.T @ (precision @ (kernel @ y))

        free = rhs.shape[0]
        if max_iter is None:
            max_iter = max(10 * free, 50)
        solution = _conjugate_gradient(apply_op, rhs, rtol, max_iter, tau=tau)
        # Flat directions are invisible to CG started at zero: re-solving
        # from a seeded random point leaves its flat component untouched, so
        # any disagreement between the two runs reveals non-uniqueness.
        probe_start = np.random.default_rng(0x5EED).standard_normal(free)
        probe = _conjugate_gradient(apply_op, rhs, rtol, max_iter, x0=probe_start, tau=tau)
        unique = np.linalg.norm(probe - solution) <= 1e-6 * (1.0 + np.linalg.norm(solution))
        mean = particular + (solution if kernel is None else kernel @ solution)
    else:
        raise ValueError(f"unknown method {method!r}")
    if not unique:
        warnings.warn(
            "estimation problem has flat directions; returning the "
            "minimum-norm solution",
            NonUniqueSolutionWarning,
            stacklevel=2,
        )
    return mean


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
        coeffs = np.linalg.pinv(sampled_rows) @ observed_s
    return subspace.basis @ coeffs


def is_perfectly_reconstructible(subspace, sampling, tol=1e-10):
    """Whether samples pin down every subspace signal exactly.

    True when the sampled rows ``U[S, :]`` of the basis have full column
    rank: there are at least as many samples as subspace dimensions and
    the smallest singular value of the ``|S| x dim`` matrix exceeds
    ``tol``. Then no nonzero subspace signal vanishes on the samples.
    """
    if subspace.n != sampling.n:
        raise ValueError("subspace and sampling operator dimensions differ")
    if sampling.n_s < subspace.dim:
        return False
    sampled_rows = subspace.basis[list(sampling.nodes), :]
    return float(np.linalg.svd(sampled_rows, compute_uv=False)[-1]) > tol
