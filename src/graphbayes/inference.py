"""Posterior formation and uncertainty queries for fused Gaussian beliefs.

The posterior of a prior belief fused with an observation belief, their
sum as ``belief`` forms and checks it, is a Gaussian restricted to the
affine set cut out by the exact constraints. Its signal space splits into
three mutually orthogonal parts:

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
from dataclasses import dataclass, fields

import numpy as np

from .belief import _checked, _summed
from .graph_core import RANK_TOL, _as_signal, _binary_exponent, _frozen, _symmetrized

__all__ = [
    "PosteriorSummary",
    "InconsistentConstraintsError",
    "InfiniteVarianceError",
    "SolverDivergenceError",
    "NonUniqueSolutionWarning",
    "DegradedRankWarning",
    "DIRECTION_TOL",
    "fuse",
    "posterior_covariance",
    "node_variances",
    "directional_uncertainty",
    "spectral_uncertainty",
    "solve_map",
    "perfect_reconstruct",
    "is_perfectly_reconstructible",
]

# Tolerance on the component of a query direction inside the flat subspace.
DIRECTION_TOL = 1e-8

_CONSISTENCY_TOL = 1e-8
_CG_RTOL = 1e-10  # relative residual at which conjugate gradient stops
_FACTORED_MIN_N = 1024  # nodes from which fuse factors a graph posterior
_GROUP_FLOOR = 64  # nodes at which a group of consecutive BFS levels closes


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


class _Queries:
    """The queries both summary types answer by one rule, from their flat span."""

    @property
    def n(self):
        return self.mean.shape[0]

    @property
    def unique_mean(self):
        return self.counts[1] == 0

    def flat_projector(self):
        null = self._null_basis()
        return null @ null.T

    def covariance(self):
        if self.counts[1] > 0:
            raise InfiniteVarianceError("posterior has directions of infinite variance; "
                                        "query them directionally instead")
        return self._finite_covariance()

    def node_variances(self):
        return np.where(_flat_nodes(self._null_basis()), math.inf, self._finite_variances())

    def variances_along(self, vectors):
        """:func:`directional_uncertainty` of each column of ``vectors``."""
        vectors = np.ldexp(vectors, -_binary_exponent(vectors, axis=0))
        norms = np.linalg.norm(vectors, axis=0)
        variances = self._finite_quadratic(vectors) / norms**2
        null_mass = self._flat_norms(vectors) / norms
        variances[null_mass > DIRECTION_TOL] = math.inf
        return variances

    def _flat_norms(self, vectors):
        return np.linalg.norm(self._null_basis().T @ vectors, axis=0)


@dataclass(frozen=True)
class PosteriorSummary(_Queries):
    """Mean plus an orthogonal decomposition of posterior uncertainty.

    Readers outside this module ask it ``mean``, ``counts`` and the query
    methods, which the public functions below call; only the closed forms
    of greedy screening and the noise-free estimator take ``eigen_factor``.
    """

    mean: np.ndarray
    cov_basis: np.ndarray   # (n, k) directions with finite positive variance
    cov_values: np.ndarray  # (k,) variances along cov_basis columns
    null_basis: np.ndarray  # (n, m) flat directions (infinite variance)
    zero_basis: np.ndarray  # (n, z) exactly determined directions

    def __post_init__(self):
        for field in fields(self):
            object.__setattr__(self, field.name, _frozen(getattr(self, field.name)))

    @property
    def counts(self):
        """Directions of finite, infinite (flat) and zero variance."""
        return self.cov_basis.shape[1], self.null_basis.shape[1], self.zero_basis.shape[1]

    def eigen_factor(self):
        """``(cov_basis, cov_values, null_basis)``, for closed forms in the eigenbasis."""
        return self.cov_basis, self.cov_values, self.null_basis

    def finite_spectrum(self):
        """The eigenvalues of the covariance's finite part, in no set order."""
        return self.cov_values

    def _null_basis(self):
        return self.null_basis

    def _finite_covariance(self):
        cov = self.cov_basis @ (self.cov_values[:, None] * self.cov_basis.T)
        return _symmetrized(cov, out=cov)

    def _finite_variances(self):
        return (self.cov_basis ** 2) @ self.cov_values

    def _finite_quadratic(self, vectors):
        coeffs = self.cov_basis.T @ vectors
        np.square(coeffs, out=coeffs)
        return self.cov_values @ coeffs


class _FactoredSummary(_Queries):
    """The posterior of :func:`fuse` by index: the pins, and per component of the free
    nodes its ids in groups of BFS levels, the inverse ``W_k`` and left block ``M_k`` of
    each block row k < K of its block bidiagonal Cholesky factor, an empty ``M_K``, and
    whether :func:`fuse`'s rank rule files it flat (then it is one group)."""

    def __init__(self, mean, pins, chains):
        self.mean, self.pins, self.chains = _frozen(mean), pins, chains
        self._flat = [ids for ids, _, _, flat in chains if flat]

    @property
    def counts(self):
        return self.n - len(self.pins) - len(self._flat), len(self._flat), len(self.pins)

    def eigen_factor(self):
        """:class:`PosteriorSummary`'s fields from one ``eigh``: the lowest
        ``counts[1] + counts[2]`` eigenvalues are the flat and pinned zeros."""
        evals, evecs = np.linalg.eigh(self._finite_covariance())
        cut = self.counts[1] + self.counts[2]
        return evecs[:, cut:], evals[cut:], self._null_basis()

    def finite_spectrum(self):
        return np.linalg.eigvalsh(self._finite_covariance())[self.counts[1] + self.counts[2]:]

    def _null_basis(self):
        null = np.zeros((self.n, len(self._flat)))
        for k, ids in enumerate(self._flat):
            null[ids, k] = ids.size ** -0.5
        return null

    def _finite_covariance(self):
        cov = np.zeros((self.n, self.n))
        for ids, inverses, couplings, flat in self.chains:
            block = _solve(inverses, couplings, np.eye(ids.size)) - flat / ids.size
            cov[np.ix_(ids, ids)] = _symmetrized(block, out=block)
        return cov

    def _finite_variances(self):
        variances = np.zeros(self.n)
        for ids, inverses, couplings, _ in self.chains:
            variances[ids] = _selected_variances(inverses, couplings)
        return variances

    def _finite_quadratic(self, vectors):
        total = np.zeros(vectors.shape[1])
        for ids, inverses, couplings, _ in self.chains:
            for image in _forward(inverses, couplings, vectors[ids]):
                total += np.einsum("ij,ij->j", image, image)
        return total - self._flat_norms(vectors) ** 2


def _flat_nodes(null_basis):
    """Nodes with a component beyond ``DIRECTION_TOL`` in the flat span ``null_basis``."""
    return np.linalg.norm(null_basis, axis=1) > DIRECTION_TOL


def _rank(svals, size, scale):
    """Rank under the rank rule: singular values up to
    ``size RANK_TOL scale`` count as 0, ``scale`` bounding the largest."""
    return int(np.sum(svals > size * RANK_TOL * scale))


def _svd_solve(u, svals, vt, rhs, rank):
    """Minimum-norm least-squares solution of ``A x = rhs`` from the SVD of
    ``A`` and its rank."""
    return vt[:rank].T @ ((u[:, :rank].T @ rhs) / svals[:rank])


def _reduce_constraints(c_mat, d_vec):
    """Orthonormalize constraint rows (at least one) and solve them.

    Returns ``(zero_basis, kernel_basis, particular)`` where ``particular``
    is the minimum-norm point satisfying all constraints, taken from the
    same SVD. Raises :class:`InconsistentConstraintsError` when that point
    misses a constraint by more than ``_CONSISTENCY_TOL`` times the largest
    constraint value.
    """
    u, svals, vt = np.linalg.svd(c_mat, full_matrices=True)
    rank = _rank(svals, max(c_mat.shape), svals[0])
    particular = _svd_solve(u, svals, vt, d_vec, rank)
    violation = np.max(np.abs(c_mat @ particular - d_vec))
    if violation > _CONSISTENCY_TOL * np.max(np.abs(d_vec)):
        raise InconsistentConstraintsError(
            f"exact constraints are mutually inconsistent (max violation {violation:.3e})"
        )
    return vt[:rank].T, vt[rank:].T, particular


def _restrict(prior, observation):
    """Fuse two beliefs and restrict them to the constraint set.

    ``observation`` may also be the fields of ``belief._observed``: greedy
    selection builds each candidate's observation from arrays by index and
    fuses it here, with no belief per candidate. The sum is checked once,
    by ``belief._checked``.

    Returns the fused precision as an n x n array, the constraint kernel
    basis (``None`` without constraints: the whole space), the constrained
    directions, the minimum-norm feasible point, the fused information on
    the kernel shifted by that point, and the eigenvalue cut
    ``tau = n RANK_TOL ||P||_inf``: the rounding error of an eigenvalue of
    the n x n fused precision ``P``, whose largest absolute row sum bounds
    its largest eigenvalue. Projecting onto the kernel does not raise that
    bound, so the same ``tau`` serves the projected precision.
    """
    n, precision, info, constraints, targets = _checked(*_summed(prior, observation))
    if precision.ndim == 1:  # both parts diagonal
        precision = np.diag(precision)
    tau = n * RANK_TOL * float(np.linalg.norm(precision, np.inf))
    if constraints.shape[0] == 0:
        return precision, None, np.zeros((n, 0)), np.zeros(n), info, tau
    zero_basis, kernel, particular = _reduce_constraints(constraints, targets)
    info = kernel.T @ (info - precision @ particular)
    return precision, kernel, zero_basis, particular, info, tau


def _indefinite(curvature, tau):
    return ValueError(
        "fused precision is indefinite: curvature "
        f"{curvature:.3e} lies below -tau = {-tau:.3e}"
    )


def _eigen_split(symmetric, tau):
    """Eigendecompose one symmetric matrix, or a stack of them with one cut
    each in ``tau``, and split the spectra at the cut.

    Returns the eigenvalues, the eigenvectors and the mask of eigenvalues
    above the cut (finite variance); an eigenvalue below ``-tau`` raises
    ``ValueError``, the first such matrix of a stack deciding the message.
    ``eigh`` runs one matrix at a time, so a matrix's bits do not depend on
    the stack it is in.
    """
    evals, evecs = np.linalg.eigh(symmetric)
    cut = np.asarray(tau, dtype=np.float64)[..., None]
    lowest = evals[..., :1]  # empty for 0 x 0 matrices
    below = np.flatnonzero(lowest < -cut)
    if below.size:
        first = below[0]
        raise _indefinite(float(lowest.reshape(-1)[first]), float(cut.reshape(-1)[first]))
    return evals, evecs, evals > cut


def _projected(prior, observation):
    """:func:`_restrict` with the fused precision projected onto the
    constraint kernel, ``kernel.T @ P @ kernel`` (``P`` itself without
    constraints). Symmetrized by ``graph_core._symmetrized`` it is the
    matrix whose spectrum splits the posterior: :func:`fuse` symmetrizes it
    into a new array, greedy selection's exact scores into a slot of their
    stack."""
    precision, kernel, *rest = _restrict(prior, observation)
    if kernel is not None:
        precision = kernel.T @ precision @ kernel
    return (precision, kernel, *rest)


def _lift(kernel, coords):
    """``kernel @ coords``: kernel coordinates as signals. Without a kernel
    (the whole space) ``coords`` itself, a new array that the caller hands
    over, with -0.0 made +0.0 in place as the product with an identity
    kernel would."""
    if kernel is None:
        return np.add(coords, 0.0, out=coords)
    return kernel @ coords


def _level_groups(precision, pinned):
    """The connected components of the pattern of ``precision`` less the
    nodes of the mask ``pinned``, each as its BFS levels from its lowest id
    in groups closed at ``_GROUP_FLOOR`` nodes: edges join adjacent groups.
    A level's rows give the next level, the unseen columns they touch."""
    seen, found = pinned.copy(), []
    for start in range(seen.size):
        if not seen[start]:
            seen[start], groups, level = True, [], np.array([start])
            while level.size:
                if groups and groups[-1].size < _GROUP_FLOOR:
                    groups[-1] = np.concatenate([groups[-1], level])
                else:
                    groups.append(level)
                level = np.flatnonzero(precision[level].any(axis=0) & ~seen)
                seen[level] = True
            found.append(groups)
    return found


def _lower_inverse(lower):
    """``lower``, a lower triangular matrix with a nonzero diagonal,
    inverted in place by halves: ``[[A, 0], [C, D]]`` has the inverse
    ``[[A^-1, 0], [-D^-1 C A^-1, D^-1]]``, so only matmul does the work."""
    if len(lower) == 1:
        return np.reciprocal(lower, out=lower)
    half = len(lower) // 2
    top, bottom = _lower_inverse(lower[:half, :half]), _lower_inverse(lower[half:, half:])
    corner = lower[half:, :half]
    np.matmul(bottom @ corner, top, out=corner)
    np.negative(corner, out=corner)
    return lower


def _forward(inverses, couplings, part):
    """The blocks of ``L^-1 part`` for a chain's factor ``L``, block row k
    ``[M_k, L_k]`` (``M_0`` empty): ``y_k = W_k (v_k - M_k y_{k-1})``."""
    images = [part[:0]]
    for inverse, coupling in zip(inverses, couplings):
        rows, part = part[:len(inverse)], part[len(inverse):]
        images.append(inverse @ (rows - coupling @ images[-1]))
    return images[1:]


def _solve(inverses, couplings, part):
    """``P^-1 part`` for a chain's precision ``P = L L'``: :func:`_forward`,
    then back by ``x_k = W_k' (y_k - M_{k+1}' x_{k+1})``."""
    images, solved = _forward(inverses, couplings, part), [part[:0]]
    for inverse, coupling, image in zip(inverses[::-1], couplings[:0:-1], images[::-1]):
        solved.append(inverse.T @ (image - coupling.T @ solved[-1]))
    return np.concatenate(solved[:0:-1])


def _selected_variances(inverses, couplings):
    """The diagonal of a chain's ``P^-1`` by selected inversion of its diagonal
    blocks, run back: ``C_k = W_k'W_k + (M_{k+1} W_k)' C_{k+1} (M_{k+1} W_k)``."""
    sigma, diagonals = np.zeros((0, 0)), []
    for inverse, coupling in zip(inverses[::-1], couplings[:0:-1]):
        across = coupling @ inverse
        sigma = inverse.T @ inverse + across.T @ (sigma @ across)
        diagonals.append(sigma.diagonal())
    return np.concatenate(diagonals[::-1])


def _factored_fuse(prior, observation):
    """:func:`fuse`'s factored route at any size, and ``None`` for an input
    it does not take: each chain's mean is its finite covariance times
    ``h_f - P_fp d_p``, the free nodes' information."""
    n, precision, info, rows, targets = _checked(*_summed(prior, observation))
    pins = np.argmax(rows != 0, axis=1)
    if not (precision.ndim == 2
            and np.count_nonzero(precision > 0) == np.count_nonzero(precision.diagonal() > 0)
            and np.all((row_sums := precision.sum(axis=1)) >= 0)
            and np.count_nonzero(rows) == pins.size == np.unique(pins).size
            and np.all(rows[np.arange(pins.size), pins] == 1.0)):
        return None
    mean = np.zeros(n)
    mean[pins] = targets
    rhs = info - (to_pins := precision[:, pins]) @ targets
    # each free row's share of 1'B1, and its absolute row sum 2 P_ii - r_i
    shares, norms = row_sums - to_pins.sum(axis=1), 2 * precision.diagonal() - row_sums
    chains = []
    for groups in _level_groups(precision, np.isin(np.arange(n), pins)):
        ids = np.concatenate(groups)
        flat = bool(shares[ids].sum() / ids.size <= ids.size * RANK_TOL * norms[ids].max())
        groups = [ids] if flat else groups  # a flat block stays whole: 11'/c is dense
        inverses, couplings = [], [np.zeros((len(groups[0]), 0))]
        for group, after in zip(groups, groups[1:] + [[]]):
            block = precision[np.ix_(group, group)] + flat / ids.size
            block -= couplings[-1] @ couplings[-1].T
            inverses.append(_lower_inverse(np.linalg.cholesky(block)))
            couplings.append(precision[np.ix_(after, group)] @ inverses[-1].T)
        mean[ids] = _solve(inverses, couplings, rhs[ids]) - flat * rhs[ids].sum() / ids.size
        chains.append((ids, inverses, couplings, flat))
    return _FactoredSummary(mean, pins, chains)


def fuse(prior, observation):
    """Fuse two beliefs and summarize the resulting posterior.

    The fused density on the constraint set ``{x : C x = d}`` is
    proportional to ``exp(-x' P x / 2 + h' x)`` with ``P`` and ``h`` the
    summed finite parts. Two routes summarize it, chosen from the input.

    From ``_FACTORED_MIN_N`` = 1024 nodes up, the posterior is factored
    where ``P`` is 2-d with every off-diagonal entry <= 0 and every row sum
    >= 0, a graph Laplacian plus a non-negative diagonal, and every
    constraint row pins a node of its own. The pins have zero variance; a
    connected component of the rest, with ``c`` nodes and block ``B`` of
    ``P``, can be flat only along its indicator, and is flat under the rank
    rule: where ``1'B1 / c <= c RANK_TOL N``, ``N`` the largest absolute row
    sum of its rows, and is otherwise finite. Its BFS levels, in groups of
    64 nodes or more, make ``B`` block tridiagonal; it is factored block by
    block (a flat one as one group of ``B + 11'/c``), so no eigenvalue is
    cut and a precise sample in one component leaves the others' splits
    alone. The summary answers the queries of :class:`PosteriorSummary`,
    node variances by selected inversion, and computes ``eigen_factor()`` on
    demand. A block ``np.linalg.cholesky`` refuses sends it to the eigen route.

    Every other input takes the eigen route and returns a
    :class:`PosteriorSummary`. The constraint kernel is eigendecomposed
    under the projected precision; eigenvalues above the cut
    ``tau = n RANK_TOL ||P||_inf``, the rounding error eigh commits on an
    ``n x n`` matrix of that size, have finite variance, the others are
    flat, and one below ``-tau`` raises ``ValueError``: the fused precision
    must be positive semidefinite. The cut scales with ``P``, so the units
    of the signal do not move the split. One observation far more precise
    than the prior does: its ``1/sigma2`` sets ``||P||_inf``, and on a path
    with ``eps = 0`` sampled once the cut passes the smallest finite
    eigenvalue, about ``2.5 / n**2``, once ``n**3`` exceeds about
    ``2.5 sigma2 / RANK_TOL``; a 64-node path at ``sigma2 = 1e-12`` gets 2
    flat directions where there are none (item 1 of ROADMAP.md). The mean
    is the minimum-norm representative when flat directions exist.

    Without constraints the kernel is the whole space, so ``P`` itself is
    eigendecomposed: its eigenvectors are the bases and ``h`` is solved
    directly, with no projection through an identity kernel.
    """
    if prior.n >= _FACTORED_MIN_N:
        try:
            summary = _factored_fuse(prior, observation)
        except np.linalg.LinAlgError:
            summary = None
        if summary is not None:
            return summary
    return _eigen_fuse(prior, observation)


def _eigen_fuse(prior, observation):
    """The eigen route of :func:`fuse`, whatever the input."""
    projected, kernel, zero_basis, particular, g, tau = _projected(prior, observation)
    projected = _symmetrized(projected)  # rebound: eigh runs beside one m x m array, not two
    evals, evecs, finite = _eigen_split(projected, tau)
    g_rot = evecs.T @ g
    y = evecs[:, finite] @ (g_rot[finite] / evals[finite])
    return PosteriorSummary(
        mean=particular + _lift(kernel, y),
        cov_basis=_lift(kernel, evecs[:, finite]),
        cov_values=1.0 / evals[finite],
        null_basis=_lift(kernel, evecs[:, ~finite]),
        zero_basis=zero_basis,
    )


def posterior_covariance(summary):
    """Dense posterior covariance.

    Only defined when no flat directions exist; zero-variance directions
    contribute zero blocks. Raises :class:`InfiniteVarianceError` otherwise,
    in which case use :func:`directional_uncertainty` instead.
    """
    return summary.covariance()


def node_variances(summary):
    """Marginal variance for each node direction; ``inf`` where the node
    has a component along a flat direction."""
    return summary.node_variances()


def directional_uncertainty(summary, direction):
    """Posterior variance along a direction, whatever its scale.

    Returns ``math.inf`` when the normalized direction has a component
    inside the flat subspace beyond ``DIRECTION_TOL``; returns 0 for
    directions fixed by constraints.
    """
    direction = _as_signal(direction, summary.n, name="direction")
    if not direction.any():
        raise ValueError("direction must be a nonzero vector")
    return float(summary.variances_along(direction[:, None])[0])


def spectral_uncertainty(summary, spectrum):
    """Variance along each eigenbasis direction, as a length-n vector.

    Under a smoothness prior with a full noisy observation the i-th entry
    equals ``1 / (1/sigma2 + value_i)``. It is the rule of
    :func:`directional_uncertainty` applied to every eigenvector in one
    batch, so the two agree up to the rounding of the batched products.
    """
    if spectrum.n != summary.n:
        raise ValueError("spectrum dimension does not match posterior")
    return summary.variances_along(spectrum.vectors)


def _cg_cap(unknowns):  # iterations after which conjugate gradient gives up
    return max(10 * unknowns, 50)


def _conjugate_gradient(apply_op, rhs, x0=None, tau=0.0):
    """CG for a symmetric PSD operator; minimum-norm solution from x0=0
    when the right-hand side lies in the operator's range. ``tau`` is the
    eigenvalue cut of :func:`fuse`: a curvature ``p'Ap / p'p`` below
    ``-tau`` raises as there; one up to ``tau`` is a flat search
    direction, which in exact arithmetic only a right-hand side outside
    the range produces, so it raises :class:`SolverDivergenceError` at
    once."""
    x = np.zeros_like(rhs) if x0 is None else x0.astype(np.float64).copy()
    r = rhs - apply_op(x)
    target = _CG_RTOL * max(np.linalg.norm(rhs), np.linalg.norm(r))
    if np.linalg.norm(r) <= target:
        return x
    p = r.copy()
    rs = float(r @ r)
    for step in range(1, _cg_cap(rhs.shape[0]) + 1):
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
        f"conjugate gradient missed relative residual {_CG_RTOL:.1e} "
        f"after {step} iterations "
        f"(residual {np.linalg.norm(rhs - apply_op(x)):.3e})"
    )


def solve_map(prior, observation, method="closed_form"):
    """Maximize the fused posterior density.

    ``closed_form`` goes through :func:`fuse`; ``iterative`` runs conjugate
    gradient on the constraint kernel without forming a dense
    factorization, and on the fused precision itself when there are no
    constraints. Both return the minimum-norm representative and emit
    :class:`NonUniqueSolutionWarning` when flat directions make the
    maximizer non-unique (adding a small ridge to the prior restores
    uniqueness), and both raise ``ValueError`` on an indefinite fused
    precision. The iterative path raises :class:`SolverDivergenceError`
    with the iteration count if it misses a relative residual of 1e-10
    after ``max(10 k, 50)`` iterations, ``k`` the kernel's dimension.

    The iterative path divides its operator by the power of two of the cut
    ``tau`` and its right-hand side by the power of two that brings its
    largest |entry| into [1/2, 1), and scales the solution back. Both are
    exact, so it gives the same mean in any units of the data and of the
    precision; the curvatures and residuals its errors report are in those
    rescaled units.

    The iterative path tells a unique maximizer from a non-unique one with
    the cut of :func:`fuse`: it runs CG on ``A d = 0`` from a seeded random
    start, ``A`` the operator of the solve, and calls the maximizer
    non-unique when the result ``d`` is nonzero with curvature
    ``d'Ad <= tau d'd``. CG removes the start's component in the range of
    ``A``; the flat part it leaves has curvature 0, while CG's forward
    error has at least the smallest finite eigenvalue, which ``fuse`` keeps
    only above ``tau``. So both paths give the same verdict, in any units
    of the data, which never enter it.

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
        # exact power-of-two rescalings keep every product and norm in range
        # in any units: the operator and its cut by tau's, the right-hand
        # side by its own, and the solution back by their ratio
        op_exp, rhs_exp = _binary_exponent(tau), _binary_exponent(rhs)
        tau, rhs = np.ldexp(tau, -op_exp), np.ldexp(rhs, -rhs_exp)
        if kernel is None:
            # the kernel is the whole space: run CG on the precision itself
            def apply_op(y):
                return np.ldexp(precision @ y, -op_exp)
        else:
            def apply_op(y):
                return np.ldexp(kernel.T @ (precision @ (kernel @ y)), -op_exp)

        free = rhs.shape[0]
        # rounding of the right-hand side h - P particular, restricted: one
        # at most this is noise, whose solution is 0
        info = np.ldexp(prior.info + observation.info, -rhs_exp)
        floor = (particular.shape[0] * RANK_TOL * np.linalg.norm(info)
                 + tau * np.linalg.norm(np.ldexp(particular, op_exp - rhs_exp)))
        if np.linalg.norm(rhs) <= floor:
            solution = np.zeros(free)
        else:
            solution = np.ldexp(_conjugate_gradient(apply_op, rhs, tau=tau), rhs_exp - op_exp)
        # Flat directions are invisible to CG started at zero. Solving
        # A d = 0 from a seeded random point removes the start's component
        # in the range of A and leaves its flat part untouched; the
        # curvature of d tells that flat part from forward error. The data
        # never enter, so neither do their units.
        probe_start = np.random.default_rng(0x5EED).standard_normal(free)
        gap = _conjugate_gradient(apply_op, np.zeros(free), x0=probe_start, tau=tau)
        gap_sq = float(gap @ gap)
        unique = gap_sq == 0.0 or float(gap @ apply_op(gap)) > tau * gap_sq
        mean = particular + _lift(kernel, solution)
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


def _sampled_rank(subspace, sampling):
    """Thin SVD of the sampled basis rows ``U[S, :]`` and their rank: the
    rank rule on the ``n x dim`` basis ``U``, whose norm is 1, so singular
    values up to ``n RANK_TOL`` count as 0."""
    if subspace.n != sampling.n:
        raise ValueError("subspace and sampling operator dimensions differ")
    u, svals, vt = np.linalg.svd(subspace.basis[list(sampling.nodes), :], full_matrices=False)
    return u, svals, vt, _rank(svals, subspace.n, 1.0)


def perfect_reconstruct(subspace, sampling, observed_s):
    """Reconstruct a subspace signal from samples.

    Solves for the subspace coefficients from one SVD of the sampled rows
    ``U[S, :]`` of the basis, taking the minimum-norm least-squares
    solution under the rank rule of :func:`is_perfectly_reconstructible`.
    When that predicate holds, the solution is exact for any signal in the
    subspace; otherwise :class:`DegradedRankWarning` is emitted.
    """
    u, svals, vt, rank = _sampled_rank(subspace, sampling)
    if sampling.n_s < 1:
        raise ValueError("need at least one sampled node")
    observed_s = _as_signal(observed_s, sampling.n_s, name="observed vector")
    if rank < subspace.dim:
        warnings.warn(
            "sampled basis rows do not have full column rank; returning the "
            "minimum-norm least-squares reconstruction",
            DegradedRankWarning,
            stacklevel=2,
        )
    return subspace.basis @ _svd_solve(u, svals, vt, observed_s, rank)


def is_perfectly_reconstructible(subspace, sampling):
    """Whether samples pin down every subspace signal exactly.

    True when the sampled rows ``U[S, :]`` of the basis have full column
    rank: ``dim`` singular values above ``n RANK_TOL``. That is the rank
    rule on the ``n x dim`` basis itself, whose orthonormal columns give it
    norm 1; a basis computed from an ``n``-node graph carries rounding of
    that size, and sampled rows of a rank-deficient basis come out of it
    with singular values of a few ``RANK_TOL``. Then no nonzero subspace
    signal vanishes on the samples. :func:`perfect_reconstruct` warns
    exactly when this is False.

    :func:`fuse` decides whether the noise-free posterior under the exact
    subspace prior is a point with the same rule on another matrix, the
    prior's constraint rows stacked on the samples, so the two verdicts
    can part within a few ``RANK_TOL`` of the cut: for ``u = (cos t,
    sin t)`` sampled at node 1 this is True from ``sin t = 4.4e-16`` and
    the posterior a point from about ``8.9e-16``. On seeded random grid
    bases and sample sets they agreed every time.
    """
    return _sampled_rank(subspace, sampling)[3] == subspace.dim
