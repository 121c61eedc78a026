"""Gaussian beliefs over graph signals in information (precision) form.

A belief is parameterized by a finite precision part ``P``, an information
vector ``h = P @ mean`` and exact linear constraints ``C @ x = d``, held as
one ``(k, n)`` array ``C`` and one length-k vector ``d``. ``P`` is either an
n x n array or, when it is diagonal, the length-n vector of its diagonal;
observations and the exact subspace prior keep that form, so a belief
holds at most one n x n array. The constraints represent directions of
infinite precision, so the zero-noise and exact-subspace limits are stored
symbolically instead of as very large numbers. Fusing two beliefs adds
precisions and information vectors and stacks the constraint rows. This
module states that sum and the rules of a belief's fields, once each;
``inference`` imports both to fuse, and this module imports no fusion.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .graph_core import (
    RANK_TOL,
    _as_index,
    _as_scalar,
    _as_signal,
    _frozen,
    _require_orthonormal,
    _require_square,
    _require_symmetric,
    _sealed,
    _symmetrized,
)

__all__ = [
    "GaussianBelief",
    "SamplingOperator",
    "SubspaceBasis",
    "smoothness_prior",
    "bandlimit_basis",
    "subspace_prior",
    "full_observation",
    "partial_observation",
]


# The fields of a belief, for arrays that no belief checks or freezes.
_Fields = namedtuple("_Fields", "n precision info constraints targets")


def _checked(n, precision, info, constraints, targets):
    """The fields of a belief over R^n as float64 arrays, once they pass its
    rules, stated here only; raises ``ValueError`` naming the first field
    that breaks one. A belief runs it, and so does every sum ``inference`` fuses."""
    prec = np.asarray(precision, dtype=np.float64)
    if prec.ndim == 1:
        prec = _as_signal(prec, n, name="diagonal precision")
        if np.any(prec < 0):
            raise ValueError("diagonal precision has negative entries")
    else:
        prec = _require_symmetric(prec, name="precision")
        if prec.shape != (n, n):
            raise ValueError(f"precision must be {n}x{n}")
    info = _as_signal(info, n, name="information vector")
    rows = np.asarray(constraints, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != n or not np.all(np.isfinite(rows)):
        raise ValueError(f"constraints must be a finite (k, {n}) array")
    return _Fields(n, prec, info, rows, _as_signal(targets, rows.shape[0], "constraint targets"))


@dataclass(frozen=True)
class GaussianBelief:
    """Possibly degenerate Gaussian over R^n in information form.

    ``precision`` is an n x n array that must be symmetric positive
    semidefinite (symmetry is checked here, definiteness is the
    constructor's responsibility), or a length-n vector standing for the
    diagonal matrix with that diagonal, which must be finite and
    non-negative.
    ``constraints`` is a ``(k, n)`` array ``C`` and ``targets`` a length-k
    vector ``d`` meaning ``C @ x == d`` exactly; both default to empty
    (``k = 0``). Rows need not be independent, duplicates are reduced when a
    posterior is formed.
    """

    n: int
    precision: np.ndarray
    info: np.ndarray
    constraints: np.ndarray = None
    targets: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "n", _as_index(self.n, "node count"))
        rows = np.zeros((0, self.n)) if self.constraints is None else self.constraints
        targets = np.zeros(0) if self.targets is None else self.targets
        checked = _checked(self.n, self.precision, self.info, rows, targets)
        for name in _Fields._fields[1:]:
            object.__setattr__(self, name, _frozen(getattr(checked, name)))

    def combine(self, other):
        """Fuse with another belief: precisions and information add (a
        dense precision plus a diagonal one is their dense sum, bit for bit),
        constraint rows and targets are stacked, and the sum is checked once."""
        return GaussianBelief(*_summed(self, other))


def _add_precisions(a, b):
    """Sum of two precisions, each an n x n array or a diagonal vector, as a
    sealed array. Dense plus diagonal is ``dense + np.diag(diag)`` bit for
    bit with one n x n allocation: ``dense + 0.0`` off the diagonal (which
    turns -0.0 into +0.0 as adding a zero does) and ``dense_ii + diag_i`` on it."""
    if a.ndim == b.ndim:
        return _sealed(a + b)
    dense, diag = (a, b) if a.ndim == 2 else (b, a)
    out = dense + 0.0
    np.fill_diagonal(out, dense.diagonal() + diag)
    return _sealed(out)


def _summed(first, second):
    """The unchecked fields of the belief that fuses ``first`` and
    ``second``: precisions and information add, constraint rows and
    targets are stacked. Either may be a belief or the ``_Fields`` of one,
    such as an observation's from :func:`_observed`. Only their ``n`` are
    compared here; :func:`_checked` states the rest."""
    if first.n != second.n:
        raise ValueError(f"dimension mismatch: {first.n} vs {second.n}")
    return _Fields(first.n, _add_precisions(first.precision, second.precision),
                   first.info + second.info,
                   _sealed(np.concatenate([first.constraints, second.constraints])),
                   np.concatenate([first.targets, second.targets]))


@dataclass(frozen=True)
class SamplingOperator:
    """Selection of a node subset; columns of the identity at those ids."""

    n: int
    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", _as_index(self.n, "node count"))
        nodes = tuple(map(_as_index, self.nodes))
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node ids in sampling set")
        for v in nodes:
            if not 0 <= v < self.n:
                raise ValueError(f"node id {v} out of range for n={self.n}")
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_s(self):
        return len(self.nodes)

    @classmethod
    def all_nodes(cls, n):
        return cls(n=n, nodes=tuple(range(n)))


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning a signal subspace."""

    basis: np.ndarray

    def __post_init__(self):
        b = _frozen(self.basis)
        if b.ndim != 2 or b.shape[1] < 1:
            raise ValueError("basis must be a 2-d array with at least one column")
        _require_orthonormal(b)
        object.__setattr__(self, "basis", b)

    @property
    def n(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]


def smoothness_prior(lap, eps=0.0):
    """Zero-mean prior whose precision is the Laplacian plus ``eps`` times
    the identity.

    With ``eps = 0`` the prior is improper (flat along the Laplacian kernel,
    e.g. constant signals on a connected graph); the posterior machinery
    handles that case without regularization. Its precision is then ``lap``
    itself when ``lap`` is the output of
    :func:`~graphbayes.graph_core.laplacian`, and a copy otherwise.
    """
    # the belief checks symmetry; the shape check here fixes n
    lap = _require_square(lap, name="laplacian")
    eps = _as_scalar(eps, "eps")
    n = lap.shape[0]
    precision = lap if eps == 0 else _add_precisions(lap, np.full(n, eps))
    return GaussianBelief(n=n, precision=precision, info=np.zeros(n))


def bandlimit_basis(spectrum, bandlimit):
    """Columns of the eigenbasis with eigenvalue at most ``bandlimit``, up
    to the rank rule's ``n RANK_TOL max|value|``, so in any units.

    Raises ``ValueError`` when no eigenvalue qualifies.
    """
    cut = spectrum.n * RANK_TOL * float(np.abs(spectrum.values).max())
    mask = spectrum.values <= bandlimit + cut
    if not np.any(mask):
        raise ValueError(f"no eigenvalues at or below bandlimit {bandlimit} (+{cut:.3g})")
    return SubspaceBasis(basis=spectrum.vectors[:, mask])


def subspace_prior(subspace, sigma2_prior=0.0, eps=0.0):
    """Prior concentrating the signal on a subspace.

    With ``sigma2_prior > 0`` this is the relaxed form: finite precision
    ``((1 + eps) I - U U') / sigma2_prior``, which puts precision
    ``eps / sigma2_prior`` along the subspace and ``(1 + eps) / sigma2_prior``
    along its orthogonal complement. With ``sigma2_prior = 0`` the limit is
    taken exactly: every direction orthogonal to the subspace becomes a hard
    constraint pinned to zero and the finite precision part vanishes, so
    on-subspace directions carry no information at all; it is held as a
    zero diagonal vector. That limit has no ridge: with ``eps > 0`` the
    relaxed form pins the whole signal as ``sigma2_prior`` falls to 0, not
    just the complement, so ``eps`` other than 0 raises ``ValueError`` there.
    """
    sigma2_prior, eps = _as_scalar(sigma2_prior, "sigma2_prior"), _as_scalar(eps, "eps")
    u = subspace.basis
    n = subspace.n
    if sigma2_prior > 0:
        prec = ((1.0 + eps) * np.eye(n) - u @ u.T) / sigma2_prior
        _symmetrized(prec, out=prec)
        return GaussianBelief(n=n, precision=prec, info=np.zeros(n))
    if eps != 0:
        raise ValueError(f"eps applies to sigma2_prior > 0 only, got eps={eps!r}")
    # the columns of u are orthonormal, so u.T has rank subspace.dim
    complement = np.linalg.svd(u.T)[2][subspace.dim:]
    return GaussianBelief(
        n=n, precision=np.zeros(n), info=np.zeros(n),
        constraints=complement, targets=np.zeros(n - subspace.dim),
    )


def full_observation(observed, sigma2):
    """Likelihood of observing every node under i.i.d. Gaussian noise.

    ``sigma2 = 0`` yields exact constraints pinning each node to its
    observed value.
    """
    observed = np.asarray(observed, dtype=np.float64)
    return partial_observation(
        SamplingOperator.all_nodes(observed.shape[0]), observed, sigma2
    )


def partial_observation(sampling, observed_s, sigma2):
    """Likelihood of noisy observations on a node subset.

    The precision is lifted to signal space as a diagonal vector:
    ``sigma2 > 0`` puts ``1/sigma2`` on sampled nodes and zero elsewhere (an
    unsampled node contributes no information). ``sigma2 = 0`` pins each
    sampled node exactly and leaves the precision zero.
    """
    observed_s = _as_signal(observed_s, sampling.n_s, name="observation")
    sigma2 = _as_scalar(sigma2, "sigma2")
    return GaussianBelief(*_observed(sampling.n, sampling.nodes, observed_s, sigma2))


def _observed(n, nodes, observed_s, sigma2):
    """The fields of :func:`partial_observation` from checked inputs:
    distinct node ids ``nodes`` below ``n``, a finite ``observed_s`` over
    them and a float ``sigma2 >= 0``. Greedy selection fuses them as they
    are, one candidate after another, with no belief in between."""
    nodes = np.asarray(nodes, dtype=np.intp)
    if sigma2 == 0:
        pins = np.zeros((nodes.size, n))
        pins[np.arange(nodes.size), nodes] = 1.0
        return _Fields(n, np.zeros(n), np.zeros(n), _sealed(pins), observed_s)
    prec = np.zeros(n)
    info = np.zeros(n)
    prec[nodes] = 1.0 / sigma2
    info[nodes] = observed_s / sigma2
    return _Fields(n, prec, info, np.zeros((0, n)), np.zeros(0))
