"""Undirected graphs, Laplacians, and the spectral (graph Fourier) basis.

Node ids are 0-based throughout. Graphs are simple and unweighted: no
self-loops, no duplicate edges, no edge weights. All types are immutable
after construction and every operation is a pure function.
"""

from __future__ import annotations

import itertools
import operator
import os
import re
import weakref
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RANK_TOL",
    "Graph",
    "GraphFormatError",
    "Spectrum",
    "load_edge_list",
    "read_signal_csv",
    "laplacian",
    "spectral_decomposition",
    "gft",
    "igft",
    "quadratic_variation",
    "path_graph",
    "star_graph",
    "grid_graph",
    "random_geometric_graph",
]


class GraphFormatError(ValueError):
    """Malformed edge-list or signal file (message carries the line number)."""


_HEADER_RE = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")
_SYMMETRY_TOL = 1e-12  # asymmetry allowed, relative to a matrix's largest |entry|
_SYMMETRY_TILE = 128  # rows that _require_symmetric compares at a time

# The one rank rule, from rounding error: a computed eigenvalue or singular
# value of a dim-sized matrix A is known only to about dim * RANK_TOL * |A|,
# so one at most that counts as zero, with |A| a bound on the largest. It
# splits finite from infinite variance in fuse (in its factored route per component,
# 1'B1/c along the indicator of c nodes, |B| their largest absolute row sum) and
# conjugate gradient, and decides whether the iterative maximizer is unique (|P| is
# the largest absolute row sum of the fused precision); it sets the rank of exact
# constraints (|A| the largest singular value), of the sampled rows of an
# orthonormal n x dim basis U (|U| = 1) and bandlimit_basis's cut (|A| = max|λ|).
RANK_TOL = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with a fixed node enumeration.

    Attributes
    ----------
    n : int
        Number of nodes; ids run from 0 to n - 1.
    edges : frozenset[tuple[int, int]]
        Unordered node pairs stored as (min, max) tuples; given as (u, v)
        pairs of integer ids in either order, duplicates collapsing.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "n", _as_index(self.n, "node count"))
        if self.n < 1:
            raise ValueError("graph must have at least one node")
        edges = []
        for edge in self.edges:
            i, j = edge
            i, j = _as_index(i), _as_index(j)
            if i > j:
                i, j = j, i
            if i == j:
                raise ValueError(f"self-loop at node {i} not allowed")
            if i < 0 or j >= self.n:
                raise ValueError(f"edge {edge} out of range for n={self.n}")
            edges.append((i, j))
        object.__setattr__(self, "edges", frozenset(edges))


def load_edge_list(text, one_based=False):
    """Parse edge-list text into a :class:`Graph`.

    Each non-comment line holds two whitespace-separated integer node ids,
    in either order. Lines starting with ``#`` are comments; a comment of
    the form ``# n=<N>`` declares the node count, the last one wherever it
    stands (otherwise it is max id + 1). With ``one_based`` every id is
    shifted down by one before validation.

    Raises
    ------
    GraphFormatError
        On unparseable lines, self-loops, or ids outside a declared n,
        naming the earliest faulty line.
    """
    lines = text.splitlines()
    headers = [m for raw in lines if "#" in raw and (m := _HEADER_RE.match(raw.strip()))]
    n = int(headers[-1].group(1)) if headers else None
    ids = []  # u, v, u, v, ...: no tuple per line, as Graph builds the pairs it keeps
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"line {line_no}: expected two node ids, got {raw!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {line_no}: node ids must be integers, got {raw!r}"
            ) from None
        if one_based:
            u, v = u - 1, v - 1
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {line_no}: negative node id")
        if u == v:
            raise GraphFormatError(f"line {line_no}: self-loop at node {u}")
        if n is not None and (u >= n or v >= n):
            raise GraphFormatError(
                f"line {line_no}: node id {max(u, v)} >= declared n={n}"
            )
        ids += u, v

    if n is None:
        if not ids:
            raise GraphFormatError(
                "empty edge list and no '# n=<N>' header to fix the node count"
            )
        n = max(ids) + 1
    return Graph(n, zip(ids[::2], ids[1::2]))


def read_signal_csv(text):
    """Parse ``node,value`` CSV text into a dict mapping node id to value."""
    values = {}
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1].strip().lower() != "node,value":
        raise GraphFormatError("signal file must start with a 'node,value' header")
    for line_no, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 2:
            raise GraphFormatError(f"line {line_no}: expected 'node,value'")
        try:
            node = int(parts[0])
            value = float(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {line_no}: could not parse {line!r}"
            ) from None
        if not np.isfinite(value):
            raise GraphFormatError(f"line {line_no}: non-finite signal value")
        if node in values:
            raise GraphFormatError(f"line {line_no}: duplicate node {node}")
        values[node] = value
    return values


# Read-only arrays that the library made itself and handed out no writable
# view of, by id: only these are kept by a belief instead of copied.
_SEALED = weakref.WeakValueDictionary()


def _sealed(arr):
    """``arr``, a new array that nothing else refers to, made read-only and
    recorded so that a belief keeps it instead of copying it."""
    arr.setflags(write=False)
    _SEALED[id(arr)] = arr
    return arr


def _is_sealed(arr):
    """Whether ``arr`` was passed to :func:`_sealed` and is still read-only."""
    return _SEALED.get(id(arr)) is arr and not arr.flags.writeable


def _frozen(arr):
    """``arr`` as a read-only float64 array: one the library sealed itself is
    kept, since nothing else can change it; any other is copied in C order
    whatever its source (``_reduce_constraints``' zero basis ``vt[:rank].T``
    is Fortran-ordered), since the layout decides how later products round."""
    if isinstance(arr, np.ndarray) and _is_sealed(arr):
        return arr
    return _sealed(np.array(arr, dtype=np.float64, order="C"))


def _require_square(mat, name="matrix"):
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    return mat


def _require_symmetric(mat, name="matrix"):
    """``mat`` as a float64 array, finite and symmetric to within
    ``_SYMMETRY_TOL`` times its largest |entry|, so the units of the matrix
    do not move the verdict. It compares ``_SYMMETRY_TILE`` rows at a time
    with the columns they mirror, so a large matrix makes no n x n copy."""
    mat = _require_square(mat, name)
    # np.maximum carries a NaN from either reduction through
    scale = float(np.maximum(mat.max(initial=0.0), -mat.min(initial=0.0)))
    if not np.isfinite(scale):
        raise ValueError(f"{name} contains non-finite entries")
    if any(np.abs(mat[lo:lo + _SYMMETRY_TILE, lo:] - mat[lo:, lo:lo + _SYMMETRY_TILE].T).max()
           > _SYMMETRY_TOL * scale for lo in range(0, len(mat), _SYMMETRY_TILE)):
        raise ValueError(f"{name} is not symmetric to {_SYMMETRY_TOL} times its largest |entry|")
    return mat


def _binary_exponent(values, axis=None):
    """Exponent ``e`` that puts the largest |entry| of ``values * 2**-e``
    (along ``axis``) in [1/2, 1), and 0 for zeros: dividing by ``2**e`` is
    exact, so it moves the values' units to about 1 and no bit."""
    peak = np.maximum(np.max(values, axis=axis, initial=0.0),
                      -np.min(values, axis=axis, initial=0.0))
    return np.frexp(peak)[1]


def _symmetrized(matrix, out=None):
    """``(matrix + matrix.T) / 2``, written to ``out`` when given; halved
    before the sum when an entry reaches 2**1023, where the sum overflows."""
    if _binary_exponent(matrix) > 1023:
        half = np.multiply(matrix, 0.5, out=out)
        return np.add(half, half.T, out=half)
    out = np.add(matrix, matrix.T, out=out)
    out *= 0.5
    return out


def _require_orthonormal(basis, name="basis"):
    """Raise unless the columns of ``basis`` are orthonormal to within 1e-10."""
    gram = basis.T @ basis
    defect = np.max(np.abs(gram - np.eye(basis.shape[1])))
    if not defect <= 1e-10:  # a NaN defect fails too
        raise ValueError(f"{name} columns not orthonormal (defect {defect:.2e})")


def _require_dense_fits(n):
    """Raise ``ValueError`` naming n when the dense path's peak of ten
    n x n arrays would exceed physical memory."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    # fuse's eigh holds eight n x n arrays: the caller's Laplacian and eigenvectors,
    # the prior's precision, the projected precision, and eigh's input copy, two-array
    # workspace and output. Peak RSS measured 7.6 (denoise) and 9.7 (calibrate), so ten.
    if 10 * 8 * n * n > physical:
        raise ValueError(f"the dense path for n={n} nodes needs {10 * 8 * n * n / 2**30:.1f} GiB, "
                         f"more than the {physical / 2**30:.1f} GiB of physical memory")


def laplacian(graph):
    """Combinatorial Laplacian ``degree - adjacency`` as a dense array.

    Rows sum to zero and the matrix is positive semidefinite. The array is
    read-only, so a prior built on it shares it instead of copying it (do
    not turn its writes back on). Raises ``ValueError`` naming n when the
    dense path's peak of ten n x n arrays would exceed physical memory.
    """
    n = graph.n
    _require_dense_fits(n)
    i, j = np.array(list(graph.edges), dtype=np.intp).reshape(-1, 2).T
    lap = np.zeros((n, n))
    lap[i, j] = -1.0
    lap[j, i] = -1.0
    np.fill_diagonal(lap, np.bincount(np.concatenate([i, j]), minlength=n))
    return _sealed(lap)


@dataclass(frozen=True)
class Spectrum:
    """Orthonormal eigenbasis of a symmetric operator, eigenvalues ascending.

    ``vectors`` holds the eigenvectors as columns; ``vectors.T`` is the
    forward Fourier transform for signals on the graph.
    """

    vectors: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        vec, val = _frozen(self.vectors), _frozen(self.values)
        if vec.ndim != 2 or vec.shape[0] != vec.shape[1]:
            raise ValueError("eigenvector matrix must be square")
        if val.shape != (vec.shape[0],):
            raise ValueError("eigenvalue vector length must match basis size")
        _require_orthonormal(vec, name="eigenvector")
        scale = float(np.abs(val).max(initial=0.0))  # not finite if any entry is not
        if not np.isfinite(scale):
            raise ValueError("eigenvalues contain non-finite entries")
        if np.any(np.diff(val) < -1e-12 * scale):
            raise ValueError("eigenvalues must be ascending")
        object.__setattr__(self, "vectors", vec)
        object.__setattr__(self, "values", val)

    @property
    def n(self):
        return self.values.shape[0]


def spectral_decomposition(mat):
    """Eigendecompose a symmetric matrix into a :class:`Spectrum`.

    Eigenvalues come out ascending. Each eigenvector is sign-fixed so that
    its first entry larger than 1e-12 in magnitude is positive, which makes
    the decomposition deterministic up to rotations inside degenerate
    eigenspaces.
    """
    mat = _require_symmetric(mat)
    values, vectors = np.linalg.eigh(mat)
    if not np.isfinite(values).all():  # a finite input near 2**1023 can overflow
        raise ValueError("eigenvalues contain non-finite entries")
    # a unit column always has an entry above 1e-12, so argmax finds it
    first = (np.abs(vectors) > 1e-12).argmax(axis=0)
    np.negative(vectors, out=vectors, where=vectors[first, np.arange(vectors.shape[1])] < 0)
    # eigh's output passes Spectrum's checks; their Gram product is 10% of the call at n = 1088
    spectrum = object.__new__(Spectrum)
    object.__setattr__(spectrum, "vectors", _sealed(vectors))
    object.__setattr__(spectrum, "values", _sealed(values))
    return spectrum


def _as_signal(x, n, name="signal"):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _as_scalar(value, name, positive=False):
    """``value`` as a float that is finite and non-negative, or positive."""
    value = float(value)
    if not 0 <= value < np.inf or (positive and value == 0):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {kind}, got {value!r}")
    return value


def _as_index(value, name="node id"):
    """Node id or count ``value`` as an int; a non-integer raises, not truncates."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def gft(spectrum, x):
    """Forward transform: coefficients of ``x`` in the eigenbasis."""
    x = _as_signal(x, spectrum.n)
    return spectrum.vectors.T @ x


def igft(spectrum, coeffs):
    """Inverse transform: signal with the given eigenbasis coefficients."""
    coeffs = _as_signal(coeffs, spectrum.n, name="coefficients")
    return spectrum.vectors @ coeffs


def quadratic_variation(lap, x):
    """Smoothness energy ``x' L x`` of a signal on the graph."""
    lap = _require_symmetric(lap, name="laplacian")
    x = _as_signal(x, lap.shape[0])
    return float(x @ lap @ x)


# ---------------------------------------------------------------------------
# Generators (used by the CLI and the test-suite; no external data needed)
# ---------------------------------------------------------------------------


def path_graph(n):
    """Path on n nodes: edges (i, i+1)."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n):
    """Star on n nodes with hub 0."""
    if n < 2:
        raise ValueError("star graph needs at least 2 nodes")
    return Graph(n, [(0, i) for i in range(1, n)])


def grid_graph(width, height):
    """4-neighbour grid, nodes numbered row-major."""
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    ids = np.arange(width * height).reshape(height, width)
    right = zip(ids[:, :-1].ravel().tolist(), ids[:, 1:].ravel().tolist())
    down = zip(ids[:-1].ravel().tolist(), ids[1:].ravel().tolist())
    # chained, not listed: only the pairs Graph builds are held, which halves the GC work
    return Graph(width * height, itertools.chain(right, down))


def random_geometric_graph(n, radius, seed):
    """Nodes at seeded uniform points in the unit square, edges within radius."""
    if n < 1:
        raise ValueError("need at least one node")
    radius = _as_scalar(radius, "radius", positive=True)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 2))
    edges = []
    rows = max(1, (1 << 16) // n)  # pairs per block stay near 65k
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        # block rows i against every later node j > lo, in (i, j) order
        diff = pts[lo:hi, None, :] - pts[None, lo + 1:, :]
        close = np.hypot(diff[..., 0], diff[..., 1]) <= radius
        close &= np.arange(lo, hi)[:, None] < np.arange(lo + 1, n)[None, :]
        i, j = np.nonzero(close)
        edges.extend(zip((i + lo).tolist(), (j + lo + 1).tolist()))
    return Graph(n, edges)
