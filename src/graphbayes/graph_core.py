"""Undirected graphs, Laplacians, and the spectral (graph Fourier) basis.

Node ids are 0-based throughout. Graphs are simple and unweighted: no
self-loops, no duplicate edges, no edge weights. All types are immutable
after construction and every operation is a pure function.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
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


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with a fixed node enumeration.

    Attributes
    ----------
    n : int
        Number of nodes; ids run from 0 to n - 1.
    edges : frozenset[tuple[int, int]]
        Unordered node pairs stored as (min, max) tuples.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph must have at least one node")
        for edge in self.edges:
            i, j = edge
            if i == j:
                raise ValueError(f"self-loop at node {i} not allowed")
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge {edge} out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n, pairs):
        """Build a graph from an iterable of (u, v) pairs, deduplicating."""
        canon = frozenset((min(u, v), max(u, v)) for u, v in pairs)
        return cls(n=n, edges=canon)


def load_edge_list(text, one_based=False):
    """Parse edge-list text into a :class:`Graph`.

    Each non-comment line holds two whitespace-separated integer node ids.
    Lines starting with ``#`` are comments; a comment of the form ``# n=<N>``
    declares the node count (otherwise it is max id + 1). With ``one_based``
    every id is shifted down by one before validation.

    Raises
    ------
    GraphFormatError
        On unparseable lines, self-loops, or ids outside a declared n.
    """
    declared_n = None
    seen = []  # (line_no, u, v) with u < v
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _HEADER_RE.match(line)
            if match:
                declared_n = int(match.group(1))
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
        seen.append((line_no, min(u, v), max(u, v)))

    if declared_n is None:
        if not seen:
            raise GraphFormatError(
                "empty edge list and no '# n=<N>' header to fix the node count"
            )
        n = max(v for _, _, v in seen) + 1
    else:
        n = declared_n
        for line_no, _, v in seen:
            if v >= n:
                raise GraphFormatError(
                    f"line {line_no}: node id {v} >= declared n={n}"
                )

    return Graph.from_edges(n, ((u, v) for _, u, v in seen))


def read_signal_csv(text):
    """Parse ``node,value`` CSV text into a dict mapping node id to value."""
    values = {}
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip().lower() != "node,value":
        raise GraphFormatError("signal file must start with a 'node,value' header")
    for line_no, line in enumerate(lines[1:], start=2):
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


def _require_symmetric(mat, tol=1e-12, name="matrix"):
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    if mat.size and np.max(np.abs(mat - mat.T)) > tol:
        raise ValueError(f"{name} is not symmetric to within {tol}")
    return mat


def laplacian(graph):
    """Combinatorial Laplacian ``degree - adjacency`` as a dense array.

    Rows sum to zero and the matrix is positive semidefinite. Raises
    ``ValueError`` naming n when the n x n array alone would exceed the
    machine's physical memory.
    """
    n = graph.n
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * n * n > physical:
        raise ValueError(f"a dense Laplacian for n={n} nodes needs {8 * n * n / 2**30:.1f} "
                         f"GiB, more than the {physical / 2**30:.1f} GiB of physical memory")
    i, j = np.array(list(graph.edges), dtype=np.intp).reshape(-1, 2).T
    lap = np.zeros((n, n))
    lap[i, j] = -1.0
    lap[j, i] = -1.0
    np.fill_diagonal(lap, np.bincount(np.concatenate([i, j]), minlength=n))
    return lap


@dataclass(frozen=True)
class Spectrum:
    """Orthonormal eigenbasis of a symmetric operator, eigenvalues ascending.

    ``vectors`` holds the eigenvectors as columns; ``vectors.T`` is the
    forward Fourier transform for signals on the graph.
    """

    vectors: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vectors, dtype=np.float64)
        val = np.asarray(self.values, dtype=np.float64)
        if vec.ndim != 2 or vec.shape[0] != vec.shape[1]:
            raise ValueError("eigenvector matrix must be square")
        if val.shape != (vec.shape[0],):
            raise ValueError("eigenvalue vector length must match basis size")
        gram = vec.T @ vec
        defect = np.max(np.abs(gram - np.eye(vec.shape[0])))
        if defect > 1e-10:
            raise ValueError(f"basis not orthonormal (defect {defect:.2e})")
        if np.any(np.diff(val) < -1e-12):
            raise ValueError("eigenvalues must be ascending")
        vec.setflags(write=False)
        val.setflags(write=False)
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
    # a unit column always has an entry above 1e-12, so argmax finds it
    first = (np.abs(vectors) > 1e-12).argmax(axis=0)
    flip = vectors[first, np.arange(vectors.shape[1])] < 0
    vectors[:, flip] = -vectors[:, flip]
    return Spectrum(vectors=vectors, values=values)


def _as_signal(x, n, name="signal"):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


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
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def star_graph(n):
    """Star on n nodes with hub 0."""
    if n < 2:
        raise ValueError("star graph needs at least 2 nodes")
    return Graph.from_edges(n, ((0, i) for i in range(1, n)))


def grid_graph(width, height):
    """4-neighbour grid, nodes numbered row-major."""
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for r in range(height):
        for c in range(width):
            v = r * width + c
            if c + 1 < width:
                edges.append((v, v + 1))
            if r + 1 < height:
                edges.append((v, v + width))
    return Graph.from_edges(width * height, edges)


def random_geometric_graph(n, radius, seed):
    """Nodes at seeded uniform points in the unit square, edges within radius."""
    if n < 1:
        raise ValueError("need at least one node")
    if radius <= 0:
        raise ValueError("radius must be positive")
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
    return Graph.from_edges(n, edges)
