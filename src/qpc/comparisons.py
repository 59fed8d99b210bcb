"""Pairwise comparison data for a family of qubit states.

A family of N states is compared pairwise on three levels:

    gram           g_ij = <psi_i, psi_j>      complex amplitudes
    probabilities  p_ij = |g_ij|^2            transition probabilities
    phases         u_ij = g_ij / |g_ij|       unit phases, where defined

The phase level is partial: u_ij exists only where the overlap does not
vanish, and the pairs that carry a phase form the support graph.  It holds
one unit number per unordered pair, u_ji = conj(u_ij), and one constructor
states the pair rules of from_edges and phase files.  The complementary
graph records orthogonal pairs.  For families of pairwise distinct rays
the orthogonality graph is always a matching: no qubit ray has two
distinct orthogonal rays.

Every number gen and analyze print is rounded as its scalar formula rounds
it, by moduli, _mul, overlaps and principal_angle here: they work on the
real parts, so no BLAS kernel or SIMD loop decides a printed bit on any
host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .states import StateFamily, _is_integer

DEFAULT_ZERO_TOL = 1e-10  # |g_ij| at or below this counts as orthogonal

TOL_STRUCT = 1e-12  # structural tolerances of the matrix types


def moduli(a: np.ndarray) -> np.ndarray:
    """Elementwise |a| as the scalar abs() rounds it, where np.abs may take a
    vectorized path; past the float range it is inf, without a warning."""
    with np.errstate(over="ignore"):
        return np.hypot(a.real, a.imag)


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise x * y, broadcast, rounded as the scalar complex product."""
    real = x.real * y.real - x.imag * y.imag
    out = np.empty(real.shape, dtype=complex)
    out.real, out.imag = real, x.real * y.imag + x.imag * y.real
    return out


def overlaps(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> of amplitude rows (..., 2), broadcast, as states.inner rounds it."""
    c = x.conj()
    return _mul(c[..., 0], y[..., 0]) + _mul(c[..., 1], y[..., 1])


def principal_angle(z) -> np.ndarray:
    """Elementwise arg z in (-pi, pi]: math.atan2 of the parts, with -pi folded to pi."""
    z = np.asarray(z)
    angle = np.fromiter(map(math.atan2, z.imag.ravel().tolist(), z.real.ravel().tolist()),
                        dtype=float, count=z.size).reshape(z.shape)
    return np.where(angle == -math.pi, math.pi, angle)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def require_square(a: np.ndarray) -> None:
    """Raise ValueError unless a is a nonempty, finite square matrix."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not a.size:
        raise ValueError("matrix is empty: a family has at least one state")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")


def _zero_tol(zero_tol: float) -> float:
    """zero_tol, refused with ValueError unless it is finite and >= 0: the
    rule of every modulus below which an overlap counts as vanishing."""
    if not 0.0 <= zero_tol < math.inf:
        raise ValueError(f"zero_tol must be finite and >= 0, got {zero_tol!r}")
    return zero_tol


def deviations(a: np.ndarray) -> tuple[float, float]:
    """(max |a - a*|, max |a_ii - 1|) of a nonempty square matrix.

    The first is taken as 2 max |a/2 - a*/2|: halving before subtracting
    keeps large finite entries from overflowing, and the doubling goes to
    inf, silently, only when the deviation itself exceeds the largest
    float.  On a real matrix a* is the transpose.  Both are taken with
    moduli, so no SIMD loop decides their bits.
    """
    h = a / 2.0
    herm = 2.0 * float(np.max(moduli(h - h.conj().T)))
    return herm, _diagonal_deviation(a)


def _diagonal_deviation(a: np.ndarray) -> float:
    """max |a_ii - 1| of a nonempty square matrix."""
    return float(np.max(moduli(np.diagonal(a) - 1.0)))


def _self_adjoint(a: np.ndarray, adjoint: str, x: str, mark: str) -> np.ndarray:
    """a, refused with ValueError unless it is a nonempty, finite square
    matrix, adjoint ("Hermitian" or "symmetric") with unit diagonal to
    TOL_STRUCT; a message writes an entry as x and its adjoint as x mark."""
    require_square(a)
    herm, diag = deviations(a)
    if not herm <= TOL_STRUCT:
        raise ValueError(f"matrix is not {adjoint}: max |{x} - {x}{mark}| = {herm!r}")
    _unit_diagonal(diag, x)
    return a


def _unit_diagonal(diag: float, x: str) -> None:
    """Refuse with ValueError a diagonal whose max |x_ii - 1| = diag exceeds TOL_STRUCT."""
    if not diag <= TOL_STRUCT:
        raise ValueError(f"diagonal is not 1: max |{x}_ii - 1| = {diag!r}")


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian matrix of pairwise overlaps with unit diagonal."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = _self_adjoint(np.array(self.entries, dtype=complex), "Hermitian", "g", "*")
        object.__setattr__(self, "entries", _read_only(a))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def entry(self, i: int, j: int) -> complex:
        return complex(self.entries[i, j])


@dataclass(frozen=True)
class ProbabilityMatrix:
    """Symmetric matrix of transition probabilities in [0, 1]."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = _self_adjoint(np.array(self.entries, dtype=float), "symmetric", "p", "^T")
        if not (np.min(a) >= -TOL_STRUCT and np.max(a) <= 1.0 + TOL_STRUCT):
            raise ValueError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "entries", _read_only(a))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _require_vertices(n: int) -> None:
    if n < 1:
        raise ValueError(f"graph needs at least one vertex, got n = {n}")


def _edge_mask(n: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mask, i, j): the symmetric boolean mask of the pairs in edges and their
    index arrays, in input order.  ValueError names the first pair holding a
    non-integer index, else the first self-loop or index outside 0 .. n-1."""
    _require_vertices(n)
    edges = list(edges)
    ij = np.array(edges, dtype=object).reshape(len(edges), 2).T
    if not all(map(_is_integer, set(map(type, ij.flat)))):
        k = next(k for k, pair in enumerate(ij.T) if not all(_is_integer(type(x)) for x in pair))
        raise ValueError(f"edge ({ij[0, k]!r}, {ij[1, k]!r}) must hold integers")
    bad = (ij[0] == ij[1]) | ((ij < 0) | (ij >= n)).any(axis=0)
    if bad.any():
        i, j = ij[:, bad.argmax()]
        raise ValueError(f"self-loop at vertex {i}" if i == j
                         else f"edge ({i}, {j}) out of range for n = {n}")
    # allocated before the cast, so that an n past any array is refused with
    # numpy's ValueError rather than the cast's OverflowError
    mask = np.zeros((n, n), dtype=bool)
    i, j = ij.astype(np.intp)
    mask[i, j] = mask[j, i] = True
    return mask, i, j


@dataclass(frozen=True, init=False, eq=False)
class SupportGraph:
    """Undirected simple graph on vertices 0 .. n-1, stored as its one
    representation: the read-only symmetric boolean adjacency mask, False
    on the diagonal.  Graphs are equal when their masks are; like the
    matrix types, they are not hashable.  SupportGraph(n, edges) refuses
    a non-integer index (a bool or a float), a self-loop or an index out of
    range, naming the first such edge; a pair given twice is one edge."""

    mask: np.ndarray

    def __init__(self, n: int, edges) -> None:
        object.__setattr__(self, "mask", _read_only(_edge_mask(n, edges)[0]))

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "SupportGraph":
        """Graph whose edges are the True pairs i < j of a square mask;
        the diagonal and the lower triangle are not read."""
        _require_vertices(len(mask))
        upper = np.triu(mask, 1)
        graph = object.__new__(cls)
        object.__setattr__(graph, "mask", _read_only(upper | upper.T))
        return graph

    def __eq__(self, other) -> bool:
        return isinstance(other, SupportGraph) and np.array_equal(self.mask, other.mask)

    @property
    def n(self) -> int:
        return len(self.mask)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only index arrays (i, j) of the edges, i < j, in row-major
        order: the edge order of phase files and analyze reports."""
        i, j = np.nonzero(np.triu(self.mask))
        return _read_only(i), _read_only(j)

    @property
    def edges(self) -> frozenset:
        """The edges as a frozenset of pairs (i, j), i < j."""
        return frozenset(zip(*(p.tolist() for p in self.pairs)))

    def has_edge(self, i: int, j: int) -> bool:
        # bounds first: a bare mask[i, j] would wrap negative indices
        return 0 <= i < self.n and 0 <= j < self.n and bool(self.mask[i, j])

    def _vertex(self, v: int) -> int:
        # a bare mask[v] would wrap negative indices
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n = {self.n}")
        return v

    def degree(self, v: int) -> int:
        return int(np.count_nonzero(self.mask[self._vertex(v)]))

    def is_complete(self) -> bool:
        return np.count_nonzero(self.mask) == self.n * (self.n - 1)

    def complement(self) -> "SupportGraph":
        return SupportGraph.from_mask(~self.mask)

    def bfs(self, start: int) -> list[tuple[int, int]]:
        """Tree edges (parent, child) of a breadth-first search from start,
        in visiting order, each vertex's neighbours taken in ascending order."""
        seen = np.zeros(self.n, dtype=bool)
        seen[self._vertex(start)] = True
        queue, tree = [start], []
        for v in queue:
            new = np.flatnonzero(self.mask[v] & ~seen).tolist()
            seen[new] = True
            queue.extend(new)
            tree.extend((v, w) for w in new)
        return tree

    def connected_components(self) -> list[list[int]]:
        """Vertex sets of the connected components, each sorted, in order
        of their smallest vertex.  Isolated vertices form singletons."""
        seen = np.zeros(self.n, dtype=bool)
        comps = []
        for start in range(self.n):
            if not seen[start]:
                comp = sorted([start] + [w for _, w in self.bfs(start)])
                seen[comp] = True
                comps.append(comp)
        return comps


@dataclass(frozen=True)
class PhaseMatrix:
    """Partial matrix of unit overlap phases on a support graph.

    Entries exist on the diagonal (u_ii = 1) and on support edges, where
    they are unimodular and reciprocal: u_ji = conj(u_ij) = 1 / u_ij.
    Absent pairs carry no phase at all; storage off the support is zeroed
    and never read, and access goes through entry()/has().
    """

    n: int
    entries: np.ndarray
    support: SupportGraph

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=complex)
        if a.shape != (self.n, self.n):
            raise ValueError(f"expected shape ({self.n}, {self.n}), got {a.shape}")
        require_square(a)
        if self.support.n != self.n:
            raise ValueError("support graph size does not match the matrix")
        _unit_diagonal(_diagonal_deviation(a), "u")
        i, j = self.support.pairs
        bad = ~(np.abs(moduli(a[i, j]) - 1.0) <= TOL_STRUCT)
        if bad.any():
            i, j = i[bad][0], j[bad][0]
            raise ValueError(
                f"phase for pair ({i}, {j}) is not unimodular: |u| = {float(abs(a[i, j]))!r}"
            )
        bad = ~(moduli(a[j, i] - a[i, j].conj()) <= TOL_STRUCT)
        if bad.any():
            raise ValueError(f"phases for pair ({i[bad][0]}, {j[bad][0]}) are not reciprocal")
        if a[~(self.support.mask | np.eye(self.n, dtype=bool))].any():
            raise ValueError("entries off the support graph must be zeroed")
        object.__setattr__(self, "entries", _read_only(a))

    @classmethod
    def from_edges(cls, n: int, values: dict) -> "PhaseMatrix":
        """Build from {(i, j): u_ij}, filling in u_ji = conj(u_ij); the pairs
        are refused as SupportGraph(n, pairs) refuses them, and a pair given
        in both orders is refused too."""
        return cls._of_pairs(n, values, list(values.values()))

    @classmethod
    def _of_pairs(cls, n: int, pairs, values) -> "PhaseMatrix":
        """u_ij = values[k] and u_ji = conj(u_ij) for the k-th pair (i, j) of pairs,
        refused as _edge_mask refuses them and at the first pair given twice."""
        # allocated first: at an n whose boolean mask is merely too large to
        # allocate (MemoryError), the complex matrix is refused as too big (ValueError)
        a = np.eye(n, dtype=complex)
        mask, i, j = _edge_mask(n, pairs)
        if np.count_nonzero(mask) < 2 * len(i):
            _, first = np.unique(np.minimum(i, j) * n + np.maximum(i, j), return_index=True)
            k = np.setdiff1d(np.arange(len(i)), first)[0]
            raise ValueError(f"pair ({i[k]}, {j[k]}) is given twice")
        u = np.asarray(values, dtype=complex)
        a[i, j], a[j, i] = u, u.conj()
        return cls(n, a, SupportGraph.from_mask(mask))

    def has(self, i: int, j: int) -> bool:
        return 0 <= i == j < self.n or self.support.has_edge(i, j)

    def entry(self, i: int, j: int) -> complex:
        if not self.has(i, j):
            raise ValueError(f"no phase available for pair ({i}, {j})")
        return complex(self.entries[i, j])

    def angle(self, i: int, j: int) -> float:
        """Phase angle arg(u_ij) in (-pi, pi]."""
        return float(principal_angle(self.entry(i, j)))


def gram(family: StateFamily) -> GramMatrix:
    """Overlap matrix g_ij = <psi_i, psi_j> as states.inner rounds it: exactly Hermitian."""
    v = family.vectors
    return GramMatrix(overlaps(v[:, None], v))


def probabilities(g: GramMatrix) -> ProbabilityMatrix:
    """Transition probabilities p_ij = |g_ij| |g_ij|."""
    m = moduli(g.entries)
    return ProbabilityMatrix(m * m)


def phases(g: GramMatrix, zero_tol: float = DEFAULT_ZERO_TOL) -> PhaseMatrix:
    """Unit phases u_ij = g_ij / |g_ij| where |g_ij| exceeds zero_tol.

    Pairs with overlap modulus at or below zero_tol carry no phase and
    are left off the support graph.  Both u_ij and u_ji divide by the
    modulus of the upper entry g_ij, i < j.
    """
    m = np.triu(moduli(g.entries), 1)
    m = m + m.T
    support = SupportGraph.from_mask(m > _zero_tol(zero_tol))
    a = np.eye(g.n, dtype=complex)
    a[support.mask] = g.entries[support.mask] / m[support.mask]
    return PhaseMatrix(g.n, a, support)


def orthogonality_graph(g: GramMatrix, zero_tol: float = DEFAULT_ZERO_TOL) -> SupportGraph:
    """Graph of pairs with vanishing overlap, |g_ij| <= zero_tol."""
    return SupportGraph.from_mask(moduli(g.entries) <= _zero_tol(zero_tol))


def check_matching(graph: SupportGraph) -> bool:
    """Whether every vertex has degree at most one."""
    return bool(np.all(np.count_nonzero(graph.mask, axis=1) <= 1))
