"""Three-point loop invariants of a qubit state family.

For an ordered triple (i, j, k) the Bargmann invariant

    B_ijk = g_ij g_jk g_ki

is invariant under rephasing of the individual states, so it is a
function of the rays alone.  Its modulus is the product of the three
overlap moduli; its normalized value

    kappa_ijk = u_ij u_jk u_ki = B_ijk / |B_ijk|

is the triangular defect of the phase level, and its argument

    gamma_ijk = arg B_ijk  in (-pi, pi]

is the geometric (Pancharatnam) phase of the loop i -> j -> k -> i.

On the Bloch sphere the same invariant is a trace of three projectors,

    B_ijk = (1 + n_i.n_j + n_j.n_k + n_k.n_i + i n_i.(n_j x n_k)) / 4,

and the defect is the exponential of the oriented solid angle Omega of
the geodesic triangle (n_i, n_j, n_k):

    kappa_ijk = exp(-i Omega / 2),

with the sign convention fixed so that this identity holds, so the
octant triple (z, x, y) has Omega = -pi/2 and geometric phase +pi/4.

all_triangles rounds by the rules in comparisons (_mul, principal_angle),
and bargmann_bloch and solid_angle write their dot products out, so no
BLAS kernel decides a bit of them.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .comparisons import (DEFAULT_ZERO_TOL, GramMatrix, PhaseMatrix, _is_integer, _mul, _read_only,
                          _zero_tol, moduli, phases, principal_angle)
from .states import BlochVector, _on_sphere

DEFECT_CONSISTENCY_TOL = 1e-12  # the two defect computations must agree
DEGENERACY_TOL = 1e-9           # antipodal pair cutoff for solid angles
TRIANGLE_BLOCK = 1024           # rows per range of a bounded-memory walk of Triples


@dataclass(frozen=True)
class TriangleReport:
    """All three-point invariants of one ordered triple.

    Fields satisfy bargmann = amplitude_factor * defect,
    pancharatnam = arg(defect) in (-pi, pi], and
    solid_angle = -2 * pancharatnam in [-2 pi, 2 pi), where the lower
    endpoint occurs only for real negative invariants (pancharatnam pi).
    """

    triple: tuple[int, int, int]
    bargmann: complex
    defect: complex
    pancharatnam: float
    solid_angle: float
    amplitude_factor: float


@dataclass(frozen=True, eq=False)
class TriangleTable:
    """The TriangleReport fields of many triples, one read-only column each.

    Row t describes triples[t]: triples is a (T, 3) integer array,
    bargmann and defect are complex columns and amplitude_factor a float
    column, all of length T.  pancharatnam = principal_angle(defect) and
    solid_angle = -2 * pancharatnam are derived from defect when first
    read.  len() is T, and iterating yields one TriangleReport per row,
    in row order.
    """

    triples: np.ndarray
    bargmann: np.ndarray
    defect: np.ndarray
    amplitude_factor: np.ndarray

    def __post_init__(self) -> None:
        for column in vars(self).values():
            column.setflags(write=False)

    @cached_property
    def pancharatnam(self) -> np.ndarray:
        return _read_only(principal_angle(self.defect))

    @cached_property
    def solid_angle(self) -> np.ndarray:
        return _read_only(-2.0 * self.pancharatnam)

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return map(
            TriangleReport,
            map(tuple, self.triples.tolist()),
            self.bargmann.tolist(),
            self.defect.tolist(),
            self.pancharatnam.tolist(),
            self.solid_angle.tolist(),
            self.amplitude_factor.tolist(),
        )


def _check_triple(n: int, i: int, j: int, k: int) -> None:
    """Refuse with ValueError a triple holding a non-integer index (a bool or
    a float), an index outside 0 .. n-1 or a repeated index."""
    if not all(_is_integer(type(v)) for v in (i, j, k)):
        raise ValueError(f"triple ({i!r}, {j!r}, {k!r}) must hold integers")
    for v in (i, j, k):
        if not 0 <= v < n:
            raise ValueError(f"index {v} out of range for {n} states")
    if len({i, j, k}) != 3:
        raise ValueError(f"triple ({i}, {j}, {k}) has repeated indices")


def bargmann(g: GramMatrix, i: int, j: int, k: int) -> complex:
    """Third-order Bargmann invariant g_ij g_jk g_ki."""
    _check_triple(g.n, i, j, k)
    e = g.entries
    return complex(e[i, j] * e[j, k] * e[k, i])


def defect(u: PhaseMatrix, i: int, j: int, k: int) -> complex:
    """Triangular defect u_ij u_jk u_ki of the phase level.

    Requires all three pairs to lie in the support graph.
    """
    _check_triple(u.n, i, j, k)
    for a, b in ((i, j), (j, k), (k, i)):
        if not u.has(a, b):
            raise ValueError(
                f"triangle not in support: no phase for pair ({min(a, b)}, {max(a, b)})"
            )
    return u.entry(i, j) * u.entry(j, k) * u.entry(k, i)


def _disagreement(triple, delta) -> ArithmeticError:
    """The refusal of the triple whose two defect routes differ by delta."""
    i, j, k = triple
    return ArithmeticError(f"defect and normalized Bargmann invariant of triangle "
                           f"({i}, {j}, {k}) disagree: |delta| = {float(delta)!r}")


def triangle_report(
    g: GramMatrix, i: int, j: int, k: int, zero_tol: float = DEFAULT_ZERO_TOL
) -> TriangleReport:
    """Amplitude/phase split of the Bargmann invariant of one triple.

    The defect is computed twice, from the three normalized overlaps and
    by normalizing the Bargmann invariant itself; the two paths must
    agree to 1e-12 or the report is refused, as triangle_table refuses
    its row.  Triples with a vanishing overlap carry no phase information
    and are rejected.
    """
    _check_triple(g.n, i, j, k)
    _zero_tol(zero_tol)
    e = g.entries
    moduli = {}
    for a, b in ((i, j), (j, k), (k, i)):
        m = abs(e[a, b])
        if m <= zero_tol:
            raise ValueError(
                "Bargmann invariant is zero; phase undefined "
                f"(overlap of pair ({min(a, b)}, {max(a, b)}) vanishes)"
            )
        moduli[(a, b)] = m
    b_inv = complex(e[i, j] * e[j, k] * e[k, i])
    amplitude = moduli[(i, j)] * moduli[(j, k)] * moduli[(k, i)]
    kappa_phases = (
        (e[i, j] / moduli[(i, j)])
        * (e[j, k] / moduli[(j, k)])
        * (e[k, i] / moduli[(k, i)])
    )
    # divided as triangle_table divides: a |bargmann| below the float range
    # gives inf or NaN, not ZeroDivisionError
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        delta = abs(kappa_phases - np.complex128(b_inv) / abs(b_inv))
    if not delta <= DEFECT_CONSISTENCY_TOL:
        raise _disagreement((i, j, k), delta)
    gamma = float(principal_angle(kappa_phases))
    return TriangleReport(
        triple=(i, j, k),
        bargmann=b_inv,
        defect=kappa_phases,
        pancharatnam=gamma,
        solid_angle=-2.0 * gamma,
        amplitude_factor=amplitude,
    )


def _as_unit3(n) -> np.ndarray:
    """A BlochVector's components, or a raw 3-vector as given, refused unless
    it is finite and on the sphere by from_bloch's rule."""
    return n.vector if isinstance(n, BlochVector) else _on_sphere(n)


def bargmann_bloch(ni, nj, nk) -> complex:
    """Bargmann invariant from Bloch vectors alone.

    Evaluates (1 + sum of pairwise dots + i triple product) / 4, the
    trace of the three corresponding rank-1 projectors.  Each vector is a
    BlochVector or a real 3-vector whose length is within 1e-9 of 1, as
    from_bloch accepts it; any other, NaN or infinite ones included,
    raises ValueError.
    """
    a, b, c = (_as_unit3(v).tolist() for v in (ni, nj, nk))
    cross = [b[1] * c[2] - b[2] * c[1], b[2] * c[0] - b[0] * c[2], b[0] * c[1] - b[1] * c[0]]
    dots = _dot(a, b) + _dot(b, c) + _dot(c, a)
    return complex(0.25 * (1.0 + dots), 0.25 * _dot(a, cross))


def _dot(u: list, v: list) -> float:
    """u . v of two 3-vectors of floats, summed in index order: no BLAS
    kernel rounds it."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def solid_angle(ni, nj, nk) -> float:
    """Oriented solid angle of a geodesic triangle on the unit sphere.

    Omega = -2 arg B in [-2 pi, 2 pi), B = bargmann_bloch(ni, nj, nk),
    by the identity exp(-i Omega / 2) = B / |B| = u_ij u_jk u_ki.
    Degenerate triangles (a repeated vertex, or vertices on a common
    great circle with the short arcs enclosing nothing) give 0; a
    great-circle triple that bounds a hemisphere gives -2 pi.  Pairs that
    are antipodal within 1e-9 leave the geodesic ill-defined and are
    rejected; the vertices are taken, or refused, as bargmann_bloch takes them.
    """
    a, b, c = _as_unit3(ni), _as_unit3(nj), _as_unit3(nk)
    for u, v, name in ((a, b, "first/second"), (b, c, "second/third"), (c, a, "third/first")):
        if 1.0 + _dot(u.tolist(), v.tolist()) <= DEGENERACY_TOL:
            raise ValueError(
                f"geodesic triangle degenerate: {name} vertices are antipodal"
            )
    return -2.0 * cmath.phase(bargmann_bloch(a, b, c))


class Triples:
    """The triples i < j < k whose three pairs all lie in a symmetric boolean
    mask, in lexicographic order, addressed by row.  len() counts them
    without making them; ranges(size) cuts the order into ranges of size
    rows, of which only the last may be shorter and none is empty; rows(r)
    makes the rows of the range r, a (len(r), 3) integer array.  A size
    below 1, and a range with a step other than 1 or reaching outside the
    rows, raise ValueError."""

    def __init__(self, mask: np.ndarray):
        self._up = up = np.triu(mask, 1)
        # the triples of each first vertex i: the pairs j < k of its later
        # neighbours with j ~ k, sum_k (A A)_ik A_ik for A the upper mask
        a = up.astype(int)
        self._first = np.concatenate([[0], np.cumsum(((a @ a) * a).sum(axis=1))])
        # the rows of the last first vertex made: consecutive ranges share it
        self._last = -1, None

    def __len__(self) -> int:
        return int(self._first[-1])

    def ranges(self, size: int):
        if not size >= 1:
            raise ValueError(f"ranges of {size} rows: the size must be at least 1")
        every = range(len(self))
        return (every[start:start + size] for start in every[::size])

    def rows(self, r: range) -> np.ndarray:
        if not (r.step == 1 and 0 <= r.start and r.stop <= len(self)):
            raise ValueError(f"{r!r} is not a range of rows of {len(self)} triples")
        # the first vertices whose triples meet r, from the last that starts
        # at or before r.start to the last that starts before r.stop
        lo = int(np.searchsorted(self._first, r.start, "right")) - 1
        hi = int(np.searchsorted(self._first, r.stop, "left"))
        return np.concatenate([np.empty((0, 3), dtype=int), *(
            self._of_vertex(i)[max(r.start - self._first[i], 0):r.stop - self._first[i]]
            for i in range(lo, hi))])

    def _of_vertex(self, i: int) -> np.ndarray:
        if self._last[0] != i:
            nb = np.flatnonzero(self._up[i])
            j, k = np.nonzero(self._up[np.ix_(nb, nb)])
            rows = np.empty((len(j), 3), dtype=int)
            rows[:, 0], rows[:, 1], rows[:, 2] = i, nb[j], nb[k]
            self._last = i, rows
        return self._last[1]


def cycle_products(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(a_ij a_jk) a_ki for every row (i, j, k) of t."""
    i, j, k = t.T
    return _mul(_mul(a[i, j], a[j, k]), a[k, i])


def triangle_table(g: np.ndarray, m: np.ndarray, u: np.ndarray, t: np.ndarray) -> TriangleTable:
    """The row kernel: the TriangleTable of the rows of t, from the gram
    entries g, their moduli m and the phase entries u.  It is refused at
    the first row whose two defect routes, u_ij u_jk u_ki and
    bargmann / |bargmann|, differ by more than DEFECT_CONSISTENCY_TOL or
    by NaN, naming that row's triangle and difference; so a walk through
    it of t's rows, cut into ranges of any size, refuses with the same
    message.  A |bargmann| below the float range gives inf or NaN, without
    a warning."""
    b = cycle_products(g, t)
    kappa = cycle_products(u, t)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        delta = moduli(kappa - b / moduli(b))
    refused = ~(delta <= DEFECT_CONSISTENCY_TOL)
    if refused.any():
        first = refused.argmax()
        raise _disagreement(t[first].tolist(), delta[first])
    i, j, k = t.T
    return TriangleTable(t, b, kappa, m[i, j] * m[j, k] * m[k, i])


def all_triangles(g: GramMatrix, zero_tol: float = DEFAULT_ZERO_TOL) -> TriangleTable:
    """Invariants of every triple i < j < k with full phase support.

    Triples with a vanishing overlap are skipped; the rest are the rows
    of the table, in lexicographic order of their canonical orientation.
    This is the array kernel; triangle_report is its scalar reference:
    the table's reports match it bit for bit on exactly Hermitian g
    (every gram() result), including the 1e-12 refusal when the two
    defect routes disagree.  The table holds every row at once; the
    tables of triangle_table on the ranges of Triples(u.support.mask)
    concatenate to it bit for bit in memory O(n^2 + one range), and
    such a walk refuses at the same first row.
    """
    u = phases(g, zero_tol)
    triples = Triples(u.support.mask)
    return triangle_table(g.entries, moduli(g.entries), u.entries,
                          triples.rows(range(len(triples))))
