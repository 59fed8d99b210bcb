"""Independent recomputation paths used to cross-check the main code.

Everything here is evaluated by naive expansion in Python complex
numbers: inner products written out component by component, projectors
and Pauli matrices as explicit 2x2 nested lists multiplied entry by
entry, so no BLAS kernel or SIMD loop decides a bit.  This module imports
only the state types; it deliberately shares no helper with the
comparison and invariant code it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .states import QubitState, StateFamily


@dataclass(frozen=True)
class OracleReport:
    """Result of one verification property over a batch of cases;
    first_failure is the index of its first case over the tolerance or
    NaN, None when every case passes or nothing is sampled."""

    name: str
    cases_run: int
    max_discrepancy: float
    tolerance: float
    first_failure: int | None = None

    def __post_init__(self) -> None:
        # plain Python scalars, whatever numeric type the check produced
        object.__setattr__(self, "cases_run", int(self.cases_run))
        object.__setattr__(self, "max_discrepancy", float(self.max_discrepancy))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return self.max_discrepancy <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name:<42} cases={self.cases_run:<6} "
            f"max_discrepancy={self.max_discrepancy:.3e} "
            f"tol={self.tolerance:.1e} {status}"
        )


def oracle_bargmann_direct(family: StateFamily, i: int, j: int, k: int) -> complex:
    """Bargmann invariant by componentwise expansion of the overlaps."""
    a, b, c = family[i], family[j], family[k]
    ab = a.c0.conjugate() * b.c0 + a.c1.conjugate() * b.c1
    bc = b.c0.conjugate() * c.c0 + b.c1.conjugate() * c.c1
    ca = c.c0.conjugate() * a.c0 + c.c1.conjugate() * a.c1
    return ab * bc * ca


def oracle_trace_product(family: StateFamily, i: int, j: int, k: int) -> complex:
    """Bargmann invariant as the trace of three explicit projectors."""

    def proj(s: QubitState) -> list:
        v = (s.c0, s.c1)
        return [[x * y.conjugate() for y in v] for x in v]

    return _trace(_product(_product(proj(family[i]), proj(family[j])), proj(family[k])))


def _product(x: list, y: list) -> list:
    """The 2x2 matrix product x y of nested lists, entry by entry."""
    return [[x[r][0] * y[0][c] + x[r][1] * y[1][c] for c in range(2)] for r in range(2)]


def _trace(x: list) -> complex:
    return x[0][0] + x[1][1]


def _largest_minor(m: list) -> float:
    """Largest |det| of the 3x3 principal submatrices of a square nested-list
    matrix, each determinant expanded along its first row; 0.0 for fewer
    than three rows.  A qubit Gram matrix has every such minor 0."""
    n = len(m)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                (a, b, c), (d, e, f), (g, h, x) = ([m[r][i], m[r][j], m[r][k]] for r in (i, j, k))
                det = a * (e * x - f * h) - b * (d * x - f * g) + c * (d * h - e * g)
                worst = max(worst, abs(det))
    return worst


def oracle_pauli_traces() -> OracleReport:
    """Check the Pauli trace identities by explicit matrix arithmetic.

    Verifies tr(s_a s_b) = 2 delta_ab and tr(s_a s_b s_c) = 2i eps_abc
    for all index combinations, 36 identities in total.
    """
    sx = [[0j, 1 + 0j], [1 + 0j, 0j]]
    sy = [[0j, -1j], [1j, 0j]]
    sz = [[1 + 0j, 0j], [0j, -1 + 0j]]
    sigma = (sx, sy, sz)

    def eps(a: int, b: int, c: int) -> int:
        return (a - b) * (b - c) * (c - a) // 2

    worst = 0.0
    cases = 0
    for a in range(3):
        for b in range(3):
            expected = 2.0 if a == b else 0.0
            worst = max(worst, abs(_trace(_product(sigma[a], sigma[b])) - expected))
            cases += 1
    for a in range(3):
        for b in range(3):
            for c in range(3):
                expected = 2.0j * eps(a, b, c)
                got = _trace(_product(_product(sigma[a], sigma[b]), sigma[c]))
                worst = max(worst, abs(got - expected))
                cases += 1
    return OracleReport(
        name="pauli_trace_identities",
        cases_run=cases,
        max_discrepancy=float(worst),
        tolerance=1e-15,
    )
