"""Pure qubit states, the Bloch sphere map, and seeded random sampling.

A state is a normalized vector in C^2, kept up to a global phase.  Inner
products are conjugate-linear in the first argument,

    <a, b> = conj(a0) b0 + conj(a1) b1,

so overlap matrices built from a family satisfy g_ji = conj(g_ij).

The Bloch map sends a state to the real unit vector

    n = (2 Re(conj(c0) c1), 2 Im(conj(c0) c1), |c0|^2 - |c1|^2),

which depends only on the ray.  Its inverse (a section, fixing the gauge)
takes polar angle theta and azimuth phi to (cos(theta/2),
e^{i phi} sin(theta/2)) with a real nonnegative first amplitude.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TOL_NORM = 1e-12   # unit norm, enforced when states are constructed
TOL_SPHERE = 1e-9  # round trips through trigonometric parameterizations

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_X.setflags(write=False)
SIGMA_Y.setflags(write=False)
SIGMA_Z.setflags(write=False)


def _sum_sq(*xs) -> float:
    """sum |x|^2 as Python floats compute it; inf where abs or ** overflow."""
    try:
        return sum(abs(x) ** 2 for x in xs)
    except OverflowError:
        return math.inf


def _unit_norm(c0: complex, c1: complex) -> bool:
    """Whether |c0|^2 + |c1|^2 is within TOL_NORM of 1, as a QubitState must be."""
    return abs(_sum_sq(c0, c1) - 1.0) <= TOL_NORM


def _modulus(c0: complex, c1: complex) -> float:
    """hypot(|c0|, |c1|); inf where a modulus is past the float range."""
    try:
        return math.hypot(abs(c0), abs(c1))
    except OverflowError:
        return math.inf


def _length(arr: np.ndarray) -> float:
    """math.hypot of a real vector, which no BLAS kernel rounds; inf past the float range."""
    return math.hypot(*arr.tolist())


@dataclass(frozen=True)
class QubitState:
    """Amplitude pair (c0, c1) with |c0|^2 + |c1|^2 = 1.

    A QubitState is one representative of a ray; quantities that depend
    only on the ray (Bloch vector, overlap probabilities) are insensitive
    to the choice, while overlap phases transform covariantly under
    rephasing of the representatives.
    """

    c0: complex
    c1: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "c0", complex(self.c0))
        object.__setattr__(self, "c1", complex(self.c1))
        if not _unit_norm(self.c0, self.c1):
            raise ValueError(f"state not normalized: |c0|^2 + |c1|^2 = "
                             f"{_sum_sq(self.c0, self.c1)!r}")

    @classmethod
    def normalized(cls, c0: complex, c1: complex) -> "QubitState":
        """Build a state from an arbitrary nonzero amplitude pair."""
        norm = _modulus(c0, c1)
        if norm < 1e-15:
            raise ValueError("cannot normalize the zero vector")
        return cls(c0 / norm, c1 / norm)

    @property
    def vector(self) -> np.ndarray:
        """Amplitudes as a length-2 complex array."""
        return np.array([self.c0, self.c1], dtype=complex)

    def rephased(self, theta: float) -> "QubitState":
        """The representative e^{i theta} (c0, c1) of the same ray."""
        p = cmath.exp(1j * theta)
        return QubitState(p * self.c0, p * self.c1)


@dataclass(frozen=True)
class BlochVector:
    """Real unit 3-vector; a point on the Bloch sphere."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "nx", float(self.nx))
        object.__setattr__(self, "ny", float(self.ny))
        object.__setattr__(self, "nz", float(self.nz))
        norm = math.sqrt(_sum_sq(self.nx, self.ny, self.nz))
        if not abs(norm - 1.0) <= TOL_NORM:
            raise ValueError(f"Bloch vector not on the unit sphere: |n| = {norm!r}")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.nx, self.ny, self.nz])


@dataclass(frozen=True)
class StateFamily:
    """An ordered, finite list of qubit states with optional labels."""

    states: tuple[QubitState, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) == 0:
            raise ValueError("a state family must contain at least one state")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != len(self.states):
                raise ValueError(
                    f"{len(self.labels)} labels for {len(self.states)} states"
                )
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("labels must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> QubitState:
        return self.states[i]

    @property
    def vectors(self) -> np.ndarray:
        """Amplitudes stacked into an (N, 2) complex array."""
        return np.array([s.vector for s in self.states])


def inner(a: QubitState, b: QubitState) -> complex:
    """Overlap <a, b>, conjugate-linear in the first argument."""
    return a.c0.conjugate() * b.c0 + a.c1.conjugate() * b.c1


def projector(s: QubitState) -> np.ndarray:
    """Rank-1 density matrix |s><s| as a 2x2 complex array, each entry
    c_r conj(c_c) a scalar product, which no SIMD loop rounds."""
    v = (s.c0, s.c1)
    return np.array([[x * y.conjugate() for y in v] for x in v])


def to_bloch(s: QubitState) -> BlochVector:
    """Bloch vector of a state; invariant under rephasing.

    Uses only conj(c0) c1 and the moduli, so the result is identical for
    every representative of the ray up to roundoff in the products.
    """
    z = s.c0.conjugate() * s.c1
    return BlochVector(2.0 * z.real, 2.0 * z.imag, abs(s.c0) ** 2 - abs(s.c1) ** 2)


def _on_sphere(n) -> np.ndarray:
    """A raw real 3-vector as an array, refused with ValueError unless it is
    finite and its length is within TOL_SPHERE of 1."""
    arr = np.asarray(n, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    norm = _length(arr)
    if not abs(norm - 1.0) <= TOL_SPHERE:
        raise ValueError(f"not on sphere: |n| = {norm!r}")
    return arr


def from_bloch(n) -> QubitState:
    """Gauge-fixed state with the given Bloch vector.

    Accepts a BlochVector or any real 3-vector of unit length (within
    1e-9).  Returns (cos(theta/2), e^{i phi} sin(theta/2)) with the first
    amplitude real and nonnegative; the poles map to (1, 0) and (0, 1)
    exactly.
    """
    if isinstance(n, BlochVector):
        arr = n.vector
    else:
        arr = _on_sphere(n)
        arr = arr / _length(arr)
    nx, ny, nz = arr
    # Half-angle forms keep the poles exact and avoid acos roundoff.
    c0 = math.sqrt(max(0.0, (1.0 + nz) / 2.0))
    s_half = math.sqrt(max(0.0, (1.0 - nz) / 2.0))
    phi = math.atan2(ny, nx)
    return QubitState(c0, cmath.exp(1j * phi) * s_half)


def random_state(seed) -> QubitState:
    """Haar-random state; deterministic for a fixed seed: the one state of
    random_family(1, seed), so a numpy Generator shares its stream."""
    return random_family(1, seed)[0]


def random_family(n: int, seed) -> StateFamily:
    """Family of n independent Haar-random states from one seeded stream.
    Each state takes the next four standard normals, the real and then the
    imaginary parts of (c0, c1), normalized by the scalar _modulus, and is
    drawn again at a modulus of 1e-6 or less; the normals of all the states
    still missing are drawn in one call."""
    if n < 1:
        raise ValueError(f"family size must be positive, got {n}")
    rng, found = np.random.default_rng(seed), []
    while len(found) < n:
        draws = rng.standard_normal((n - len(found), 2, 2))
        for c0, c1 in (draws[:, 0] + 1j * draws[:, 1]).tolist():
            norm = _modulus(c0, c1)
            if norm > 1e-6:
                found.append(QubitState(c0 / norm, c1 / norm))
    return StateFamily(tuple(found))


def rays_equal(a: QubitState, b: QubitState, tol: float) -> bool:
    """Whether two states represent the same ray.

    Compares 1 - |<a, b>|^2, which vanishes exactly on equal rays and
    equals the transition probability to the orthogonal complement.
    """
    return 1.0 - abs(inner(a, b)) ** 2 <= _match_tol(tol)


def _match_tol(tol: float, name: str = "tolerance") -> float:
    """tol, refused with ValueError unless it is positive and finite: the
    rule of every tolerance a computed value is matched against."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {tol!r}")
    return tol
