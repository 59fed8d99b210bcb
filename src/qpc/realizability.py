"""Realizability of prescribed comparison data by qubit states.

A complex matrix is the overlap matrix of some family of qubit states
exactly when it is Hermitian with unit diagonal, positive semidefinite,
and of rank at most two.  check_gram judges the four conditions and
factor_states reconstructs a witness family from the top two eigenpairs.
Both take a GramMatrix or a raw finite square array.  check_gram is
the one judge: factor_states takes its verdict on the matrix as given
and raises GramRefusal, carrying that verdict, exactly when it fails;
realize_gram is factor_states plus the residual against the input.

For phase-level data the full matrix is not available, only unit phases
on the support graph.  Coherent prescriptions, u_ij = lam_i conj(lam_j)
for some unit numbers lam, are realized exactly by rephasing copies of
a single base state.  realize_coherent and realize_phases both decide
coherence by the rephasing potential alone: lam is propagated over a
spanning forest of the support, and the single-ray family it gives is
accepted when its phase residual, checked on every support edge, meets
the tolerance.  The triangle test is_coherent is on neither path.  Other
prescriptions are attacked by a seeded multi-start local search over
gauge-fixed Bloch angles; a successful search returns a certificate
family, while an unsuccessful one is inconclusive.  least_squares is
the search's one solver entry point, and scipy is loaded only when
realize_phases searches phase data that is not coherent.  realize_gram
and realize_phases return a RealizabilityResult.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import comparisons
from .comparisons import GramMatrix, PhaseMatrix, SupportGraph, deviations, moduli, require_square
from .invariants import cycle_products, support_triples
from .states import QubitState, StateFamily, _match_tol

PSD_TOL = 1e-10        # eigenvalue floor, relative to max(1, largest eigenvalue)
RANK_TOL = 1e-10       # eigenvalues below this fraction of the largest are noise
HERMITIAN_TOL = 1e-10  # verdict tolerance for Hermiticity
UNIT_DIAG_TOL = 1e-10  # verdict tolerance for the diagonal
REALIZE_TOL = 1e-7     # per-edge phase mismatch accepted as realized
COHERENCE_TOL = 1e-9   # per-edge phase mismatch realize_coherent accepts by default
SOFT_FLOOR = 1e-6      # overlap modulus below which the search residual stops normalizing

REALIZABLE = "realizable"
NOT_REALIZABLE = "not_realizable"
SEARCH_FAILED = "search_failed"


@dataclass(frozen=True)
class GramVerdict:
    """Outcome of the four Gram-matrix conditions.

    eigenvalues are sorted in descending order; rank_estimate counts
    those above RANK_TOL times the largest; worst_violation is the
    largest deviation across the failed conditions (0 when all hold).
    """

    hermitian_ok: bool
    unit_diag_ok: bool
    psd_ok: bool
    rank_ok: bool
    eigenvalues: tuple[float, ...]
    rank_estimate: int
    worst_violation: float

    @property
    def all_ok(self) -> bool:
        return self.hermitian_ok and self.unit_diag_ok and self.psd_ok and self.rank_ok

    def conditions(self) -> list[tuple[str, bool]]:
        """(name, holds) for each of the four conditions, in verdict order."""
        return [
            ("hermitian", self.hermitian_ok),
            ("unit diagonal", self.unit_diag_ok),
            ("positive semidefinite", self.psd_ok),
            ("rank at most 2", self.rank_ok),
        ]

    def failed_conditions(self) -> list[str]:
        names = [name for name, ok in self.conditions() if not ok]
        if not self.rank_ok:
            names[-1] += f" (estimated rank {self.rank_estimate})"
        return names


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the multi-start phase-realization search."""

    restarts: int = 32
    max_iters: int = 500
    seed: int = 0
    realize_tol: float = REALIZE_TOL

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be positive, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        _match_tol(self.realize_tol, "realize_tol")


@dataclass(frozen=True)
class RealizabilityResult:
    """Verdict of a realization attempt.

    residual is max |gram(certificate) - a| for a gram matrix a, and the
    largest per-edge chordal distance between the certificate's phases
    and a phase prescription; for a negative or inconclusive verdict it
    refers to the best candidate found.
    """

    status: str
    certificate: StateFamily | None
    residual: float
    diagnostics: str

    def __post_init__(self) -> None:
        if self.status not in (REALIZABLE, NOT_REALIZABLE, SEARCH_FAILED):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == REALIZABLE and self.certificate is None:
            raise ValueError("a realizable verdict requires a certificate")


def check_gram(g) -> GramVerdict:
    """Judge whether a square complex matrix is a qubit Gram matrix.

    Accepts a GramMatrix or a raw array; raw input may violate any of
    the conditions, that is what the verdict is for, but it must be
    finite.  Eigenvalues are taken from the Hermitian part, which
    coincides with the input whenever hermitian_ok holds; a spectrum
    that overflows to NaN is refused.  factor_states refuses by this
    verdict, so it is the only judge of a Gram matrix.
    """
    a = _matrix(g)
    # eigvalsh: the verdict needs no eigenvectors, and eigh costs about
    # three times as much on large matrices (ROADMAP item 2).
    eigs = np.linalg.eigvalsh(hermitian_part(a))[::-1]
    if not np.isfinite(eigs).all():
        raise ValueError("eigenvalues are not finite: the matrix overflows the eigensolver")
    n = a.shape[0]
    herm_dev, diag_dev = deviations(a)
    lam_max = float(eigs[0])
    lam_min = float(eigs[-1])
    psd_ok = lam_min >= -PSD_TOL * max(1.0, lam_max)
    rank_estimate = int(np.sum(eigs > RANK_TOL * max(lam_max, 0.0)))
    rank_excess = float(eigs[2]) if n >= 3 and eigs[2] > 0.0 else 0.0
    violations = [
        herm_dev if herm_dev > HERMITIAN_TOL else 0.0,
        diag_dev if diag_dev > UNIT_DIAG_TOL else 0.0,
        -lam_min if not psd_ok else 0.0,
        rank_excess if rank_estimate > 2 else 0.0,
    ]
    return GramVerdict(
        hermitian_ok=herm_dev <= HERMITIAN_TOL,
        unit_diag_ok=diag_dev <= UNIT_DIAG_TOL,
        psd_ok=psd_ok,
        rank_ok=rank_estimate <= 2,
        eigenvalues=tuple(float(x) for x in eigs),
        rank_estimate=rank_estimate,
        worst_violation=max(violations),
    )


def _matrix(g) -> np.ndarray:
    """The entries of a GramMatrix, or a raw array refused unless it is a
    nonempty, finite square matrix."""
    a = g.entries if isinstance(g, GramMatrix) else np.asarray(g, dtype=complex)
    require_square(a)
    return a


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a*) / 2, halved before adding so that large finite entries do
    not overflow; on ordinary input the bits are those of (a + a*) / 2."""
    return a / 2.0 + a.conj().T / 2.0


class GramRefusal(ValueError):
    """factor_states' refusal: the failed check_gram verdict is .verdict."""

    def __init__(self, verdict: GramVerdict):
        super().__init__(
            "matrix is not a qubit Gram matrix: failed "
            f"{', '.join(verdict.failed_conditions())}; "
            f"worst violation {verdict.worst_violation!r}"
        )
        self.verdict = verdict


def factor_states(g) -> StateFamily:
    """Reconstruct a state family whose Gram matrix is g.

    Accepts what check_gram accepts: a GramMatrix or a raw finite square
    array, refused with GramRefusal unless check_gram's verdict on it
    holds.  The eigenvectors then come from eigh of the Hermitian part,
    whose eigenvalues judge nothing: state i gets the amplitudes
    (sqrt(l1) conj(q1[i]), sqrt(l2) conj(q2[i])), renormalized.  The
    family reproduces g up to the discarded eigenvalue mass and the
    diagonal slack, both of which the verdict bounds.
    """
    a = _matrix(g)
    # looked up on the module, so perfbench's check_gram hook sees the call
    verdict = check_gram(a)
    if not verdict.all_ok:
        raise GramRefusal(verdict)
    vecs = _top_two(*np.linalg.eigh(hermitian_part(a)))
    norms = np.linalg.norm(vecs, axis=1)
    if np.min(norms) < 0.5:
        raise ArithmeticError("factorization produced a near-zero state")
    return _family(vecs / norms[:, None])


def realize_gram(g) -> RealizabilityResult:
    """factor_states(g) as a certificate, with the residual measured
    against the matrix as given (GramRefusal if check_gram fails)."""
    a = _matrix(g)
    family = factor_states(a)
    # looked up on the module, so perfbench's comparisons.gram hook sees the call
    residual = float(np.max(np.abs(comparisons.gram(family).entries - a)))
    return RealizabilityResult(REALIZABLE, family, residual, "factored from eigenpairs")


def _family(vecs: np.ndarray) -> StateFamily:
    """The family whose amplitudes are the rows of an (n, 2) array."""
    return StateFamily(tuple(QubitState(v[0], v[1]) for v in vecs))


def _top_two(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rows (sqrt(l1) conj(q1[i]), sqrt(l2) conj(q2[i])) from the top two
    eigenpairs of an eigh result (w ascending, eigenvectors in the columns
    of q); negative eigenvalues count as 0 and a 1 x 1 matrix gets a zero
    second column."""
    l1 = max(float(w[-1]), 0.0)
    u1 = q[:, -1]
    if len(w) >= 2:
        l2 = max(float(w[-2]), 0.0)
        u2 = q[:, -2]
    else:
        l2, u2 = 0.0, np.zeros(len(w), dtype=complex)
    return np.column_stack([math.sqrt(l1) * u1.conj(), math.sqrt(l2) * u2.conj()])


def _worst_triangle(u: PhaseMatrix) -> float:
    """Largest |u_ij u_jk u_ki - 1| over the support triangles, 0.0 without any."""
    t = support_triples(u.support.mask)
    return float(moduli(cycle_products(u.entries, t) - 1.0).max(initial=0.0))


def is_coherent(u: PhaseMatrix, tol: float) -> bool:
    """Whether every support triangle multiplies to 1 within tol.

    Matrices without support triangles are vacuously coherent; for
    those, cycle consistency is only settled once a rephasing potential
    is attempted.
    """
    return _worst_triangle(u) <= _match_tol(tol)


def _potential(u: PhaseMatrix, comps: list[list[int]]) -> np.ndarray:
    """Single-ray amplitudes (conj(lam_i), 0) from a rephasing potential.

    comps are the connected components of the support.  lam is 1 at the
    smallest vertex of each and is propagated over a breadth-first
    spanning forest, so u_ij = lam_i conj(lam_j) holds on the tree edges;
    whether it holds on the others is what _edge_distances measures.
    """
    lam = np.ones(u.n, dtype=complex)
    for comp in comps:
        for i, j in u.support.bfs(comp[0]):
            lam[j] = lam[i] * u.entry(j, i)
    lam = lam / np.abs(lam)
    return np.column_stack([lam.conj(), np.zeros(u.n, dtype=complex)])


def realize_coherent(u: PhaseMatrix, tol: float = COHERENCE_TOL) -> StateFamily:
    """Realize a coherent phase prescription on a single ray.

    Phases of a rank-1 family split as u_ij = lam_i / lam_j, with lam the
    rephasing potential of a connected support.  The states returned are
    conj(lam_i) times a fixed base state, accepted only when every
    support edge's phase is realized within tol: the rule realize_phases
    applies with cfg.realize_tol.
    """
    comps = u.support.connected_components()
    if len(comps) > 1:
        raise ValueError(
            f"support graph disconnected: components {comps}; "
            "realize each component separately"
        )
    vecs = _potential(u, comps)
    i, j, dev = _edge_distances(vecs, u)
    if not dev.max(initial=0.0) <= _match_tol(tol):
        e = int(np.argmax(dev))
        raise ValueError(
            "phase matrix is not coherent: no consistent rephasing potential "
            f"realizes edge ({i[e]}, {j[e]}) within {tol!r}; its phase misses by {float(dev[e])!r}"
        )
    return _family(vecs)


# ---------------------------------------------------------------------------
# Multi-start local search over gauge-fixed Bloch angles.
#
# Each state is cos(t/2) e^{i p} |0> + sin(t/2) e^{i (p + a)} |1> with polar
# angle t, azimuth a, and gauge phase p.  State 0 is pinned to the north pole
# with zero phase and state 1 to zero azimuth, which removes the global
# unitary and the one redundant global rephasing.
# ---------------------------------------------------------------------------


def _free(n: int) -> np.ndarray:
    """Mask of the free entries of the (3, n) array of angles (theta,
    azimuth, gauge): all but theta_0, a_0, a_1 and p_0, which the gauge
    fixing pins to 0.  A parameter vector is angles[free]."""
    free = np.ones((3, n), dtype=bool)
    free[:, 0] = free[1, :2] = False
    return free


def _angles(x: np.ndarray, free: np.ndarray) -> np.ndarray:
    """The (3, n) angle array whose free entries are x."""
    angles = np.zeros(free.shape)
    angles[free] = x
    return angles


def _angles_to_vectors(theta: np.ndarray, azim: np.ndarray, gauge: np.ndarray) -> np.ndarray:
    a = np.cos(theta / 2.0) * np.exp(1j * gauge)
    b = np.sin(theta / 2.0) * np.exp(1j * (gauge + azim))
    return np.column_stack([a, b])


def _residuals(x, free, idx_i, idx_j, targets):
    """Stacked real residual vector of the smooth per-edge terms.

    Each support edge contributes g_ij / max(|g_ij|, SOFT_FLOOR) - u_ij,
    split into real and imaginary parts; the floor keeps the residual
    smooth through near-orthogonal configurations while still
    penalizing them.  Returns (residuals, jacobian) in the free angles.
    """
    theta, azim, gauge = _angles(x, free)
    half = theta / 2.0
    ea = np.exp(1j * gauge)
    eb = np.exp(1j * (gauge + azim))
    a = np.cos(half) * ea
    b = np.sin(half) * eb
    da_dt = -0.5 * np.sin(half) * ea
    db_dt = 0.5 * np.cos(half) * eb

    g_e = a[idx_i].conj() * a[idx_j] + b[idx_i].conj() * b[idx_j]
    h_e = b[idx_i].conj() * b[idx_j]
    m = np.abs(g_e)
    v = g_e / np.maximum(m, SOFT_FLOOR)
    err = v - targets

    # Wirtinger factors of v(g): dv = A dg + B conj(dg), per floor branch.
    m_safe = np.maximum(m, 1e-300)
    a_fac = np.where(m > SOFT_FLOOR, 1.0 / (2.0 * m_safe), 1.0 / SOFT_FLOOR)
    b_fac = np.where(m > SOFT_FLOOR, -(v**2) / (2.0 * m_safe), 0.0)

    gt_i = da_dt[idx_i].conj() * a[idx_j] + db_dt[idx_i].conj() * b[idx_j]
    gt_j = a[idx_i].conj() * da_dt[idx_j] + b[idx_i].conj() * db_dt[idx_j]

    # dg_e / d(theta, azim, gauge) of both end states, then the free columns.
    # Added to zeros, not assigned, so that signed zeros come out as +0.
    rows = np.arange(len(idx_i))
    dg = np.zeros((len(idx_i),) + free.shape, dtype=complex)
    dg[rows, 0, idx_i] += gt_i
    dg[rows, 0, idx_j] += gt_j
    dg[rows, 1, idx_i] += -1j * h_e
    dg[rows, 1, idx_j] += 1j * h_e
    dg[rows, 2, idx_i] += -1j * g_e
    dg[rows, 2, idx_j] += 1j * g_e
    dgdp = dg[:, free]

    dvdp = a_fac[:, None] * dgdp + b_fac[:, None] * dgdp.conj()
    residuals = np.concatenate([err.real, err.imag])
    jacobian = np.vstack([dvdp.real, dvdp.imag])
    return residuals, jacobian


def _gauge_fix(vecs: np.ndarray) -> np.ndarray:
    """Rotate a candidate family so state 0 is the north pole with zero
    phase and state 1 has zero azimuth; overlaps are unchanged."""
    v = vecs.copy()
    a0, b0 = v[0]
    rot = np.array([[a0.conjugate(), b0.conjugate()], [-b0, a0]])
    v = v @ rot.T
    if v.shape[0] >= 2:
        a1, b1 = v[1]
        if abs(a1) > 1e-12 and abs(b1) > 1e-12:
            beta = np.angle(a1) - np.angle(b1)
            v[:, 1] *= np.exp(1j * beta)
    return v


def _spectral_guess(u: PhaseMatrix, free: np.ndarray) -> np.ndarray:
    """Starting point from the top two eigenpairs of the phase matrix.

    Treats the prescription itself as if it were a Gram matrix; for
    realizable data this lands near a feasible family.
    """
    vecs = _top_two(*np.linalg.eigh(u.entries))
    norms = np.linalg.norm(vecs, axis=1)[:, None]
    zero = norms < 1e-9
    vecs = np.where(zero, [1.0, 0.0], vecs / np.where(zero, 1.0, norms))
    a, b = _gauge_fix(vecs).T
    theta = 2.0 * np.arctan2(np.abs(b), np.abs(a))
    gauge = np.where(np.abs(a) > 1e-12, np.angle(a), 0.0)
    azim = np.where(np.abs(b) > 1e-12, np.angle(b) - gauge, 0.0)
    return np.array([theta, azim, gauge])[free]


def _random_guess(rng: np.random.Generator, free: np.ndarray) -> np.ndarray:
    n = free.shape[1]
    theta = np.arccos(rng.uniform(-1.0, 1.0, n))
    azim = rng.uniform(0.0, 2.0 * np.pi, n)
    gauge = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.array([theta, azim, gauge])[free]


def _edge_distances(vecs: np.ndarray, u: PhaseMatrix):
    """(i, j, d): the support edges i < j and, per edge, the chordal
    distance between the phase the amplitude rows realize and the one
    prescribed; 2 where the realized overlap vanishes."""
    i, j = u.support.pairs
    g = (vecs.conj() @ vecs.T)[i, j]
    m = moduli(g)
    d = np.where(m == 0.0, 2.0, moduli(g / np.where(m == 0.0, 1.0, m) - u.entries[i, j]))
    return i, j, d


def _phase_residual(vecs: np.ndarray, u: PhaseMatrix) -> float:
    """Largest chordal distance between realized and prescribed phases."""
    return float(_edge_distances(vecs, u)[2].max(initial=0.0))


def _restrict(u: PhaseMatrix, comp: list[int]) -> PhaseMatrix:
    sub = np.ix_(comp, comp)
    return PhaseMatrix(len(comp), u.entries[sub], SupportGraph.from_mask(u.support.mask[sub]))


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on first use, not with qpc."""
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


def _search_component(u: PhaseMatrix, cfg: SearchConfig, rng: np.random.Generator):
    """Best family found for one connected component.

    Restart 0 starts from the spectral guess, later restarts from
    seeded random angles; the best candidate by final residual wins,
    ties going to the earlier restart.  Returns (vectors, restarts_used).
    """
    free = _free(u.n)
    idx_i, idx_j = u.support.pairs
    targets = u.entries[idx_i, idx_j]
    best_vecs, best_res = None, np.inf
    fun_args = (free, idx_i, idx_j, targets)
    method = "lm" if 2 * len(idx_i) >= np.count_nonzero(free) else "trf"
    for r in range(cfg.restarts):
        x0 = _spectral_guess(u, free) if r == 0 else _random_guess(rng, free)
        res = least_squares(
            lambda x: _residuals(x, *fun_args)[0],
            x0,
            jac=lambda x: _residuals(x, *fun_args)[1],
            method=method,
            max_nfev=cfg.max_iters,
            ftol=1e-15,
            xtol=1e-15,
            gtol=1e-15,
        )
        vecs = _angles_to_vectors(*_angles(res.x, free))
        cand = _phase_residual(vecs, u)
        if cand < best_res:
            best_res = cand
            best_vecs = vecs
        if best_res <= cfg.realize_tol:
            break
    return best_vecs, r + 1


def realize_phases(u: PhaseMatrix, cfg: SearchConfig = SearchConfig()) -> RealizabilityResult:
    """Search for a state family reproducing prescribed overlap phases.

    The single-ray family of the rephasing potential is tried first;
    it certifies coherent prescriptions exactly.  Otherwise each
    connected component of the support graph is searched independently
    (overlaps between components are unconstrained) and the
    per-component certificates are concatenated.  A residual at or below
    cfg.realize_tol certifies realizability, and the certificate
    returned is the one measured; an exhausted search is inconclusive,
    never a proof of impossibility.
    """
    comps = u.support.connected_components()
    notes = []
    if len(comps) > 1:
        notes.append(
            f"{len(comps)} support components realized independently; "
            "cross-component overlaps are unconstrained"
        )
    vecs = _potential(u, comps)
    residual = _phase_residual(vecs, u)
    note = "coherent phase data; realized by rephasing a single base state"
    if residual > cfg.realize_tol:
        vecs = np.repeat([[1.0 + 0.0j, 0.0j]], u.n, axis=0)
        total_restarts = 0
        for ci, comp in enumerate(comps):
            if len(comp) > 1:
                rng = np.random.default_rng([cfg.seed, ci])
                vecs[comp], used = _search_component(_restrict(u, comp), cfg, rng)
                total_restarts += used
        residual = _phase_residual(vecs, u)
        note = f"local search succeeded after {total_restarts} restart(s)"
    if residual <= cfg.realize_tol:
        notes.append(note)
        return RealizabilityResult(REALIZABLE, _family(vecs), residual, "; ".join(notes))
    notes.append(
        f"local search exhausted its restarts; best residual {residual:.3e}; "
        "an unsuccessful search is not a proof that the phases are unrealizable"
    )
    return RealizabilityResult(SEARCH_FAILED, None, residual, "; ".join(notes))
