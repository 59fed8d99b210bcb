"""Realizability of prescribed comparison data by qubit states.

A complex matrix is the overlap matrix of some family of qubit states
exactly when it is Hermitian with unit diagonal, positive semidefinite,
and of rank at most two.  check_gram judges the four conditions and
factor_states reconstructs a witness family from two pivot columns, two
steps of diagonal-pivoted Cholesky (Higham 1990).  Both take a
GramMatrix or a raw finite square array.  check_gram is the one judge:
factor_states raises GramRefusal, carrying its verdict on the matrix as
given, exactly when it fails, and realize_gram then answers
not_realizable with that verdict as evidence, its proof.

For phase-level data the full matrix is not available, only unit phases
on the support graph.  Coherent prescriptions, u_ij = lam_i conj(lam_j)
for some unit numbers lam, are realized exactly by rephasing copies of
a single base state.  is_coherent, realize_coherent and realize_phases
all decide coherence by one test at one tolerance, REALIZE_TOL unless
the caller names another: lam is propagated over a spanning forest of
the support, and the single-ray family it gives is accepted when its
phase residual, the chordal distance checked on every support edge,
meets the tolerance.  So every loop of the support is judged, not only
its triangles.  Other
prescriptions are attacked by a seeded multi-start local search whose
unknowns are the (n, 2) amplitude rows, unnormalized and not gauge-fixed,
since the phases see neither a row's length nor a unitary acting on all
rows; a successful search returns a certificate family, while an
unsuccessful one is inconclusive.  least_squares, a
Levenberg-Marquardt loop in numpy, is the search's one solver entry
point, so the search needs nothing beyond numpy.  realize_gram and
realize_phases return a RealizabilityResult.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import comparisons
from .comparisons import (GramMatrix, PhaseMatrix, SupportGraph, _mul, deviations, moduli, overlaps,
                          require_square)
from .states import QubitState, StateFamily, _is_integer, _match_tol, random_family

PSD_TOL = 1e-10        # eigenvalue floor, relative to max(1, largest eigenvalue)
RANK_TOL = 1e-10       # eigenvalues below this fraction of the largest are noise
HERMITIAN_TOL = 1e-10  # verdict tolerance for Hermiticity
UNIT_DIAG_TOL = 1e-10  # verdict tolerance for the diagonal
REALIZE_TOL = 1e-7     # per-edge phase mismatch accepted as realized
SOFT_FLOOR = 1e-6      # overlap modulus below which the search residual stops normalizing
LM_TOL = 1e-15         # least_squares' floor on step length, gradient and residual norm
MU_START = 1e-3        # least_squares' first damping, relative to the scaling D
MU_MAX = 1e16          # damping past which least_squares stops: its steps are negligible
STALL_WINDOW = 50      # evaluations over which least_squares measures its progress
STALL_FRACTION = 0.01  # least_squares stops once the cost fell by less than this over the window

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
    """Knobs of the multi-start phase-realization search.

    max_iters is the number of residual evaluations each restart may
    spend, the one at its starting point included.
    """

    restarts: int = 32
    max_iters: int = 500
    seed: int = 0
    realize_tol: float = REALIZE_TOL

    def __post_init__(self) -> None:
        for name, least in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_integer(type(value)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                rule = "positive" if least else "non-negative"
                raise ValueError(f"{name} must be {rule}, got {value}")
        _match_tol(self.realize_tol, "realize_tol")


@dataclass(frozen=True)
class RealizabilityResult:
    """Verdict of a realization attempt.

    realizable needs a certificate, and not_realizable a proof: a failed
    GramVerdict in evidence.  residual is max |gram(certificate) - a| for
    a gram matrix a, and the largest per-edge chordal distance between
    the certificate's phases and a phase prescription; for search_failed
    it refers to the best candidate found, for not_realizable it is the
    evidence's worst violation.
    """

    status: str
    certificate: StateFamily | None
    residual: float
    diagnostics: str
    evidence: GramVerdict | None = None

    def __post_init__(self) -> None:
        if self.status not in (REALIZABLE, NOT_REALIZABLE, SEARCH_FAILED):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == REALIZABLE and self.certificate is None:
            raise ValueError("a realizable verdict requires a certificate")
        proved = isinstance(self.evidence, GramVerdict) and not self.evidence.all_ok
        if self.status == NOT_REALIZABLE and not proved:
            raise ValueError("a not_realizable verdict requires a failed GramVerdict as evidence")


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
    # eigvalsh: the verdict needs no eigenvectors, and eigh cost 1.7 times
    # as much at n = 8, 2.2 times at n = 200 and 3.7 to 3.8 times at
    # n = 1000 (one BLAS thread of a 2-vCPU x86-64 host).  factor_states
    # takes its factor from two pivot columns, so this is the one
    # decomposition of check and of the gram route of realize, and both
    # judge by these eigenvalues (see tests/test_cli.py, TestRealize's
    # test_realizes_a_matrix_near_the_thresholds_that_check_accepts).
    eigs = np.linalg.eigvalsh(hermitian_part(a))[::-1]
    if not np.isfinite(eigs).all():
        raise ValueError("eigenvalues are not finite: the matrix overflows the eigensolver")
    herm_dev, diag_dev = deviations(a)
    lam_max, lam_min = float(eigs[0]), float(eigs[-1])
    rank_estimate = int(np.sum(eigs > RANK_TOL * max(lam_max, 0.0)))
    # (deviation, holds) of each condition, in verdict order; the rank
    # condition fails only on a third eigenvalue above 0
    conditions = [
        (herm_dev, herm_dev <= HERMITIAN_TOL),
        (diag_dev, diag_dev <= UNIT_DIAG_TOL),
        (-lam_min, lam_min >= -PSD_TOL * max(1.0, lam_max)),
        (float(eigs[2]) if len(eigs) > 2 else 0.0, rank_estimate <= 2),
    ]
    return GramVerdict(
        *(ok for _, ok in conditions),
        eigenvalues=tuple(float(x) for x in eigs),
        rank_estimate=rank_estimate,
        worst_violation=max((dev for dev, ok in conditions if not ok), default=0.0),
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
        super().__init__(f"{_refused(verdict)}; worst violation {verdict.worst_violation!r}")
        self.verdict = verdict


def _refused(verdict: GramVerdict) -> str:
    """The conditions a failed verdict names, as one line."""
    return f"matrix is not a qubit Gram matrix: failed {', '.join(verdict.failed_conditions())}"


def factor_states(g) -> StateFamily:
    """Reconstruct a state family whose Gram matrix is g.

    Accepts what check_gram accepts: a GramMatrix or a raw finite square
    array, refused with GramRefusal unless check_gram's verdict on it
    holds.  The factor then takes two steps of diagonal-pivoted Cholesky
    on the Hermitian part H: the first column is H[:, p] / sqrt(h_pp) at
    the largest diagonal entry p, the second is the same step on the
    updated diagonal and H less the first column's outer product, and it
    is zero where the verdict's rank estimate is below 2 or no updated
    diagonal entry is positive, as an indefinite H within the verdict's
    slack may leave it.  State i gets the conjugated entries i of the two
    columns, renormalized.  Every step is elementwise real arithmetic
    (comparisons._mul and moduli), so no BLAS kernel or SIMD loop decides
    a bit.  The family reproduces g up to the slack the verdict allows
    off rank 2 and off the unit diagonal.
    """
    a = _matrix(g)
    # looked up on the module, so perfbench's check_gram hook sees the call
    verdict = check_gram(a)
    if not verdict.all_ok:
        raise GramRefusal(verdict)
    h = hermitian_part(a)
    d = h.diagonal().real
    p = int(np.argmax(d))
    c1 = _divided(h[:, p], math.sqrt(d[p]))
    c2 = np.zeros(len(a), dtype=complex)
    d = d - (c1.real * c1.real + c1.imag * c1.imag)
    q = int(np.argmax(d))
    if verdict.rank_estimate >= 2 and d[q] > 0.0:
        c2 = _divided(h[:, q] - _mul(c1, c1[q].conjugate()), math.sqrt(d[q]))
    norms = np.hypot(moduli(c1), moduli(c2))
    if np.min(norms) < 0.5:
        raise ArithmeticError("factorization produced a near-zero state")
    return _family(np.column_stack([_divided(c1.conj(), norms), _divided(c2.conj(), norms)]))


def _divided(z: np.ndarray, s) -> np.ndarray:
    """z / s for a real scalar s or real array s of z's shape, divided part
    by part as real division rounds."""
    out = np.empty(z.shape, dtype=complex)
    out.real, out.imag = z.real / s, z.imag / s
    return out


def realize_gram(g) -> RealizabilityResult:
    """factor_states(g) as a certificate, with the residual measured
    against the matrix as given; where check_gram refuses g, not_realizable
    with the GramRefusal's verdict as evidence, its failed conditions as
    diagnostics and its worst violation as residual."""
    a = _matrix(g)
    try:
        family = factor_states(a)
    except GramRefusal as refusal:
        v = refusal.verdict
        return RealizabilityResult(NOT_REALIZABLE, None, v.worst_violation, _refused(v), v)
    # looked up on the module, so perfbench's comparisons.gram hook sees the call
    residual = float(np.max(moduli(comparisons.gram(family).entries - a)))
    return RealizabilityResult(REALIZABLE, family, residual, "factored from two pivot columns")


def _family(vecs: np.ndarray) -> StateFamily:
    """The family whose amplitudes are the rows of an (n, 2) array."""
    return StateFamily(tuple(QubitState(v[0], v[1]) for v in vecs))


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
    lam = lam / moduli(lam)
    return np.column_stack([lam.conj(), np.zeros(u.n, dtype=complex)])


def is_coherent(u: PhaseMatrix, tol: float) -> bool:
    """Whether the single-ray family of the rephasing potential realizes
    every support edge's phase within tol, a chordal distance: the test
    realize_coherent and realize_phases' shortcut apply.  Every loop of
    the support counts, triangle or not."""
    return _phase_residual(_potential(u, u.support.connected_components()), u) <= _match_tol(tol)


def realize_coherent(u: PhaseMatrix, tol: float = REALIZE_TOL) -> StateFamily:
    """Realize a coherent phase prescription on a single ray.

    Phases of a rank-1 family split as u_ij = lam_i / lam_j, with lam the
    rephasing potential of the support, rooted in each component.  The
    states returned are conj(lam_i) times a fixed base state, accepted
    only when every support edge's phase is realized within tol:
    is_coherent's rule, which realize_phases applies with cfg.realize_tol,
    by default the same REALIZE_TOL.
    """
    vecs = _potential(u, u.support.connected_components())
    i, j, dev = _edge_distances(vecs, u)
    if not dev.max(initial=0.0) <= _match_tol(tol):
        e = int(np.argmax(dev))
        raise ValueError(
            "phase matrix is not coherent: no consistent rephasing potential "
            f"realizes edge ({i[e]}, {j[e]}) within {tol!r}; its phase misses by {float(dev[e])!r}"
        )
    return _family(vecs)


def _residuals(x, idx_i, idx_j, targets):
    """Stacked real residual vector of the smooth per-edge terms.

    x holds the amplitude rows, unnormalized, as real numbers: the rows
    are x.view(complex).reshape(-1, 2).  Each support edge contributes g_ij / max(|g_ij|, SOFT_FLOOR) - u_ij,
    split into real and imaginary parts; the floor keeps the residual
    smooth through near-orthogonal configurations while still
    penalizing them.  Returns (residuals, jacobian) in the entries of x.
    """
    vecs = x.view(complex).reshape(-1, 2)
    ci, vj = vecs[idx_i].conj(), vecs[idx_j]
    g_e = ci[:, 0] * vj[:, 0] + ci[:, 1] * vj[:, 1]
    m = np.abs(g_e)
    v = g_e / np.maximum(m, SOFT_FLOOR)
    err = v - targets

    # Wirtinger factors of v(g): dv = A dg + B conj(dg), per floor branch.
    m_safe = np.maximum(m, 1e-300)
    a_fac = np.where(m > SOFT_FLOOR, 1.0 / (2.0 * m_safe), 1.0 / SOFT_FLOOR)[:, None, None]
    b_fac = np.where(m > SOFT_FLOOR, -(v**2) / (2.0 * m_safe), 0.0)[:, None, None]

    # g = conj(v_i) . v_j is bilinear: dg / d(Re, Im) of v_i's amplitudes is
    # v_j (1, -i), and of v_j's is conj(v_i) (1, i); i < j on every edge.
    dg = np.stack([vj, ci])[..., None] * np.array([[1.0, -1j], [1.0, 1j]])[:, None, None]
    dv = (a_fac * dg + b_fac * dg.conj()).reshape(2, len(idx_i), 4)
    rows = np.arange(len(idx_i))
    jac = np.zeros((len(idx_i), len(vecs), 4), dtype=complex)
    jac[rows, idx_i] = dv[0]
    jac[rows, idx_j] = dv[1]
    jac = jac.reshape(len(idx_i), -1)
    return np.concatenate([err.real, err.imag]), np.vstack([jac.real, jac.imag])


def _spectral_guess(u: PhaseMatrix) -> np.ndarray:
    """Starting rows (sqrt(l1) conj(q1[i]), sqrt(l2) conj(q2[i])) from the
    top two eigenpairs of the phase matrix, a negative eigenvalue counting
    as 0, normalized, with (1, 0) for a vanishing row.

    Treats the prescription itself as if it were a Gram matrix; for
    realizable data this lands near a feasible family.  A searched
    component has at least two states, so there are two eigenpairs.
    """
    w, q = np.linalg.eigh(u.entries)
    vecs = np.column_stack([math.sqrt(max(float(w[-k]), 0.0)) * q[:, -k].conj() for k in (1, 2)])
    norms = np.linalg.norm(vecs, axis=1)[:, None]
    zero = norms < 1e-9
    return np.where(zero, [1.0, 0.0], vecs / np.where(zero, 1.0, norms))


def _edge_distances(vecs: np.ndarray, u: PhaseMatrix):
    """(i, j, d): the support edges i < j and, per edge, the chordal
    distance between the phase the amplitude rows realize and the one
    prescribed; 2 where the realized overlap vanishes."""
    i, j = u.support.pairs
    g = overlaps(vecs[i], vecs[j])
    m = moduli(g)
    d = np.where(m == 0.0, 2.0, moduli(g / np.where(m == 0.0, 1.0, m) - u.entries[i, j]))
    return i, j, d


def _phase_residual(vecs: np.ndarray, u: PhaseMatrix) -> float:
    """Largest chordal distance between realized and prescribed phases."""
    return float(_edge_distances(vecs, u)[2].max(initial=0.0))


def _restrict(u: PhaseMatrix, comp: list[int]) -> PhaseMatrix:
    sub = np.ix_(comp, comp)
    return PhaseMatrix(len(comp), u.entries[sub], SupportGraph.from_mask(u.support.mask[sub]))


@dataclass(frozen=True)
class LeastSquaresResult:
    """Where least_squares stopped: the point x and the number of
    residual evaluations nfev it spent."""

    x: np.ndarray
    nfev: int


def least_squares(fun, x0: np.ndarray, max_nfev: int) -> LeastSquaresResult:
    """Minimize |r(x)|^2 by Levenberg-Marquardt, from x0.

    fun(x) returns the pair (r, J) of the residual vector and its
    Jacobian, so each trial point costs one evaluation.  Each step solves
    (J'J + mu D) h = -J'r, where D is the running maximum of diag J'J
    (Moré 1978) with 1 for a column that has always been zero, and mu
    follows Nielsen's update (Madsen, Nielsen & Tingleff 2004): on an
    accepted step it shrinks by max(1/3, 1 - (2 rho - 1)^3), rho being
    the actual over the predicted decrease, and on a rejected one it
    grows by nu, which doubles on every rejection in a row; a damped
    system that LAPACK calls singular counts as a rejected step and costs
    no evaluation.  The loop stops once nfev reaches max_nfev, once |r|^2
    or the largest gradient entry falls to LM_TOL^2 or LM_TOL, once a
    step is shorter than LM_TOL (|x| + LM_TOL), once mu passes MU_MAX, or
    once the last STALL_WINDOW evaluations lowered |r|^2 by less than
    STALL_FRACTION of its value before them, a stalled or creeping run.
    It returns the best point evaluated.  x0 is copied into an array of
    the loop's own, so where the caller's x0 sits in memory cannot change
    a bit of the result.
    """
    x = np.array(x0, dtype=float)
    r, jac = fun(x)
    nfev = 1
    cost = r @ r
    # the cost after each of the last STALL_WINDOW + 1 evaluations
    costs = deque([cost], maxlen=STALL_WINDOW + 1)
    scale = np.zeros(len(x))
    mu, nu = MU_START, 2.0
    while nfev < max_nfev and cost > LM_TOL**2 and mu <= MU_MAX:
        if len(costs) > STALL_WINDOW and cost > (1.0 - STALL_FRACTION) * costs[0]:
            break
        a = jac.T @ jac
        g = jac.T @ r
        if np.max(np.abs(g)) <= LM_TOL:
            break
        scale = np.maximum(scale, np.diag(a))
        d = np.where(scale > 0.0, scale, 1.0)
        try:
            h = np.linalg.solve(a + np.diag(mu * d), -g)
        except np.linalg.LinAlgError:
            mu *= nu
            nu *= 2.0
            continue
        if np.linalg.norm(h) <= LM_TOL * (np.linalg.norm(x) + LM_TOL):
            break
        x_new = x + h
        r_new, jac_new = fun(x_new)
        nfev += 1
        cost_new = r_new @ r_new
        actual = cost - cost_new
        # |r|^2 - |r + J h|^2, the decrease the linear model predicts
        predicted = h @ (mu * d * h - g)
        if actual > 0.0 and predicted > 0.0:
            x, r, jac, cost = x_new, r_new, jac_new, cost_new
            # rho = actual / predicted, capped at 1 before it can overflow
            rho = actual / predicted if actual < predicted else 1.0
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
        costs.append(cost)
    return LeastSquaresResult(x, nfev)


def _haar_starts(n: int, seed):
    """The amplitude rows of Haar-random families of n states, one per next(),
    all drawn from the one stream np.random.default_rng(seed), which is made
    at the first next(): a search that never asks for one loads no
    numpy.random.  A Generator as seed is that stream itself."""
    rng = np.random.default_rng(seed)
    while True:
        yield random_family(n, rng).vectors


def _search_component(u: PhaseMatrix, cfg: SearchConfig, seed):
    """Best family found for one connected component.

    The unknowns are the amplitude rows themselves, as one real vector.
    Restart 0 starts from the spectral guess, later restarts from a
    Haar-random family drawn by _haar_starts(u.n, seed); each candidate
    is normalized and then measured, and the best by residual wins, ties
    going to the earlier restart.  Returns (vectors, restarts_used).
    """
    idx_i, idx_j = u.support.pairs
    targets = u.entries[idx_i, idx_j]
    best_vecs, best_res = None, np.inf
    starts = _haar_starts(u.n, seed)

    def fun(x):
        return _residuals(x, idx_i, idx_j, targets)

    for r in range(cfg.restarts):
        x0 = _spectral_guess(u) if r == 0 else next(starts)
        x = least_squares(fun, x0.view(float).ravel(), cfg.max_iters).x
        vecs = x.view(complex).reshape(-1, 2)
        vecs = vecs / np.linalg.norm(vecs, axis=1)[:, None]
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
                vecs[comp], used = _search_component(_restrict(u, comp), cfg, [cfg.seed, ci])
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
