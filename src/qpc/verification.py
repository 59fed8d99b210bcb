"""Registered cross-checks between the main code paths and the oracles.

Each property draws seeded random instances, evaluates a claimed
identity along two independent routes, and reports the worst
discrepancy as an OracleReport.  run_all drives every registered
property with a shared seed, deterministically.
"""

from __future__ import annotations

import cmath
from itertools import combinations

import numpy as np

from . import comparisons, invariants, realizability, states
from .oracles import OracleReport, oracle_bargmann_direct, oracle_pauli_traces, oracle_trace_product


def _family_with_support(rng: np.random.Generator, n: int, min_overlap: float = 1e-6):
    """Random family whose pairwise overlaps all exceed min_overlap."""
    while True:
        fam = states.random_family(n, rng)
        g = comparisons.gram(fam)
        off = np.abs(g.entries[~np.eye(n, dtype=bool)])
        if off.min() > min_overlap:
            return fam, g


def _prop_pauli(cases: int, rng: np.random.Generator) -> OracleReport:
    return oracle_pauli_traces()


def _prop_bargmann_direct(cases: int, rng: np.random.Generator) -> OracleReport:
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(3, 9))
        fam, g = _family_with_support(rng, n)
        i, j, k = rng.choice(n, size=3, replace=False)
        main = invariants.bargmann(g, int(i), int(j), int(k))
        worst = max(worst, abs(main - oracle_bargmann_direct(fam, int(i), int(j), int(k))))
    return OracleReport("bargmann_matches_componentwise_oracle", cases, worst, 1e-12)


def _prop_bargmann_trace(cases: int, rng: np.random.Generator) -> OracleReport:
    worst = 0.0
    for _ in range(cases):
        fam, g = _family_with_support(rng, 3)
        main = invariants.bargmann(g, 0, 1, 2)
        worst = max(worst, abs(main - oracle_trace_product(fam, 0, 1, 2)))
    return OracleReport("bargmann_matches_projector_trace_oracle", cases, worst, 1e-12)


def _prop_defect_normalized(cases: int, rng: np.random.Generator) -> OracleReport:
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(3, 9))
        fam, g = _family_with_support(rng, n)
        u = comparisons.phases(g)
        for rep in invariants.all_triangles(g):
            i, j, k = rep.triple
            kappa = invariants.defect(u, i, j, k)
            b = invariants.bargmann(g, i, j, k)
            worst = max(worst, abs(kappa - b / abs(b)))
    return OracleReport("defect_equals_normalized_bargmann", cases, worst, 1e-12)


def _prop_probability_bloch(cases: int, rng: np.random.Generator) -> OracleReport:
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 9))
        fam = states.random_family(n, rng)
        p = comparisons.probabilities(comparisons.gram(fam)).entries
        bloch = np.array([states.to_bloch(s).vector for s in fam.states])
        predicted = (1.0 + bloch @ bloch.T) / 2.0
        worst = max(worst, float(np.max(np.abs(p - predicted))))
    return OracleReport("probability_matches_bloch_dot_formula", cases, worst, 1e-12)


def _prop_bargmann_bloch(cases: int, rng: np.random.Generator) -> OracleReport:
    worst = 0.0
    for _ in range(cases):
        fam = states.random_family(3, rng)
        g = comparisons.gram(fam)
        ns = [states.to_bloch(s) for s in fam.states]
        main = invariants.bargmann(g, 0, 1, 2)
        worst = max(worst, abs(main - invariants.bargmann_bloch(*ns)))
    return OracleReport("bargmann_matches_bloch_formula", cases, worst, 1e-12)


def _prop_solid_angle(cases: int, rng: np.random.Generator) -> OracleReport:
    worst = 0.0
    for _ in range(cases):
        fam, g = _family_with_support(rng, 3)
        rep = invariants.triangle_report(g, 0, 1, 2)
        ns = [states.to_bloch(s) for s in fam.states]
        omega = invariants.solid_angle(*ns)
        worst = max(worst, abs(cmath.exp(-0.5j * omega) - rep.defect))
    return OracleReport("defect_equals_solid_angle_exponential", cases, worst, 1e-9)


def _prop_rephasing_invariance(cases: int, rng: np.random.Generator) -> OracleReport:
    worst = 0.0
    for _ in range(cases):
        fam, g = _family_with_support(rng, 3)
        before = invariants.bargmann(g, 0, 1, 2)
        rephased = states.StateFamily(
            tuple(s.rephased(float(t)) for s, t in zip(fam.states, rng.uniform(0, 2 * np.pi, 3)))
        )
        after = invariants.bargmann(comparisons.gram(rephased), 0, 1, 2)
        worst = max(worst, abs(before - after))
    return OracleReport("bargmann_rephasing_invariance", cases, worst, 1e-12)


def _prop_phase_covariance(cases: int, rng: np.random.Generator) -> OracleReport:
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 7))
        fam, g = _family_with_support(rng, n)
        u = comparisons.phases(g)
        thetas = rng.uniform(0, 2 * np.pi, n)
        rephased = states.StateFamily(
            tuple(s.rephased(float(t)) for s, t in zip(fam.states, thetas))
        )
        u2 = comparisons.phases(comparisons.gram(rephased))
        for i, j in u.support.edges:
            expected = cmath.exp(1j * (thetas[j] - thetas[i])) * u.entries[i, j]
            worst = max(worst, abs(u2.entries[i, j] - expected))
    return OracleReport("phase_matrix_rephasing_covariance", cases, worst, 1e-12)


def _prop_orthogonality_matching(cases: int, rng: np.random.Generator) -> OracleReport:
    violations = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 9))
        fam = states.random_family(n, rng)
        distinct = all(
            not states.rays_equal(fam[i], fam[j], 1e-9)
            for i in range(n)
            for j in range(i + 1, n)
        )
        if not distinct:
            continue
        og = comparisons.orthogonality_graph(comparisons.gram(fam))
        if not comparisons.check_matching(og):
            violations += 1.0
    return OracleReport("orthogonality_graph_is_matching", cases, violations, 0.0)


def _prop_factorization(cases: int, rng: np.random.Generator) -> OracleReport:
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 11))
        fam = states.random_family(n, rng)
        g = comparisons.gram(fam)
        rebuilt = comparisons.gram(realizability.factor_states(g))
        worst = max(worst, float(np.max(np.abs(rebuilt.entries - g.entries))))
    return OracleReport("gram_factorization_round_trip", cases, worst, 1e-9)


def _prop_bloch_round_trip(cases: int, rng: np.random.Generator) -> OracleReport:
    worst = 0.0
    for _ in range(cases):
        s = states.random_state(rng)
        n = states.to_bloch(s)
        worst = max(
            worst,
            float(np.max(np.abs(states.to_bloch(states.from_bloch(n)).vector - n.vector))),
        )
        if not states.rays_equal(states.from_bloch(n), s, 1e-9):
            worst = max(worst, 1.0)
    return OracleReport("bloch_round_trip", cases, worst, 1e-9)


def _prop_coherent_realization(cases: int, rng: np.random.Generator) -> OracleReport:
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 13))
        lam = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        values = {
            (i, j): lam[i] * lam[j].conjugate()
            for i in range(n)
            for j in range(i + 1, n)
        }
        u = comparisons.PhaseMatrix.from_edges(n, values)
        fam = realizability.realize_coherent(u)
        realized = comparisons.phases(comparisons.gram(fam))
        for i, j in u.support.edges:
            worst = max(worst, abs(realized.entries[i, j] - u.entries[i, j]))
        for i in range(1, n):
            if not states.rays_equal(fam[0], fam[i], 1e-9):
                worst = max(worst, 1.0)
    return OracleReport("coherent_realization_single_ray", cases, worst, 1e-9)


def _prop_permutation(cases: int, rng: np.random.Generator) -> OracleReport:
    worst = 0.0
    for _ in range(cases):
        fam, g = _family_with_support(rng, 3)
        b = invariants.bargmann(g, 0, 1, 2)
        worst = max(worst, abs(invariants.bargmann(g, 1, 2, 0) - b))
        worst = max(worst, abs(invariants.bargmann(g, 0, 2, 1) - b.conjugate()))
    return OracleReport("bargmann_permutation_symmetry", cases, worst, 1e-12)


def _prop_ray_independence(cases: int, rng: np.random.Generator) -> OracleReport:
    worst = 0.0
    for _ in range(cases):
        fam, g = _family_with_support(rng, 3)
        rep = invariants.triangle_report(g, 0, 1, 2)
        rephased = states.StateFamily(
            tuple(s.rephased(float(t)) for s, t in zip(fam.states, rng.uniform(0, 2 * np.pi, 3)))
        )
        rep2 = invariants.triangle_report(comparisons.gram(rephased), 0, 1, 2)
        worst = max(worst, abs(rep.defect - rep2.defect))
        worst = max(worst, abs(rep.pancharatnam - rep2.pancharatnam))
    return OracleReport("triangle_report_ray_independence", cases, worst, 1e-12)


def _prop_purity(cases: int, rng: np.random.Generator) -> OracleReport:
    worst = 0.0
    for _ in range(cases):
        s = states.random_state(rng)
        n = states.to_bloch(s)
        rho = 0.5 * (
            np.eye(2, dtype=complex)
            + n.nx * states.SIGMA_X
            + n.ny * states.SIGMA_Y
            + n.nz * states.SIGMA_Z
        )
        worst = max(worst, abs(np.trace(rho) - 1.0))
        worst = max(worst, abs(np.trace(rho @ rho) - 1.0))
        worst = max(worst, float(np.max(np.abs(rho - states.projector(s)))))
    return OracleReport("bloch_projector_purity", cases, worst, 1e-12)


def _prop_reciprocity(cases: int, rng: np.random.Generator) -> OracleReport:
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(2, 9))
        fam, g = _family_with_support(rng, n)
        u = comparisons.phases(g)
        for i, j in u.support.edges:
            worst = max(worst, abs(u.entries[i, j] * u.entries[j, i] - 1.0))
    return OracleReport("phase_reciprocity", cases, worst, 1e-12)


def _prop_triangle_kernel(cases: int, rng: np.random.Generator) -> OracleReport:
    mismatches = 0.0
    for _ in range(cases):
        n = int(rng.integers(3, 9))
        vecs = states.random_family(n, rng).vectors
        if rng.random() < 0.5:  # an orthogonal pair, so that some triples are skipped
            vecs[1] = (-vecs[0, 1].conjugate(), vecs[0, 0].conjugate())
        g = comparisons.gram(states.StateFamily(tuple(states.QubitState(*v) for v in vecs)))
        reference = [
            invariants.triangle_report(g, *t)
            for t in combinations(range(n), 3)
            if min(abs(g.entries[a, b]) for a, b in combinations(t, 2))
            > comparisons.DEFAULT_ZERO_TOL
        ]
        mismatches += invariants.all_triangles(g) != reference
    return OracleReport("triangle_kernel_matches_triangle_report", cases, mismatches, 0.0)


PROPERTIES = [
    _prop_pauli,
    _prop_bargmann_direct,
    _prop_bargmann_trace,
    _prop_defect_normalized,
    _prop_probability_bloch,
    _prop_bargmann_bloch,
    _prop_solid_angle,
    _prop_rephasing_invariance,
    _prop_phase_covariance,
    _prop_orthogonality_matching,
    _prop_factorization,
    _prop_bloch_round_trip,
    _prop_coherent_realization,
    _prop_permutation,
    _prop_ray_independence,
    _prop_purity,
    _prop_reciprocity,
    _prop_triangle_kernel,
]


def run_all(cases: int, seed: int) -> list[OracleReport]:
    """Run every registered property with its own seeded stream."""
    if cases < 1:
        raise ValueError(f"cases must be positive, got {cases}")
    reports = []
    for idx, prop in enumerate(PROPERTIES):
        rng = np.random.default_rng([seed, idx])
        reports.append(prop(cases, rng))
    return reports
