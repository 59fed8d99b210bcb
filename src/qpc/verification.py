"""Registered cross-checks between the main code paths and the oracles.

Each property evaluates a claimed identity along two independent routes
on seeded random instances and reports the worst discrepancy as an
OracleReport.  run_all drives every registered property with a shared
seed, in order and in this process: property idx draws from the stream
np.random.default_rng([seed, idx]), so each report depends only on the
seed, the case count and the property's place.

To add a property, write one case function that draws a single instance
from the generator it is given and returns that instance's discrepancy
as a float, and register it with @_property(name, tolerance) below the
last registered case.  Appending keeps the seed streams of all earlier
properties, so their reports do not change.  The shared driver runs the
cases and takes their maximum; a NaN discrepancy propagates into the
report and fails it.  The report also names the first case over the
tolerance or NaN, as measured in the same run.
"""

from __future__ import annotations

import cmath
from itertools import combinations

import numpy as np
from numpy.random import default_rng  # numpy loads it on first use, which is here

from . import comparisons, invariants, realizability, states
from .oracles import (OracleReport, _largest_minor, oracle_bargmann_direct, oracle_pauli_traces,
                      oracle_trace_product)


def _worst(discrepancies) -> float:
    """Largest discrepancy, 0 for none; NaN if any of them is NaN."""
    return float(np.max([0.0, *discrepancies]))


def _prop_pauli(cases: int, rng: np.random.Generator) -> OracleReport:
    """The 36 fixed Pauli trace identities; nothing is sampled."""
    return oracle_pauli_traces()


PROPERTIES = [_prop_pauli]


def _property(name: str, tolerance: float):
    """Register a one-case check as the next property of PROPERTIES."""

    def register(case):
        def prop(cases: int, rng: np.random.Generator) -> OracleReport:
            ds = [case(rng) for _ in range(cases)]
            first = next((k for k, d in enumerate(ds) if not d <= tolerance), None)
            return OracleReport(name, cases, _worst(ds), tolerance, first)

        PROPERTIES.append(prop)
        return case

    return register


def _family_with_support(rng: np.random.Generator, n: int, min_overlap: float = 1e-6):
    """Random family whose pairwise overlaps all exceed min_overlap."""
    while True:
        fam = states.random_family(n, rng)
        g = comparisons.gram(fam)
        off = comparisons.moduli(g.entries[~np.eye(n, dtype=bool)])
        if off.min() > min_overlap:
            return fam, g


def _rephased(family: states.StateFamily, thetas) -> states.StateFamily:
    """The family with state i multiplied by exp(i thetas[i])."""
    return states.StateFamily(tuple(s.rephased(float(t)) for s, t in zip(family.states, thetas)))


@_property("bargmann_matches_componentwise_oracle", 1e-12)
def _bargmann_direct(rng: np.random.Generator) -> float:
    n = int(rng.integers(3, 9))
    fam, g = _family_with_support(rng, n)
    i, j, k = (int(v) for v in rng.choice(n, size=3, replace=False))
    return abs(invariants.bargmann(g, i, j, k) - oracle_bargmann_direct(fam, i, j, k))


@_property("bargmann_matches_projector_trace_oracle", 1e-12)
def _bargmann_trace(rng: np.random.Generator) -> float:
    fam, g = _family_with_support(rng, 3)
    return abs(invariants.bargmann(g, 0, 1, 2) - oracle_trace_product(fam, 0, 1, 2))


@_property("defect_equals_normalized_bargmann", 1e-12)
def _defect_normalized(rng: np.random.Generator) -> float:
    n = int(rng.integers(3, 9))
    _, g = _family_with_support(rng, n)
    u = comparisons.phases(g)
    ds = []
    for rep in invariants.all_triangles(g):
        i, j, k = rep.triple
        b = invariants.bargmann(g, i, j, k)
        ds.append(abs(invariants.defect(u, i, j, k) - b / abs(b)))
    return _worst(ds)


@_property("probability_matches_bloch_dot_formula", 1e-12)
def _probability_bloch(rng: np.random.Generator) -> float:
    n = int(rng.integers(2, 9))
    fam = states.random_family(n, rng)
    p = comparisons.probabilities(comparisons.gram(fam)).entries
    b = np.array([states.to_bloch(s).vector for s in fam.states])
    # the dot products written out, so that no BLAS kernel rounds them
    dots = b[:, None, 0] * b[:, 0] + b[:, None, 1] * b[:, 1] + b[:, None, 2] * b[:, 2]
    return float(np.max(np.abs(p - (1.0 + dots) / 2.0)))


@_property("bargmann_matches_bloch_formula", 1e-12)
def _bargmann_bloch(rng: np.random.Generator) -> float:
    fam = states.random_family(3, rng)
    main = invariants.bargmann(comparisons.gram(fam), 0, 1, 2)
    return abs(main - invariants.bargmann_bloch(*(states.to_bloch(s) for s in fam.states)))


@_property("defect_equals_solid_angle_exponential", 1e-9)
def _solid_angle(rng: np.random.Generator) -> float:
    fam, g = _family_with_support(rng, 3)
    omega = invariants.solid_angle(*(states.to_bloch(s) for s in fam.states))
    return abs(cmath.exp(-0.5j * omega) - invariants.triangle_report(g, 0, 1, 2).defect)


@_property("bargmann_rephasing_invariance", 1e-12)
def _rephasing_invariance(rng: np.random.Generator) -> float:
    fam, g = _family_with_support(rng, 3)
    after = comparisons.gram(_rephased(fam, rng.uniform(0, 2 * np.pi, 3)))
    return abs(invariants.bargmann(g, 0, 1, 2) - invariants.bargmann(after, 0, 1, 2))


@_property("phase_matrix_rephasing_covariance", 1e-12)
def _phase_covariance(rng: np.random.Generator) -> float:
    n = int(rng.integers(2, 7))
    fam, g = _family_with_support(rng, n)
    u = comparisons.phases(g)
    thetas = rng.uniform(0, 2 * np.pi, n)
    u2 = comparisons.phases(comparisons.gram(_rephased(fam, thetas)))
    # products part-wise (comparisons._mul), so each discrepancy keeps the
    # bits of the scalar complex arithmetic the report has always printed
    i, j = u.support.pairs
    rotated = comparisons._mul(np.exp(1j * (thetas[j] - thetas[i])), u.entries[i, j])
    return _worst(comparisons.moduli(u2.entries[i, j] - rotated))


@_property("orthogonality_graph_is_matching", 0.0)
def _orthogonality_matching(rng: np.random.Generator) -> float:
    """1 for a family of distinct rays whose orthogonality graph is no matching."""
    n = int(rng.integers(2, 9))
    fam = states.random_family(n, rng)
    if any(states.rays_equal(fam[i], fam[j], 1e-9) for i, j in combinations(range(n), 2)):
        return 0.0
    og = comparisons.orthogonality_graph(comparisons.gram(fam))
    return float(not comparisons.check_matching(og))


@_property("gram_factorization_round_trip", 1e-9)
def _factorization(rng: np.random.Generator) -> float:
    n = int(rng.integers(2, 11))
    g = comparisons.gram(states.random_family(n, rng))
    rebuilt = comparisons.gram(realizability.factor_states(g))
    return float(np.max(comparisons.moduli(rebuilt.entries - g.entries)))


@_property("bloch_round_trip", 1e-9)
def _bloch_round_trip(rng: np.random.Generator) -> float:
    s = states.random_state(rng)
    n = states.to_bloch(s)
    back = states.from_bloch(n)
    dev = float(np.max(np.abs(states.to_bloch(back).vector - n.vector)))
    return _worst([dev, float(not states.rays_equal(back, s, 1e-9))])


@_property("coherent_realization_single_ray", 1e-9)
def _coherent_realization(rng: np.random.Generator) -> float:
    n = int(rng.integers(2, 13))
    lam = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    values = {(i, j): lam[i] * lam[j].conjugate() for i, j in combinations(range(n), 2)}
    u = comparisons.PhaseMatrix.from_edges(n, values)
    fam = realizability.realize_coherent(u)
    realized = comparisons.phases(comparisons.gram(fam))
    i, j = u.support.pairs
    ds = [*comparisons.moduli(realized.entries[i, j] - u.entries[i, j])]
    ds += [float(not states.rays_equal(fam[0], fam[k], 1e-9)) for k in range(1, n)]
    return _worst(ds)


@_property("bargmann_permutation_symmetry", 1e-12)
def _permutation(rng: np.random.Generator) -> float:
    _, g = _family_with_support(rng, 3)
    b = invariants.bargmann(g, 0, 1, 2)
    cyclic = abs(invariants.bargmann(g, 1, 2, 0) - b)
    reversed_ = abs(invariants.bargmann(g, 0, 2, 1) - b.conjugate())
    return _worst([cyclic, reversed_])


@_property("triangle_report_ray_independence", 1e-12)
def _ray_independence(rng: np.random.Generator) -> float:
    fam, g = _family_with_support(rng, 3)
    rep = invariants.triangle_report(g, 0, 1, 2)
    after = comparisons.gram(_rephased(fam, rng.uniform(0, 2 * np.pi, 3)))
    rep2 = invariants.triangle_report(after, 0, 1, 2)
    return _worst([abs(rep.defect - rep2.defect), abs(rep.pancharatnam - rep2.pancharatnam)])


@_property("bloch_projector_purity", 1e-12)
def _purity(rng: np.random.Generator) -> float:
    s = states.random_state(rng)
    n = states.to_bloch(s)
    rho = 0.5 * (
        np.eye(2, dtype=complex)
        + n.nx * states.SIGMA_X
        + n.ny * states.SIGMA_Y
        + n.nz * states.SIGMA_Z
    )
    r = rho.tolist()
    # tr(rho rho) written out, so that no BLAS kernel rounds it
    purity = sum(r[a][b] * r[b][a] for a in range(2) for b in range(2))
    return _worst([
        abs(r[0][0] + r[1][1] - 1.0),
        abs(purity - 1.0),
        float(np.max(comparisons.moduli(rho - states.projector(s)))),
    ])


@_property("phase_reciprocity", 1e-12)
def _reciprocity(rng: np.random.Generator) -> float:
    n = int(rng.integers(2, 9))
    _, g = _family_with_support(rng, n)
    u = comparisons.phases(g)
    i, j = u.support.pairs
    return _worst(comparisons.moduli(comparisons._mul(u.entries[i, j], u.entries[j, i]) - 1.0))


@_property("triangle_kernel_matches_triangle_report", 0.0)
def _triangle_kernel(rng: np.random.Generator) -> float:
    """1 when all_triangles differs from triangle_report on any supported triple."""
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
    return float(list(invariants.all_triangles(g)) != reference)


def _worst_triangle(u: comparisons.PhaseMatrix) -> float:
    """Largest |u_ij u_jk u_ki - 1| over the support triangles, 0.0 without any."""
    triples = invariants.Triples(u.support.mask)
    kappa = invariants.cycle_products(u.entries, triples.rows(range(len(triples))))
    return float(comparisons.moduli(kappa - 1.0).max(initial=0.0))


@_property("potential_residual_brackets_worst_triangle", 1e-12)
def _potential_vs_triangles(rng: np.random.Generator) -> float:
    """How far res <= worst <= 3 res fails on a complete support, with res
    the phase residual of the rephasing potential's single-ray family and
    worst the largest |kappa - 1| over all triangles.  The potential is
    rooted at state 0, so res is the worst triangle through state 0, and
    every kappa_ijk is the product of three of those."""
    n = int(rng.integers(2, 13))
    # coherent, eps-perturbed, or uniformly random (a perturbation of up to pi)
    eps = [0.0, 10.0 ** rng.uniform(-12.0, -2.0), np.pi][int(rng.integers(3))]
    lam = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    values = {
        (i, j): lam[i] * lam[j].conjugate() * np.exp(1j * eps * rng.uniform(-1.0, 1.0))
        for i, j in combinations(range(n), 2)
    }
    u = comparisons.PhaseMatrix.from_edges(n, values)
    res = realizability._phase_residual(realizability._potential(u, [list(range(n))]), u)
    worst = _worst_triangle(u)
    return max(0.0, res - worst, worst - 3.0 * res)


@_property("pivot_test_accepts_qubit_grams_only", 0.0)
def _pivot_test(rng: np.random.Generator) -> float:
    """1 when factor_states' pivot test, without check_gram, refuses the Gram
    matrix of qubit states or accepts a matrix with a 3 x 3 principal minor
    above 1e-8, such as the Gram matrix of qutrit states in general."""
    n, dim = int(rng.integers(3, 11)), int(rng.integers(2, 4))
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    v = z / np.sqrt(np.sum(z.real * z.real + z.imag * z.imag, axis=1))[:, None]
    # g_ij = sum_k conj(v_ik) v_jk, written out, so that no BLAS kernel rounds it
    g = sum(comparisons._mul(v[:, None, k].conj(), v[None, :, k]) for k in range(dim))
    accepted = realizability._pivot_factor(g)[2]
    if dim == 2:
        return float(not accepted)
    return float(accepted and _largest_minor(g.tolist()) > 1e-8)


def run_all(cases: int, seed: int) -> list[OracleReport]:
    """Run every registered property with its own seeded stream, in
    order; a property that raises raises here, in its turn."""
    if cases < 1:
        raise ValueError(f"cases must be positive, got {cases}")
    return [prop(cases, default_rng([seed, idx])) for idx, prop in enumerate(PROPERTIES)]
