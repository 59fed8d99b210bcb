"""Tests for Gram-matrix judging, factorization, and phase realization."""

import cmath
import math
import re

import numpy as np
import pytest

from qpc import (
    GramMatrix,
    GramRefusal,
    PhaseMatrix,
    QubitState,
    RealizabilityResult,
    SearchConfig,
    StateFamily,
    check_gram,
    factor_states,
    gram,
    is_coherent,
    matrix_to_json,
    phases,
    probabilities,
    random_family,
    realize_coherent,
    realize_gram,
    realize_phases,
    save_text,
)
from qpc import realizability
from qpc.cli import main
from qpc.realizability import (
    COHERENCE_TOL,
    NOT_REALIZABLE,
    REALIZABLE,
    SEARCH_FAILED,
    _edge_distances,
    _free,
    _phase_residual,
    _residuals,
    _restrict,
)
from tests.conftest import SLACK_C, SLACK_D, family_with_support, slack_gram


def potential_phases(angles) -> PhaseMatrix:
    """Complete coherent prescription u_ij = exp(i (a_i - a_j))."""
    n = len(angles)
    values = {
        (i, j): cmath.exp(1j * (angles[i] - angles[j]))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return PhaseMatrix.from_edges(n, values)


def near_coherent_square() -> PhaseMatrix:
    # chordless 4-cycle whose loop product misses 1 by about 5e-7: no
    # triangle to test, and the potential misses edge (2, 3) by that much
    return PhaseMatrix.from_edges(
        4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): cmath.exp(5e-7j)}
    )


def holonomy_square() -> PhaseMatrix:
    # chordless 4-cycle: no triangles, but the loop product is i, so no
    # rephasing potential exists
    return PhaseMatrix.from_edges(
        4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1j}
    )


class TestCheckGram:
    def test_family_gram_passes(self, octant_family):
        v = check_gram(gram(octant_family))
        assert v.all_ok
        assert v.failed_conditions() == []
        assert v.worst_violation == 0.0
        assert v.rank_estimate <= 2
        assert list(v.eigenvalues) == sorted(v.eigenvalues, reverse=True)

    def test_identity_three_fails_on_rank_only(self):
        v = check_gram(np.eye(3, dtype=complex))
        assert v.hermitian_ok and v.unit_diag_ok and v.psd_ok
        assert not v.rank_ok
        assert v.rank_estimate == 3
        assert v.failed_conditions() == ["rank at most 2 (estimated rank 3)"]
        assert v.worst_violation == pytest.approx(1.0, abs=1e-12)

    def test_indefinite_matrix_fails_psd(self):
        v = check_gram(np.array([[1.0, 1.2], [1.2, 1.0]]))
        assert v.hermitian_ok and v.unit_diag_ok
        assert not v.psd_ok
        assert v.worst_violation == pytest.approx(0.2, abs=1e-12)
        assert "positive semidefinite" in v.failed_conditions()

    def test_identity_two_passes_at_rank_two(self):
        v = check_gram(np.eye(2, dtype=complex))
        assert v.all_ok
        assert v.rank_estimate == 2

    def test_non_hermitian_input(self):
        v = check_gram(np.array([[1.0, 1j], [1j, 1.0]]))
        assert not v.hermitian_ok
        assert "hermitian" in v.failed_conditions()

    def test_hermitian_tolerance_boundary(self):
        base = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
        above = base.copy()
        above[0, 1] += 1e-9
        assert not check_gram(above).hermitian_ok
        below = base.copy()
        below[0, 1] += 1e-11
        assert check_gram(below).hermitian_ok

    def test_bad_diagonal(self):
        v = check_gram(np.array([[1.0, 0.0], [0.0, 0.9]]))
        assert not v.unit_diag_ok

    def test_accepts_nested_lists(self):
        assert check_gram([[1.0, 0.0], [0.0, 1.0]]).all_ok

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            check_gram(np.zeros((2, 3)))

    def test_random_family_grams_pass(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            assert check_gram(gram(random_family(n, rng))).all_ok

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_rejects_non_finite_entries(self, bad):
        a = np.eye(3, dtype=complex)
        a[0, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_gram(a)


class TestFactorStates:
    def test_octant_round_trip(self, octant_family):
        g = gram(octant_family)
        g2 = gram(factor_states(g))
        assert np.max(np.abs(g2.entries - g.entries)) < 1e-12

    def test_random_round_trips(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 11))
            g = gram(random_family(n, rng))
            fam = factor_states(g)
            assert len(fam) == n
            assert np.max(np.abs(gram(fam).entries - g.entries)) < 1e-12

    def test_probabilities_round_trip(self):
        g = gram(random_family(6, seed=19))
        p0 = probabilities(g)
        p1 = probabilities(gram(factor_states(g)))
        assert np.max(np.abs(p1.entries - p0.entries)) < 1e-12

    def test_single_state(self):
        fam = factor_states(GramMatrix(np.eye(1, dtype=complex)))
        assert len(fam) == 1

    def test_identity_two_gives_orthonormal_pair(self):
        fam = factor_states(GramMatrix(np.eye(2, dtype=complex)))
        g = gram(fam)
        assert np.max(np.abs(g.entries - np.eye(2))) < 1e-12

    def test_all_ones_collapses_to_one_ray(self):
        n = 5
        fam = factor_states(GramMatrix(np.ones((n, n), dtype=complex)))
        g = gram(fam)
        assert np.min(np.abs(g.entries)) > 1.0 - 1e-12
        assert check_gram(g).rank_estimate == 1

    def test_rejects_rank_three(self):
        with pytest.raises(ValueError, match="rank"):
            factor_states(GramMatrix(np.eye(3, dtype=complex)))

    def test_one_eigvalsh_judges_and_one_eigh_factors(self, monkeypatch, tmp_path, capsys):
        calls = []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, name=name, solve=solve: calls.append(name) or solve(a))
        g = gram(random_family(5, seed=3))
        factor_states(g)
        assert calls == ["eigvalsh", "eigh"]
        path = tmp_path / "gram.json"
        save_text(str(path), matrix_to_json("gram", g.entries))
        for command, expected in (("realize", ["eigvalsh", "eigh"]), ("check", ["eigvalsh"])):
            calls.clear()
            assert main([command, str(path)]) == 0
            assert calls == expected
        capsys.readouterr()

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_a_raw_array_factors_as_its_gram_matrix(self, n):
        g = gram(random_family(n, seed=n))
        raw, typed = factor_states(g.entries), factor_states(g)
        assert raw.vectors.tobytes() == typed.vectors.tobytes()

    def test_refuses_what_check_gram_refuses(self):
        for bad in ([[1.0, math.nan], [math.nan, 1.0]], np.ones((2, 3)), np.empty((0, 0))):
            with pytest.raises(ValueError):
                check_gram(bad)
            with pytest.raises(ValueError):
                factor_states(bad)
        for bad in ([[1.0, 0.5], [0.0, 1.0]], np.eye(3), slack_gram(0, 6e-10, 1e-10)):
            with pytest.raises(GramRefusal, match="not a qubit Gram matrix") as refusal:
                factor_states(bad)
            assert refusal.value.verdict == check_gram(bad)
        with pytest.raises(ValueError, match="failed hermitian"):
            factor_states([[1.0, 0.5], [0.0, 1.0]])

    def test_refuses_bit_for_bit_what_check_gram_refuses(self):
        # on this window eigvalsh rounds the third eigenvalue under the rank
        # threshold and eigh over it, so a verdict taken on eigh's
        # eigenvalues would refuse all 800 matrices that check_gram accepts
        c0 = 3.3731094454003967e-10
        for c in c0 + np.arange(-400, 400) * np.spacing(c0):
            a = slack_gram(0, c, 1.2e-10)
            verdict = check_gram(a)
            if verdict.all_ok:
                assert len(factor_states(a)) == 3
            else:
                with pytest.raises(GramRefusal) as refusal:
                    factor_states(a)
                assert refusal.value.verdict == verdict


class TestRealizeGram:
    def test_factors_a_family_gram(self):
        g = gram(random_family(4, seed=6))
        res = realize_gram(g)
        assert res.status == REALIZABLE and res.diagnostics == "factored from eigenpairs"
        assert res.residual == float(np.max(np.abs(gram(res.certificate).entries - g.entries)))
        assert res.residual <= 1e-12

    def test_folds_diagonal_slack_the_verdict_allows(self):
        a = gram(random_family(5, seed=3)).entries.copy()
        a[np.diag_indices(5)] += 5e-11
        assert check_gram(a).all_ok
        with pytest.raises(ValueError, match="diagonal is not 1"):
            GramMatrix(a)
        res = realize_gram(a)
        assert res.status == REALIZABLE
        assert res.residual <= 1e-10

    def test_realizes_every_matrix_the_verdict_accepts(self):
        # the third eigenvalue sits near the rank threshold and the diagonal
        # near its tolerance: a verdict taken on a folded copy of the matrix
        # refused (seed 2, c = 3.5e-10, d = 1.4e-10) and four more points
        accepted = []
        for seed in range(5):
            for c in SLACK_C:
                for d in SLACK_D:
                    a = slack_gram(seed, c, d)
                    if check_gram(a).all_ok:
                        res = realize_gram(a)
                        assert res.status == REALIZABLE and res.residual <= 1e-9
                        accepted.append((seed, c, d))
        assert (2, SLACK_C[2], SLACK_D[2]) in accepted

    def test_refuses_what_the_verdict_refuses(self):
        with pytest.raises(ValueError, match="rank at most 2"):
            realize_gram(np.eye(3))
        with pytest.raises(ValueError, match="not a qubit Gram matrix"):
            realize_gram(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="not a qubit Gram matrix"):
            realize_gram(np.array([[1.0, 0.0], [0.0, 1.0 + 1e-9]]))


class TestCoherence:
    def test_octant_phases_are_incoherent(self, octant_family):
        u = phases(gram(octant_family))
        # triangle defect exp(i pi / 4) sits far from 1
        assert not is_coherent(u, 1e-9)
        assert is_coherent(u, 1.0)

    def test_potential_phases_are_coherent(self):
        u = potential_phases([0.0, 0.3, 1.1, -0.7])
        assert is_coherent(u, 1e-12)

    def test_triangle_free_support_is_vacuously_coherent(self):
        assert is_coherent(holonomy_square(), 1e-12)

    def test_two_states_always_coherent(self):
        u = PhaseMatrix.from_edges(2, {(0, 1): cmath.exp(2.2j)})
        assert is_coherent(u, 1e-12)

    def test_worst_triangle_is_the_largest_defect_gap(self, octant_family):
        assert realizability._worst_triangle(holonomy_square()) == 0.0
        # one triangle, whose defect is exp(i pi / 4)
        worst = realizability._worst_triangle(phases(gram(octant_family)))
        assert worst == pytest.approx(abs(cmath.exp(1j * math.pi / 4) - 1.0), abs=1e-12)

    def test_rejects_non_positive_tol(self):
        u = potential_phases([0.0, 0.5])
        with pytest.raises(ValueError, match="positive"):
            is_coherent(u, 0.0)


class TestRealizeCoherent:
    def test_reproduces_potential_phases(self):
        u = potential_phases([0.0, 0.3, 1.1, -0.7, 2.4])
        fam = realize_coherent(u)
        got = phases(gram(fam))
        for i, j in sorted(u.support.edges):
            assert got.entry(i, j) == pytest.approx(u.entry(i, j), abs=1e-12)

    def test_certificate_states_share_one_ray(self):
        u = potential_phases([0.0, 0.9, -1.2])
        fam = realize_coherent(u)
        p = probabilities(gram(fam))
        assert np.max(np.abs(p.entries - 1.0)) < 1e-12
        assert check_gram(gram(fam)).rank_estimate == 1

    def test_trivial_phases_give_copies_of_the_base_state(self):
        u = potential_phases([0.0, 0.0, 0.0, 0.0])
        fam = realize_coherent(u)
        assert all(s == QubitState(1.0, 0.0) for s in fam.states)

    def test_explicit_potential_round_trip(self):
        lam = (1.0, cmath.exp(1j * math.pi / 3.0), cmath.exp(1j * math.pi / 2.0))
        values = {
            (i, j): lam[i] / lam[j] for i in range(3) for j in range(i + 1, 3)
        }
        fam = realize_coherent(PhaseMatrix.from_edges(3, values))
        got = phases(gram(fam))
        for (i, j), want in values.items():
            assert got.entry(i, j) == pytest.approx(want, abs=1e-12)

    def test_single_edge_any_angle(self):
        u = PhaseMatrix.from_edges(2, {(0, 1): cmath.exp(-2.7j)})
        fam = realize_coherent(u)
        got = phases(gram(fam))
        assert got.entry(0, 1) == pytest.approx(cmath.exp(-2.7j), abs=1e-12)

    def test_partial_support_tree(self):
        # path 0-1-2-3 with assorted phases is always coherent
        u = PhaseMatrix.from_edges(
            4,
            {
                (0, 1): cmath.exp(0.4j),
                (1, 2): cmath.exp(-1.1j),
                (2, 3): cmath.exp(2.9j),
            },
        )
        fam = realize_coherent(u)
        got = phases(gram(fam))
        for i, j in sorted(u.support.edges):
            assert got.entry(i, j) == pytest.approx(u.entry(i, j), abs=1e-12)

    def test_rejects_incoherent_triangle(self, octant_family):
        with pytest.raises(ValueError, match="not coherent"):
            realize_coherent(phases(gram(octant_family)))

    def test_rejects_disconnected_support(self):
        u = PhaseMatrix.from_edges(4, {(0, 1): 1.0, (2, 3): 1.0})
        with pytest.raises(ValueError, match="disconnected"):
            realize_coherent(u)

    def test_rejects_cycle_without_potential(self):
        with pytest.raises(ValueError, match="no consistent rephasing potential"):
            realize_coherent(holonomy_square())


class TestRealizeCoherentCertifiesByItsResidual:
    def test_refuses_a_triangle_free_cycle_the_potential_misses(self):
        u = near_coherent_square()
        i, j, dev = _edge_distances(realizability._potential(u, [[0, 1, 2, 3]]), u)
        assert (int(i[dev.argmax()]), int(j[dev.argmax()])) == (2, 3)
        assert 4.9e-7 < dev.max() < 5.1e-7
        refusal = r"not coherent: no consistent rephasing potential realizes edge \(2, 3\)"
        with pytest.raises(ValueError, match=refusal):
            realize_coherent(u, 1e-9)
        with pytest.raises(ValueError, match=refusal):
            realize_coherent(u)

    def test_accepts_the_same_cycle_within_a_looser_tol(self):
        u = near_coherent_square()
        fam = realize_coherent(u, 1e-6)
        assert 4.9e-7 < _phase_residual(fam.vectors, u) <= 1e-6

    def test_judges_a_complete_support_by_its_edges_not_its_triangles(self):
        # two tilted non-tree edges: each edge misses by 8e-10, but the
        # triangle (1, 2, 3) through both misses by twice that
        u = potential_phases([0.0, 0.3, 1.1, -0.7])
        u = tilted(tilted(u, 1, 2, 8e-10), 2, 3, 8e-10)
        assert not is_coherent(u, 1e-9)
        fam = realize_coherent(u, 1e-9)
        assert _phase_residual(fam.vectors, u) <= 1e-9

    def test_measured_residual_never_exceeds_tol(self):
        rng = np.random.default_rng(21)
        accepted = refused = 0
        for n in (2, 3, 4, 5, 7):
            for eps in (0.0, 1e-11, 1e-9, 1e-7, 1e-5):
                u = tilted_coherent(rng, n, eps)
                for tol in (1e-10, 1e-9, 1e-8, 1e-6):
                    try:
                        fam = realize_coherent(u, tol)
                    except ValueError as err:
                        assert "not coherent" in str(err)
                        refused += 1
                        continue
                    assert _phase_residual(fam.vectors, u) <= tol
                    accepted += 1
        assert accepted and refused


def per_component_restrict(u: PhaseMatrix, comp: list) -> PhaseMatrix:
    idx = {v: p for p, v in enumerate(comp)}
    return PhaseMatrix.from_edges(
        len(comp), {(idx[i], idx[j]): u.entries[i, j] for i, j in u.support.edges if i in idx})


def coherent_components(rng, n: int, comps: list) -> PhaseMatrix:
    """Potential phases on the given vertex sets, each one connected."""
    lam = np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    values = {}
    for comp in comps:
        for a, i in enumerate(comp):
            for b, j in enumerate(comp[a + 1:], a + 1):
                if b == a + 1 or rng.uniform() < 0.6:
                    values[(i, j)] = lam[i] * lam[j].conjugate()
    return PhaseMatrix.from_edges(n, values)


class TestCoherentShortcut:
    @pytest.mark.parametrize("n, comps", [
        (5, [[0, 1, 2, 3, 4]]),
        (6, [[0, 2, 4], [1, 3, 5]]),
        (9, [[0, 1, 5], [2, 6], [3, 4, 7]]),
        (8, [[1, 3, 4, 6], [2, 7]]),
        (4, []),
    ])
    def test_certificate_equals_the_per_component_construction(self, n, comps):
        rng = np.random.default_rng(n)
        for _ in range(10):
            u = coherent_components(rng, n, comps)
            vecs = np.zeros((n, 2), dtype=complex)
            for comp in u.support.connected_components():
                vecs[comp] = realize_coherent(per_component_restrict(u, comp)).vectors
            res = realize_phases(u)
            assert res.status == REALIZABLE and "single base state" in res.diagnostics
            assert res.certificate.vectors.tobytes() == vecs.tobytes()

    def test_realize_coherent_succeeds_exactly_when_the_shortcut_is_taken(self):
        rng = np.random.default_rng(4)
        outcomes = set()
        for n in (2, 3, 4, 6):
            for eps in (0.0, 1e-10, 3e-9, 5e-8, 1e-6):
                u = tilted_coherent(rng, n, eps)
                for t in (1e-9, 1e-7):
                    res = realize_phases(u, SearchConfig(realize_tol=t, restarts=1, max_iters=5))
                    shortcut = "single base state" in res.diagnostics
                    try:
                        fam = realize_coherent(u, t)
                    except ValueError:
                        assert not shortcut
                        outcomes.add(False)
                        continue
                    assert shortcut
                    assert res.certificate.vectors.tobytes() == fam.vectors.tobytes()
                    outcomes.add(True)
        assert outcomes == {False, True}

    def test_restriction_slices_the_matrix(self):
        rng = np.random.default_rng(3)
        pairs = [(0, 2), (0, 6), (2, 3), (3, 6), (1, 4)]
        u = PhaseMatrix.from_edges(7, {e: cmath.exp(1j * rng.uniform(-3, 3)) for e in pairs})
        for comp in u.support.connected_components():
            got, want = _restrict(u, comp), per_component_restrict(u, comp)
            assert got.entries.tobytes() == want.entries.tobytes()
            assert got.support == want.support


def tilted(u: PhaseMatrix, i: int, j: int, angle: float) -> PhaseMatrix:
    """u with the phase of edge (i, j) turned by angle."""
    values = {e: u.entries[e] for e in u.support.edges}
    values[(i, j)] *= cmath.exp(1j * angle)
    return PhaseMatrix.from_edges(u.n, values)


def tilted_coherent(rng, n: int, angle: float) -> PhaseMatrix:
    """A connected coherent prescription with one random edge turned by angle."""
    u = coherent_components(rng, n, [list(range(n))])
    i, j = u.support.pairs
    e = int(rng.integers(len(i)))
    return tilted(u, int(i[e]), int(j[e]), angle)


class TestPotentialDecidesCoherence:
    def test_realize_path_walks_no_triangles(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("triangle walk on the realize path")

        monkeypatch.setattr(realizability, "is_coherent", refuse)
        monkeypatch.setattr(realizability, "_worst_triangle", refuse)
        coherent = realize_phases(potential_phases([0.0, 0.4, -0.9, 1.7]))
        assert coherent.status == REALIZABLE
        assert "single base state" in coherent.diagnostics
        witnessed = realize_phases(phases(gram(random_family(5, seed=8))))
        assert witnessed.status == REALIZABLE
        assert "local search succeeded" in witnessed.diagnostics

    def test_a_defect_within_realize_tol_takes_the_single_ray(self):
        # a triangle defect of about 3e-8 fails the triangle test but the
        # potential's residual meets the default realize_tol
        u = tilted(potential_phases([0.0, 0.3, 1.1, -0.7, 2.4]), 1, 3, 3e-8)
        assert not is_coherent(u, COHERENCE_TOL)
        res = realize_phases(u)
        assert res.status == REALIZABLE and "single base state" in res.diagnostics
        assert 1e-9 < res.residual <= 1e-7

    def test_the_shortcut_accepts_up_to_realize_tol(self):
        u = tilted(potential_phases([0.0, 0.3, 1.1, -0.7]), 0, 2, 1e-5)
        loose = realize_phases(u, SearchConfig(realize_tol=1e-4))
        assert loose.status == REALIZABLE and "single base state" in loose.diagnostics
        assert "single base state" not in realize_phases(u).diagnostics

    def test_certificate_is_the_family_measured(self):
        rng = np.random.default_rng(11)
        for n in (3, 4, 5, 6):
            for _ in range(10):
                u = phases(family_with_support(rng, n)[1])
                res = realize_phases(u, SearchConfig(restarts=4))
                assert res.status == REALIZABLE
                assert _phase_residual(res.certificate.vectors, u) == res.residual


class TestRealizePhases:
    def test_recovers_witnessed_phases(self):
        rng = np.random.default_rng(101)
        for n in (3, 4, 5, 6):
            _, g = family_with_support(rng, n)
            u = phases(g)
            res = realize_phases(u)
            assert res.status == REALIZABLE
            assert res.residual <= 1e-7
            got = phases(gram(res.certificate))
            for i, j in sorted(u.support.edges):
                assert abs(got.entry(i, j) - u.entry(i, j)) <= 1e-7

    def test_coherent_short_circuit(self):
        u = potential_phases([0.0, 0.4, -0.9, 1.7])
        res = realize_phases(u)
        assert res.status == REALIZABLE
        assert res.residual < 1e-12
        assert "single base state" in res.diagnostics

    def test_holonomy_square_needs_rank_two(self):
        # coherence is vacuous here, yet no potential exists; the search
        # must still find a two-dimensional realization
        res = realize_phases(holonomy_square())
        assert res.status == REALIZABLE
        assert res.residual <= 1e-7
        assert "single base state" not in res.diagnostics

    def test_deterministic_for_fixed_config(self):
        _, g = family_with_support(np.random.default_rng(7), 5)
        u = phases(g)
        r1 = realize_phases(u, SearchConfig(seed=5))
        r2 = realize_phases(u, SearchConfig(seed=5))
        assert r1.status == r2.status == REALIZABLE
        assert r1.residual == r2.residual
        assert np.array_equal(r1.certificate.vectors, r2.certificate.vectors)

    def test_disconnected_components_realized_independently(self):
        u = PhaseMatrix.from_edges(
            5, {(0, 1): cmath.exp(0.8j), (2, 3): 1j, (3, 4): cmath.exp(-0.3j)}
        )
        res = realize_phases(u)
        assert res.status == REALIZABLE
        assert "components realized independently" in res.diagnostics
        got = phases(gram(res.certificate))
        for i, j in sorted(u.support.edges):
            assert abs(got.entry(i, j) - u.entry(i, j)) <= 1e-7

    def test_isolated_vertex_gets_base_state(self):
        u = PhaseMatrix.from_edges(3, {(0, 1): cmath.exp(1.1j)})
        res = realize_phases(u)
        assert res.status == REALIZABLE
        assert res.certificate.states[2] == QubitState(1.0, 0.0)

    def test_quarter_turn_triangle_defect_is_realizable(self):
        # defect exp(i pi / 4) matches the octant family, so a
        # certificate certainly exists
        u = PhaseMatrix.from_edges(
            3, {(0, 1): 1.0, (1, 2): cmath.exp(0.25j * math.pi), (0, 2): 1.0}
        )
        res = realize_phases(u)
        assert res.status == REALIZABLE
        assert res.residual <= 1e-7

    def test_certificates_are_sound(self):
        # every certificate must itself be a valid family whose phases
        # reproduce the prescription on the support
        rng = np.random.default_rng(77)
        cases = [
            potential_phases([0.0, 1.3, -0.6]),
            holonomy_square(),
            phases(family_with_support(rng, 5)[1]),
        ]
        for u in cases:
            res = realize_phases(u)
            assert res.status == REALIZABLE
            g = gram(res.certificate)
            assert check_gram(g).all_ok
            got = phases(g)
            for i, j in sorted(u.support.edges):
                assert abs(got.entry(i, j) - u.entry(i, j)) <= 1e-7


class TestSearchInternals:
    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        n = 5
        free = _free(n)
        edges = [(0, 1), (0, 2), (1, 2), (1, 4), (2, 3), (3, 4)]
        idx_i = np.array([e[0] for e in edges])
        idx_j = np.array([e[1] for e in edges])
        targets = np.exp(1j * rng.uniform(-np.pi, np.pi, len(edges)))
        x = rng.uniform(0.2, 2.5, np.count_nonzero(free))
        _, jac = _residuals(x, free, idx_i, idx_j, targets)
        step = 1e-6
        fd = np.zeros_like(jac)
        for p in range(len(x)):
            hi, lo = x.copy(), x.copy()
            hi[p] += step
            lo[p] -= step
            rh, _ = _residuals(hi, free, idx_i, idx_j, targets)
            rl, _ = _residuals(lo, free, idx_i, idx_j, targets)
            fd[:, p] = (rh - rl) / (2.0 * step)
        assert np.max(np.abs(jac - fd)) < 1e-5

    def test_config_validation(self):
        with pytest.raises(ValueError, match="restarts"):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError, match="max_iters"):
            SearchConfig(max_iters=0)
        for tol in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="realize_tol must be positive and finite"):
                SearchConfig(realize_tol=tol)

    def test_result_validation(self):
        with pytest.raises(ValueError, match="unknown status"):
            RealizabilityResult("maybe", None, 0.0, "")
        with pytest.raises(ValueError, match="requires a certificate"):
            RealizabilityResult(REALIZABLE, None, 0.0, "")
        ok = RealizabilityResult(SEARCH_FAILED, None, 0.5, "best effort")
        assert ok.status == SEARCH_FAILED
        assert NOT_REALIZABLE == "not_realizable"


class TestSolverPatchPoint:
    """realizability.least_squares is the one name the search calls the
    solver by, so a wrapper patched onto it sees every solver run."""

    @pytest.fixture
    def solver_calls(self, monkeypatch):
        calls = []
        solve = realizability.least_squares

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(realizability, "least_squares", counting)
        return calls

    @staticmethod
    def reported_restarts(result) -> int:
        return int(re.search(r"after (\d+) restart\(s\)", result.diagnostics).group(1))

    def test_called_once_per_reported_restart(self, solver_calls, octant_family):
        rng = np.random.default_rng(21)
        two_searched_components = PhaseMatrix.from_edges(
            6,
            {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1j,
             (4, 5): cmath.exp(0.3j)},
        )
        cases = [
            phases(gram(octant_family)),
            holonomy_square(),
            phases(family_with_support(rng, 5)[1]),
            two_searched_components,
        ]
        for u in cases:
            solver_calls.clear()
            res = realize_phases(u, SearchConfig(restarts=8))
            assert res.status == REALIZABLE
            assert len(solver_calls) == self.reported_restarts(res) >= 1

    def test_an_exhausted_search_runs_every_restart(self, solver_calls):
        res = realize_phases(holonomy_square(), SearchConfig(restarts=3, realize_tol=1e-30))
        assert res.status == SEARCH_FAILED
        assert len(solver_calls) == 3

    def test_not_called_on_exact_routes(self, solver_calls, octant_family):
        res = realize_phases(potential_phases([0.0, 0.4, -0.9, 1.7]))
        assert "single base state" in res.diagnostics
        assert realize_gram(gram(octant_family)).status == REALIZABLE
        assert solver_calls == []
