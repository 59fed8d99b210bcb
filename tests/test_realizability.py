"""Tests for Gram-matrix judging, factorization, and phase realization."""

import cmath
import math
import re
import warnings

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
    SOFT_FLOOR,
    _edge_distances,
    _phase_residual,
    _residuals,
    _restrict,
    _search_component,
    least_squares,
)
from tests.conftest import SLACK_C, SLACK_D, family_with_support, slack_gram, uniform_phases


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


def chordless_cycle(rng, n: int, holonomy: complex) -> PhaseMatrix:
    """The cycle 0-1-...-(n-1)-0 with random phases whose loop product
    u_01 u_12 ... u_(n-1)0 is holonomy."""
    path = np.exp(1j * rng.uniform(-math.pi, math.pi, n - 1))
    values = {(k, k + 1): path[k] for k in range(n - 1)}
    values[(0, n - 1)] = (holonomy / np.prod(path)).conjugate()
    return PhaseMatrix.from_edges(n, values)


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
        # a refusal is an answer, not_realizable, with the failed verdict as its proof
        for a, failed in ((np.eye(3), "rank at most 2 (estimated rank 3)"),
                          (np.array([[1.0, 0.5], [0.0, 1.0]]), "hermitian"),
                          (np.array([[1.0, 0.0], [0.0, 1.0 + 1e-9]]), "unit diagonal")):
            res = realize_gram(a)
            assert res.status == NOT_REALIZABLE
            assert res.certificate is None
            assert res.evidence == check_gram(a)
            assert res.residual == res.evidence.worst_violation
            # the failed conditions; the worst violation is the residual alone
            assert res.diagnostics.startswith(f"matrix is not a qubit Gram matrix: failed {failed}")
            assert str(GramRefusal(res.evidence)) == (
                f"{res.diagnostics}; worst violation {res.residual!r}")


class TestCoherence:
    def test_octant_phases_are_incoherent(self, octant_family):
        u = phases(gram(octant_family))
        # triangle defect exp(i pi / 4) sits far from 1
        assert not is_coherent(u, 1e-9)
        assert is_coherent(u, 1.0)

    def test_potential_phases_are_coherent(self):
        u = potential_phases([0.0, 0.3, 1.1, -0.7])
        assert is_coherent(u, 1e-12)

    def test_a_triangle_free_cycle_is_judged_by_its_holonomy(self):
        # no triangle to test: the loop product decides
        assert not is_coherent(holonomy_square(), 1e-12)
        assert not is_coherent(holonomy_square(), 1.0)
        # the tolerance bounds the chordal distance on the closing edge,
        # which is |holonomy - 1|
        rng = np.random.default_rng(2)
        for n in (4, 5):
            for angle in (0.0, 3e-10, 5e-8, 1e-6, math.pi / 2):
                u = chordless_cycle(rng, n, cmath.exp(1j * angle))
                for tol in (1e-9, 1e-7):
                    assert is_coherent(u, tol) == (angle < tol)

    def test_two_states_always_coherent(self):
        u = PhaseMatrix.from_edges(2, {(0, 1): cmath.exp(2.2j)})
        assert is_coherent(u, 1e-12)

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

    def test_realizes_a_disconnected_support(self):
        # each component is rooted at its smallest vertex
        u = PhaseMatrix.from_edges(5, {(0, 1): 1j, (2, 3): cmath.exp(0.7j), (3, 4): -1.0})
        fam = realize_coherent(u)
        assert [fam[k] for k in (0, 2)] == [QubitState(1.0, 0.0)] * 2
        got = phases(gram(fam))
        for i, j in sorted(u.support.edges):
            assert got.entry(i, j) == pytest.approx(u.entry(i, j), abs=1e-12)

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
        kappa = u.entry(1, 2) * u.entry(2, 3) * u.entry(3, 1)
        assert abs(kappa - 1.0) > 1.5e-9
        assert is_coherent(u, 1e-9)
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

    @staticmethod
    def prescriptions():
        """Tilted complete and partial supports, chordless 4- and 5-cycles
        by their holonomy, a tree, and disconnected supports, coherent or
        with one edge turned."""
        rng = np.random.default_rng(4)
        for n in (2, 3, 4, 6):
            for eps in (0.0, 1e-10, 3e-9, 5e-8, 1e-6):
                yield tilted_coherent(rng, n, eps)
        for n in (4, 5):
            for angle in (0.0, 3e-10, 5e-8, 1e-6, math.pi / 2):
                yield chordless_cycle(rng, n, cmath.exp(1j * angle))
        tree = [(0, 1), (1, 2), (1, 3), (3, 4), (0, 5)]
        yield PhaseMatrix.from_edges(6, {e: cmath.exp(1j * rng.uniform(-3, 3)) for e in tree})
        for n, comps in ((6, [[0, 2, 4], [1, 3, 5]]), (9, [[0, 1, 5], [2, 6], [3, 4, 7]])):
            u = coherent_components(rng, n, comps)
            yield u
            for eps in (3e-9, 5e-8):
                i, j = u.support.pairs
                e = int(rng.integers(len(i)))
                yield tilted(u, int(i[e]), int(j[e]), eps)

    def test_realize_coherent_succeeds_exactly_when_the_shortcut_is_taken(self):
        # and exactly when is_coherent holds: one test at three entry points
        outcomes = set()
        for u in self.prescriptions():
            for t in (1e-9, 1e-7):
                res = realize_phases(u, SearchConfig(realize_tol=t, restarts=1, max_iters=5))
                shortcut = "single base state" in res.diagnostics
                try:
                    fam = realize_coherent(u, t)
                except ValueError:
                    assert not shortcut and not is_coherent(u, t)
                    outcomes.add(False)
                    continue
                assert shortcut and is_coherent(u, t)
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
    def test_a_defect_within_realize_tol_takes_the_single_ray(self):
        # a triangle defect of about 3e-8 fails is_coherent's default
        # tolerance but meets the default realize_tol
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
        # no triangle, yet no potential exists; the search must find a
        # two-dimensional realization
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
    EDGES = [(0, 1), (0, 2), (1, 2), (1, 4), (2, 3), (3, 4)]

    @classmethod
    def search_problem(cls, seed):
        """Edge index arrays, random unit targets and a random family's rows."""
        rng = np.random.default_rng(seed)
        idx_i, idx_j = np.array(cls.EDGES).T
        targets = np.exp(1j * rng.uniform(-np.pi, np.pi, len(cls.EDGES)))
        return idx_i, idx_j, targets, random_family(5, rng).vectors

    def test_jacobian_matches_finite_differences(self):
        # at a random family, and with state 4 all but orthogonal to state 1:
        # there edge (1, 4) takes the floor branch of the Wirtinger factors,
        # and stays on it for every step below, since no step moves |g| by
        # more than 2e-7
        for below_floor in (False, True):
            idx_i, idx_j, targets, vecs = self.search_problem(3)
            if below_floor:
                a, b = vecs[1]
                vecs[4] = (-b.conjugate(), a.conjugate()) + 1e-10 * vecs[2]
            x = vecs.view(float).ravel()
            m = np.abs(np.sum(vecs[idx_i].conj() * vecs[idx_j], axis=1))
            assert (m.min() < 1e-9) == below_floor and np.sort(m)[1] > 1e-3
            _, jac = _residuals(x, idx_i, idx_j, targets)
            step = 1e-7
            fd = np.zeros_like(jac)
            for p in range(len(x)):
                hi, lo = x.copy(), x.copy()
                hi[p] += step
                lo[p] -= step
                rh, _ = _residuals(hi, idx_i, idx_j, targets)
                rl, _ = _residuals(lo, idx_i, idx_j, targets)
                fd[:, p] = (rh - rl) / (2.0 * step)
            # relative to each row's scale: below the floor dv/dg is 1 / SOFT_FLOOR
            scale = np.maximum(1.0, np.max(np.abs(jac), axis=1, keepdims=True))
            assert np.max(np.abs(jac - fd) / scale) < 1e-6
            assert (np.max(np.abs(jac)) > 0.1 / SOFT_FLOOR) == below_floor

    def test_residuals_ignore_row_lengths_and_a_common_unitary(self):
        # the phases see g_ij / |g_ij| only: rescaling each row by its own
        # positive factor and rotating every row by one U(2) matrix leave
        # the residual vector as it was, up to roundoff
        idx_i, idx_j, targets, vecs = self.search_problem(5)
        rng = np.random.default_rng(6)
        q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        unitary = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        moved = rng.uniform(0.3, 3.0, (5, 1)) * vecs @ unitary.T
        before, _ = _residuals(vecs.view(float).ravel(), idx_i, idx_j, targets)
        after, _ = _residuals(moved.view(float).ravel(), idx_i, idx_j, targets)
        assert np.max(np.abs(after - before)) <= 1e-15

    def test_config_validation(self):
        with pytest.raises(ValueError, match="restarts"):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError, match="max_iters"):
            SearchConfig(max_iters=0)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            SearchConfig(seed=-1)
        # a count that is not an integer is refused here, not by range() or
        # the random generator at the search's first restart
        for name, value in (("restarts", 2.5), ("max_iters", 10.0), ("seed", 1.5),
                            ("seed", "1"), ("restarts", None), ("max_iters", np.float64(3)),
                            # bool is an Integral, but no count
                            ("restarts", True), ("max_iters", False), ("seed", True)):
            message = re.escape(f"{name} must be an integer, got {value!r}")
            with pytest.raises(ValueError, match=message):
                SearchConfig(**{name: value})
        # numpy integers stay accepted, and search as the same Python ints do
        typed = realize_phases(holonomy_square(),
                               SearchConfig(np.int64(2), np.int32(5), np.uint8(3)))
        plain = realize_phases(holonomy_square(), SearchConfig(2, 5, 3))
        assert (typed.status, typed.residual) == (plain.status, plain.residual)
        for tol in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="realize_tol must be positive and finite"):
                SearchConfig(realize_tol=tol)

    def test_result_validation(self):
        with pytest.raises(ValueError, match="unknown status"):
            RealizabilityResult("maybe", None, 0.0, "")
        with pytest.raises(ValueError, match="requires a certificate"):
            RealizabilityResult(REALIZABLE, None, 0.0, "")
        ok = RealizabilityResult(SEARCH_FAILED, None, 0.5, "best effort")
        assert ok.status == SEARCH_FAILED and ok.evidence is None
        assert NOT_REALIZABLE == "not_realizable"
        # not_realizable needs a proof: a failed verdict, not none or a passing one
        failed, passed = check_gram(np.eye(3)), check_gram(np.eye(2))
        for evidence in (None, passed, "rank 3"):
            with pytest.raises(ValueError, match="requires a failed GramVerdict as evidence"):
                RealizabilityResult(NOT_REALIZABLE, None, 1.0, "", evidence)
        proved = RealizabilityResult(NOT_REALIZABLE, None, 1.0, "", failed)
        assert proved.evidence is failed


class TestSolverPatchPoint:
    """realizability.least_squares is the one name the search calls the
    solver by, so a wrapper patched onto it sees every solver run."""

    @pytest.fixture
    def solver_calls(self, monkeypatch):
        calls = []
        solve = realizability.least_squares

        def counting(*args, **kwargs):
            result = solve(*args, **kwargs)
            calls.append(result)
            return result

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

    def test_never_exceeds_its_evaluation_budget(self, solver_calls):
        rng = np.random.default_rng(31)
        cases = [holonomy_square(), uniform_phases(rng, 5), uniform_phases(rng, 8)]
        for u in cases:
            for max_iters in (1, 2, 7, 60):
                solver_calls.clear()
                realize_phases(u, SearchConfig(restarts=3, max_iters=max_iters, realize_tol=1e-30))
                assert len(solver_calls) == 3
                assert all(1 <= res.nfev <= max_iters for res in solver_calls)

    def test_not_called_on_exact_routes(self, solver_calls, octant_family):
        res = realize_phases(potential_phases([0.0, 0.4, -0.9, 1.7]))
        assert "single base state" in res.diagnostics
        assert realize_gram(gram(octant_family)).status == REALIZABLE
        assert solver_calls == []

    def test_a_converged_search_stops_before_its_budget(self, solver_calls):
        # the holonomy square is realizable, so each restart reaches a
        # vanishing residual and ends there, not at the budget
        res = realize_phases(holonomy_square(), SearchConfig(restarts=3, max_iters=10**6, realize_tol=1e-30))
        assert res.status == SEARCH_FAILED
        assert len(solver_calls) == 3
        assert all(r.nfev < 1000 for r in solver_calls)

    def test_hopeless_prescriptions_fail_without_warnings(self):
        rng = np.random.default_rng(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for u in (holonomy_square(), uniform_phases(rng, 5), uniform_phases(rng, 5)):
                res = realize_phases(u, SearchConfig(restarts=4, realize_tol=1e-30))
                assert res.status == SEARCH_FAILED
                assert res.certificate is None


class TestLeastSquares:
    """The search's Levenberg-Marquardt loop on problems with known answers."""

    @staticmethod
    def linear(a, b):
        return lambda x: (a @ x - b, a)

    def test_solves_a_linear_problem_and_stops_by_itself(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((12, 5)), rng.standard_normal(12)
        res = least_squares(self.linear(a, b), np.zeros(5), 200)
        assert np.max(np.abs(res.x - np.linalg.lstsq(a, b, rcond=None)[0])) < 1e-12
        assert res.nfev < 200

    def test_a_vanishing_residual_or_gradient_costs_one_evaluation(self):
        x0 = np.array([1.0, -2.0, 0.5])
        res = least_squares(self.linear(np.eye(3), x0), x0, 50)
        assert res.nfev == 1 and np.array_equal(res.x, x0)
        # a residual that no parameter moves: the gradient is 0
        res = least_squares(lambda x: (np.ones(2), np.zeros((2, 3))), x0, 50)
        assert res.nfev == 1 and np.array_equal(res.x, x0)

    def test_damping_is_capped_when_every_step_fails(self):
        # the Jacobian claims the wrong sign, so every trial step raises |r|^2
        # and is rejected; the damping doubles its growth each time, and the
        # loop ends once it passes MU_MAX, far inside the budget and with no
        # overflow
        def wrong_sign(x):
            return np.array([1.0 + x[0]]), np.array([[-1.0]])

        x0 = np.array([0.25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = least_squares(wrong_sign, x0, 10**6)
        assert 1 < res.nfev < 30
        assert np.array_equal(res.x, x0)

    def test_a_singular_damped_system_is_a_rejected_step(self, monkeypatch):
        # the first solve is refused as singular: the loop raises the
        # damping without spending an evaluation and goes on to the answer
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((12, 5)), rng.standard_normal(12)
        fun, solve = self.linear(a, b), np.linalg.solve
        evaluations, solves = [], []

        def singular_once(m, v):
            solves.append((len(evaluations), m[0, 0] - (a.T @ a)[0, 0]))
            if len(solves) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(m, v)

        monkeypatch.setattr(np.linalg, "solve", singular_once)
        res = least_squares(lambda x: evaluations.append(x) or fun(x), np.zeros(5), 200)
        # near the minimum |r|^2 stops resolving the steps at about sqrt(eps)
        # in x, where the last digits depend on the BLAS kernel
        assert np.max(np.abs(res.x - np.linalg.lstsq(a, b, rcond=None)[0])) < 1e-6
        # both systems came after the one evaluation at x0, the second
        # damped twice as hard as the first
        (before_first, first), (before_second, second) = solves[:2]
        assert before_first == before_second == 1
        assert second == pytest.approx(2.0 * first, rel=1e-9)

    def test_a_system_that_stays_singular_ends_at_the_damping_cap(self, monkeypatch):
        # the damping's growth doubles on each refusal, so it passes MU_MAX
        # within a dozen solves
        solves = []

        def singular(m, v):
            solves.append(m)
            assert len(solves) < 20, "the damping does not grow"
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        x0 = np.array([0.3, 0.1])
        res = least_squares(self.linear(np.eye(2), np.zeros(2)), x0, 50)
        assert res.nfev == 1 and np.array_equal(res.x, x0)

    def test_the_start_is_copied_not_written(self):
        x0 = np.array([0.3, 0.1])
        kept = x0.copy()
        res = least_squares(self.linear(np.eye(2), np.zeros(2)), x0, 50)
        assert np.array_equal(x0, kept)
        assert not np.shares_memory(res.x, x0)
        assert np.max(np.abs(res.x)) < 1e-12


class TestReproducibleSearch:
    """The search gives the same bits for the same input, wherever its
    arrays happen to sit in memory."""

    CFG = SearchConfig(restarts=3, max_iters=80)

    def search_all(self):
        found = []
        for k in range(60):
            u = uniform_phases(np.random.default_rng([12, k]), 2 + k % 5)
            found.append(_search_component(u, self.CFG, np.random.default_rng([self.CFG.seed, k]))[0])
        return found

    def test_same_bits_twice_and_from_a_misaligned_start(self, monkeypatch):
        first = self.search_all()
        second = self.search_all()
        solve = realizability.least_squares

        def misaligned(fun, x0, *args):
            # x0 copied to an address 4 bytes off float64 alignment
            buf = np.zeros(x0.nbytes + 16, dtype=np.uint8)
            start = 8 + (4 - buf.ctypes.data) % 8
            moved = buf[start:start + x0.nbytes].view(np.float64)
            moved[...] = x0
            assert not moved.flags.aligned
            return solve(fun, moved, *args)

        monkeypatch.setattr(realizability, "least_squares", misaligned)
        third = self.search_all()
        for a, b, c in zip(first, second, third):
            assert np.array_equal(a, b) and np.array_equal(a, c)
