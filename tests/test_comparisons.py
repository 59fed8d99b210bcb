"""Tests for the three comparison levels and their container types."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpc import (
    DEFAULT_ZERO_TOL,
    BlochVector,
    GramMatrix,
    PhaseMatrix,
    ProbabilityMatrix,
    QubitState,
    StateFamily,
    SupportGraph,
    check_gram,
    check_matching,
    from_bloch,
    gram,
    orthogonality_graph,
    phases,
    probabilities,
    random_family,
    to_bloch,
)

from qpc.comparisons import deviations
from tests.conftest import family_with_orthogonal_pairs

SQ2 = 2.0 ** -0.5


@pytest.fixture
def plus_minus_family() -> StateFamily:
    return StateFamily(
        (
            QubitState(1.0, 0.0),
            QubitState(0.0, 1.0),
            QubitState(SQ2, SQ2),
            QubitState(SQ2, -SQ2),
        )
    )


class TestGram:
    def test_orthonormal_pair_gives_identity(self):
        fam = StateFamily((QubitState(1.0, 0.0), QubitState(0.0, 1.0)))
        assert np.array_equal(gram(fam).entries, np.eye(2, dtype=complex))

    def test_repeated_state_gives_all_ones(self):
        s = QubitState(0.6, 0.8j)
        g = gram(StateFamily((s, s)))
        assert np.max(np.abs(g.entries - 1.0)) < 1e-15

    def test_octant_values(self, octant_family):
        g = gram(octant_family)
        assert g.entry(0, 1) == pytest.approx(SQ2, abs=1e-15)
        assert g.entry(1, 2) == pytest.approx(0.5 + 0.5j, abs=1e-15)
        assert g.entry(0, 2) == pytest.approx(SQ2, abs=1e-15)
        assert g.entry(2, 0) == pytest.approx(SQ2, abs=1e-15)

    def test_diagonal_is_exactly_real(self, octant_family):
        # the part-wise products cancel the diagonal's imaginary part exactly;
        # the real part can still sit 1 ulp off 1 for sqrt-half amplitudes
        g = gram(octant_family)
        d = np.diagonal(g.entries)
        assert np.array_equal(d.imag, np.zeros(3))
        assert np.max(np.abs(d.real - 1.0)) < 1e-15

    def test_hermitian_exactly(self):
        g = gram(random_family(6, seed=11))
        assert np.array_equal(g.entries, g.entries.conj().T)

    def test_entries_read_only(self, octant_family):
        g = gram(octant_family)
        with pytest.raises(ValueError):
            g.entries[0, 1] = 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            GramMatrix(np.array([[1.0, 0.5j], [0.5j, 1.0]]))

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            GramMatrix(np.array([[1.0, 0.0], [0.0, 0.9]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            GramMatrix(np.zeros((2, 3)))


class TestProbabilities:
    def test_orthonormal_pair_gives_identity(self):
        fam = StateFamily((QubitState(1.0, 0.0), QubitState(0.0, 1.0)))
        assert np.array_equal(probabilities(gram(fam)).entries, np.eye(2))

    def test_octant_all_half(self, octant_family):
        p = probabilities(gram(octant_family))
        off = p.entries[~np.eye(3, dtype=bool)]
        assert off == pytest.approx(np.full(6, 0.5), abs=1e-15)

    def test_matches_bloch_overlap_formula(self):
        # p_ij = (1 + n_i . n_j) / 2 for pure qubit states
        fam = random_family(7, seed=23)
        p = probabilities(gram(fam))
        bloch = np.array([to_bloch(s).vector for s in fam.states])
        expected = (1.0 + bloch @ bloch.T) / 2.0
        assert np.max(np.abs(p.entries - expected)) < 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            ProbabilityMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProbabilityMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]))


class TestPhases:
    def test_octant_values(self, octant_family):
        u = phases(gram(octant_family))
        assert u.support.is_complete()
        assert u.entry(0, 1) == pytest.approx(1.0, abs=1e-15)
        assert u.entry(1, 2) == pytest.approx((1.0 + 1j) * SQ2, abs=1e-15)
        assert u.angle(1, 2) == pytest.approx(math.pi / 4, abs=1e-15)
        assert u.entry(2, 1) == pytest.approx((1.0 - 1j) * SQ2, abs=1e-15)

    def test_all_ones_gram_has_complete_unit_phases(self):
        u = phases(GramMatrix(np.ones((3, 3), dtype=complex)))
        assert u.support.is_complete()
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert u.entry(i, j) == 1.0

    def test_identity_gram_has_empty_support(self):
        u = phases(GramMatrix(np.eye(2, dtype=complex)))
        assert len(u.support.edges) == 0

    def test_orthogonal_pair_has_no_phase(self, plus_minus_family):
        u = phases(gram(plus_minus_family))
        assert not u.has(0, 1)
        assert u.has(0, 2)
        with pytest.raises(ValueError, match="no phase"):
            u.entry(0, 1)

    def test_zero_tol_moves_the_support_boundary(self):
        eps = 1e-11
        fam = StateFamily(
            (QubitState(1.0, 0.0), QubitState(eps, math.sqrt(1.0 - eps * eps)))
        )
        g = gram(fam)
        assert not phases(g).has(0, 1)
        assert phases(g, zero_tol=1e-12).has(0, 1)

    def test_angle_principal_branch_is_plus_pi(self):
        u = PhaseMatrix.from_edges(2, {(0, 1): -1.0 + 0j})
        assert u.angle(0, 1) == math.pi
        assert u.angle(1, 0) == math.pi

    def test_from_edges_fills_reciprocal(self):
        w = (1.0 + 1j) * SQ2
        u = PhaseMatrix.from_edges(3, {(0, 2): w})
        assert u.entry(2, 0) == pytest.approx(w.conjugate(), abs=1e-15)
        assert not u.has(0, 1)

    def test_from_edges_refuses_a_pair_given_in_both_orders(self):
        # the later, conjugated value would silently overwrite the first
        with pytest.raises(ValueError, match=r"^pair \(1, 0\) is given twice$"):
            PhaseMatrix.from_edges(2, {(0, 1): 1j, (1, 0): 1j})

    def test_from_edges_names_the_first_repeat_in_input_order(self):
        with pytest.raises(ValueError, match=r"^pair \(1, 0\) is given twice$"):
            PhaseMatrix.from_edges(4, {(2, 3): 1, (0, 1): 1, (1, 0): 1, (3, 2): 1})

    @pytest.mark.parametrize("pair", [(True, 2), (False, 1), (0.0, 1), (0, 2.5), ("0", 1)])
    def test_from_edges_refuses_an_index_that_is_no_integer(self, pair):
        # True and False once indexed the mask as 1 and 0, and a float raised IndexError
        with pytest.raises(ValueError, match=f"^{re.escape(f'edge {pair!r} must hold integers')}$"):
            PhaseMatrix.from_edges(3, {(0, 2): 1, pair: 1})

    def test_from_edges_takes_numpy_integers(self):
        u = PhaseMatrix.from_edges(3, {(np.int64(0), np.uint8(2)): 1j})
        assert u.support == SupportGraph(3, [(0, 2)]) and u.entry(2, 0) == -1j

    def test_from_edges_rejects_diagonal_pair(self):
        with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
            PhaseMatrix.from_edges(2, {(1, 1): 1.0})

    @pytest.mark.parametrize("pair", [(0, 5), (0, 10 ** 29), (-1, 2), (3, 0)])
    def test_from_edges_checks_the_range_before_writing(self, pair):
        with pytest.raises(ValueError, match=r"^edge \(.*\) out of range for n = 3$"):
            PhaseMatrix.from_edges(3, {pair: 1j})

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="unimodular"):
            PhaseMatrix.from_edges(2, {(0, 1): 0.5})

    def test_diagonal_is_refused_in_the_words_of_the_gram_matrix(self):
        with pytest.raises(ValueError, match=r"^diagonal is not 1: max \|u_ii - 1\| = 0\.5$"):
            PhaseMatrix(2, [[1, 0], [0, 0.5]], SupportGraph(2, []))
        with pytest.raises(ValueError, match=r"^diagonal is not 1: max \|g_ii - 1\| = 0\.5$"):
            GramMatrix([[1, 0], [0, 0.5]])

    def test_rejects_non_reciprocal(self):
        a = np.eye(3, dtype=complex)
        a[0, 1] = 1j
        a[1, 0] = 1j  # should be -1j
        with pytest.raises(ValueError, match="reciprocal"):
            PhaseMatrix(3, a, SupportGraph(3, frozenset({(0, 1)})))

    def test_rejects_stray_off_support_entry(self):
        a = np.eye(3, dtype=complex)
        a[1, 2] = 1.0
        with pytest.raises(ValueError, match="off the support"):
            PhaseMatrix(3, a, SupportGraph(3, frozenset()))

    def test_rejects_support_size_mismatch(self):
        with pytest.raises(ValueError, match="support graph size"):
            PhaseMatrix(2, np.eye(2, dtype=complex), SupportGraph(3, frozenset()))


class TestSupportGraph:
    def test_edges_normalized(self):
        g = SupportGraph(4, frozenset({(2, 0), (3, 1)}))
        assert g.edges == frozenset({(0, 2), (1, 3)})
        assert g.has_edge(0, 2) and g.has_edge(2, 0)

    def test_degree_and_complement(self):
        g = SupportGraph(3, frozenset({(0, 1)}))
        assert [g.degree(v) for v in range(3)] == [1, 1, 0]
        assert g.complement().edges == frozenset({(0, 2), (1, 2)})

    def test_connected_components(self):
        g = SupportGraph(5, frozenset({(0, 3), (1, 2)}))
        assert g.connected_components() == [[0, 3], [1, 2], [4]]

    def test_mask_is_read_only_and_round_trips(self):
        g = SupportGraph(5, frozenset({(3, 0), (1, 2), (2, 4)}))
        m = g.mask
        assert m[0, 3] and m[3, 0] and m.sum() == 6 and not m.diagonal().any()
        assert not m.flags.writeable
        assert SupportGraph.from_mask(m) == g

    def test_bfs_visits_neighbours_in_ascending_order(self):
        g = SupportGraph(6, frozenset({(0, 3), (0, 1), (1, 4), (3, 4), (2, 4)}))
        assert g.bfs(0) == [(0, 1), (0, 3), (1, 4), (4, 2)]
        assert g.bfs(5) == []

    def test_lookups_do_not_wrap_negative_indices(self):
        g = SupportGraph(3, frozenset({(1, 2)}))
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(-1, 0) and not g.has_edge(2, -2)
        assert not g.has_edge(0, 5) and not g.has_edge(10 ** 29, 0)
        u = PhaseMatrix.from_edges(3, {(1, 2): 1j})
        for i, j in [(2, -2), (-2, 2), (0, 5)]:
            assert not u.has(i, j)
            with pytest.raises(ValueError, match="no phase available"):
                u.entry(i, j)

    @pytest.mark.parametrize("v", [-1, 3])
    def test_degree_refuses_a_vertex_out_of_range(self, v):
        with pytest.raises(ValueError, match=f"vertex {v} out of range for n = 3"):
            SupportGraph(3, [(1, 2)]).degree(v)

    @pytest.mark.parametrize("v", [-1, 3])
    def test_bfs_refuses_a_vertex_out_of_range(self, v):
        with pytest.raises(ValueError, match=f"vertex {v} out of range for n = 3"):
            SupportGraph(3, [(1, 2)]).bfs(v)

    @pytest.mark.parametrize("v", [-1, 5])
    def test_no_diagonal_phase_outside_the_vertices(self, v):
        u = PhaseMatrix.from_edges(3, {(1, 2): 1j})
        assert not u.has(v, v)
        with pytest.raises(ValueError, match=f"no phase available for pair \\({v}, {v}\\)"):
            u.entry(v, v)
        with pytest.raises(ValueError, match="no phase available"):
            u.angle(v, v)

    def test_pairs_are_read_only_and_row_major(self):
        g = SupportGraph(4, frozenset({(3, 1), (2, 0), (0, 1)}))
        i, j = g.pairs
        assert i.tolist() == [0, 0, 1] and j.tolist() == [1, 2, 3]
        assert not i.flags.writeable and not j.flags.writeable
        assert g.n == 4 and not g.is_complete()

    def test_equality_compares_masks_and_graphs_are_unhashable(self):
        g = SupportGraph(3, frozenset({(0, 1)}))
        assert g == SupportGraph(3, [(1, 0)])
        assert g != SupportGraph(3, frozenset({(0, 2)}))
        assert g != SupportGraph(4, frozenset({(0, 1)}))
        assert g != g.mask
        with pytest.raises(TypeError):
            hash(g)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            SupportGraph(3, frozenset({(1, 1)}))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            SupportGraph(2, frozenset({(0, 2)}))

    @pytest.mark.parametrize("edges", [
        [(True, 2)], [(False, 1)], [(0.0, 1)], [(0, 1), (2, np.float64(1.0))], [(0, 1), (None, 2)],
    ])
    def test_rejects_an_index_that_is_no_integer(self, edges):
        # (True, 2) wrote an asymmetric mask with a self-loop, (False, 1)
        # dropped the edge, and (0.0, 1) raised IndexError
        message = f"edge {edges[-1]!r} must hold integers"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SupportGraph(3, edges)

    def test_names_the_first_offending_pair_in_input_order(self):
        with pytest.raises(ValueError, match=r"^edge \(0, 5\) out of range for n = 3$"):
            SupportGraph(3, [(0, 1), (0, 5), (1, 1)])
        with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
            SupportGraph(3, [(0, 1), (1, 1), (0, 5)])
        with pytest.raises(ValueError, match=r"^self-loop at vertex 4$"):
            SupportGraph(3, [(4, 4)])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                             .filter(lambda e: e[0] != e[1]), max_size=30))))
    def test_mask_matches_one_built_pair_by_pair(self, n_edges):
        # edge lists with repeats and reversed pairs, as any iterable would give them
        n, edges = n_edges
        edges = edges + [(j, i) for i, j in edges[::2]]
        expected = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            expected[i, j] = expected[j, i] = True
        mask = SupportGraph(n, edges).mask
        assert np.array_equal(mask, mask.T) and not mask.diagonal().any()
        assert np.array_equal(mask, expected)

    def test_a_mask_too_large_to_allocate_is_a_value_error(self):
        # 888 PiB of booleans: numpy refuses the allocation itself, and a
        # broadcast view of that shape costs nothing to make
        message = "^a support mask on n = 1000000000 vertices cannot be allocated$"
        with pytest.raises(ValueError, match=message):
            SupportGraph(10 ** 9, [])
        with pytest.raises(ValueError, match=message):
            SupportGraph.from_mask(np.broadcast_to(True, (10 ** 9, 10 ** 9)))

    def test_from_mask_keeps_the_upper_triangle_of_any_truthy_mask(self):
        m = np.array([[1, 2, 0], [0, 5, 1], [3, 3, 3]])
        g = SupportGraph.from_mask(m)
        assert g.mask.dtype == bool and g == SupportGraph(3, [(0, 1), (1, 2)])

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="at least one"):
            SupportGraph(0, frozenset())
        with pytest.raises(ValueError, match="at least one"):
            SupportGraph.from_mask(np.zeros((0, 0), dtype=bool))


class TestOrthogonalityGraph:
    def test_identity_gram_gives_single_edge(self):
        g = orthogonality_graph(GramMatrix(np.eye(2, dtype=complex)))
        assert g.edges == frozenset({(0, 1)})
        assert check_matching(g)

    def test_all_ones_gram_gives_no_edges(self):
        g = orthogonality_graph(GramMatrix(np.ones((3, 3), dtype=complex)))
        assert g.edges == frozenset()

    def test_two_antipodal_pairs_form_a_matching(self, plus_minus_family):
        g = orthogonality_graph(gram(plus_minus_family))
        assert g.edges == frozenset({(0, 1), (2, 3)})
        assert check_matching(g)

    def test_octant_has_no_orthogonal_pairs(self, octant_family):
        g = orthogonality_graph(gram(octant_family))
        assert g.edges == frozenset()
        assert check_matching(g)

    def test_shared_vertex_breaks_matching(self):
        assert not check_matching(SupportGraph(3, frozenset({(0, 1), (1, 2)})))

    def test_complements_phase_support(self):
        # at every tolerance: analyze takes its orthogonality graph as the
        # complement of the phase support
        g = gram(random_family(5, seed=5))
        assert orthogonality_graph(g).complement().edges == phases(g).support.edges
        rng = np.random.default_rng(38)
        for n in range(2, 20):
            fam = family_with_orthogonal_pairs(rng, n, 1)
            fam = StateFamily(fam.states + (fam[n - 1].rephased(0.3),))  # a duplicate ray
            g = gram(fam)
            for t in (0.0, DEFAULT_ZERO_TOL, 0.3, 0.7):
                assert orthogonality_graph(g, t) == phases(g, t).support.complement()


class TestMaskOperationsMatchScalarLoops:
    def test_phases_and_orthogonality_graph(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 5, 11, 24):
            g = gram(family_with_orthogonal_pairs(rng, n, n // 3))
            e = g.entries
            a = np.eye(n, dtype=complex)
            support, ortho = set(), set()
            for i in range(n):
                for j in range(i + 1, n):
                    m = abs(e[i, j])
                    if m > DEFAULT_ZERO_TOL:
                        a[i, j], a[j, i] = e[i, j] / m, e[j, i] / m
                        support.add((i, j))
                    else:
                        ortho.add((i, j))
            u = phases(g)
            assert u.support.edges == support
            assert np.array_equal(u.entries, a)
            og = orthogonality_graph(g)
            assert og.edges == ortho
            degrees = [sum(v in pair for pair in ortho) for v in range(n)]
            assert [og.degree(v) for v in range(n)] == degrees
            assert check_matching(og) == (max(degrees) <= 1)

    def test_gram_and_probabilities_round_as_the_scalar_formulas(self):
        # bit for bit, signed zeros included; x * x rather than x ** 2, which
        # libm's pow may round differently
        def bits(a):
            return np.asarray(a).view(np.int64)

        for seed in range(20):
            fam = random_family(12, seed)
            g = gram(fam)
            expected = [[a.c0.conjugate() * b.c0 + a.c1.conjugate() * b.c1 for b in fam.states]
                        for a in fam.states]
            assert np.array_equal(bits(g.entries), bits(np.array(expected)))
            assert np.array_equal(bits(np.diagonal(g.entries).imag), bits(np.zeros(12)))
            p = [[abs(z) * abs(z) for z in row] for row in expected]
            assert np.array_equal(bits(probabilities(g).entries), bits(np.array(p)))

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 13])
    def test_support_graph_from_any_mask(self, n):
        # an arbitrary square mask, asymmetric and with a True diagonal:
        # only its strict upper triangle is read
        rng = np.random.default_rng(n)
        for density in (0.0, 0.3, 0.8, 1.0):
            mask = rng.random((n, n)) < density
            np.fill_diagonal(mask, True)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
            missing = [(i, j) for i in range(n) for j in range(i + 1, n) if not mask[i, j]]
            g = SupportGraph.from_mask(mask)
            assert g.n == n
            assert [p.tolist() for p in g.pairs] == [[i for i, _ in edges], [j for _, j in edges]]
            assert g.edges == frozenset(edges)
            assert g.complement().edges == frozenset(missing)
            assert g.is_complete() == (not missing)
            assert SupportGraph(n, frozenset(edges)) == g
            assert SupportGraph(n, [(j, i) for i, j in edges]) == g
            sym = np.zeros((n, n), dtype=bool)
            for i, j in edges:
                sym[i, j] = sym[j, i] = True
            assert np.array_equal(g.mask, sym) and not g.mask.flags.writeable
            for i in range(n):
                assert g.degree(i) == sum(i in e for e in edges)
                for j in range(n):
                    assert g.has_edge(i, j) == ((min(i, j), max(i, j)) in edges)


class TestRejectsNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_matrix_types(self, bad):
        g = np.eye(2, dtype=complex)
        g[0, 1] = g[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                GramMatrix(g)
            with pytest.raises(ValueError, match="non-finite"):
                ProbabilityMatrix(g.real)
            with pytest.raises(ValueError, match="non-finite"):
                PhaseMatrix(2, g, SupportGraph(2, frozenset({(0, 1)})))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_state_types(self, bad):
        with pytest.raises(ValueError):
            QubitState(bad, 0.0)
        with pytest.raises(ValueError):
            BlochVector(bad, 0.0, 1.0)

    def test_huge_finite_states_raise_value_error_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\|c0\|\^2 \+ \|c1\|\^2 = inf$"):
                QubitState(1e200, 0.0)
            with pytest.raises(ValueError, match=r"\|n\| = inf$"):
                BlochVector(1e200, 0.0, 0.0)
            with pytest.raises(ValueError, match=r"\|n\| = 1e\+200$"):
                from_bloch([1e200, 0.0, 0.0])


class TestMatrixConditions:
    def test_huge_finite_non_hermitian_input_does_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"not Hermitian: max \|g - g\*\| = inf$"):
                GramMatrix([[1, 1e308], [-1e308, 1]])
            assert deviations(np.array([[1, 1e308], [-1e308, 1]], dtype=complex)) == (
                math.inf, 0.0)

    @pytest.mark.parametrize("make, message", [
        (lambda: GramMatrix([[1, 0.1], [0.0, 1]]), "max |g - g*| = 0.1"),
        (lambda: GramMatrix([[1.5, 0.0], [0.0, 1]]), "max |g_ii - 1| = 0.5"),
        (lambda: ProbabilityMatrix([[1, 0.2], [0.3, 1]]), "max |p - p^T| = 0.09999999999999998"),
        (lambda: ProbabilityMatrix([[1, 0.2], [0.2, 0.5]]), "max |p_ii - 1| = 0.5"),
        (lambda: PhaseMatrix(1, [[1j]], SupportGraph(1, frozenset())),
         "max |u_ii - 1| = 1.4142135623730951"),
        (lambda: PhaseMatrix.from_edges(2, {(0, 1): 0.5}), "|u| = 0.5"),
    ])
    def test_messages_print_plain_floats(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value).endswith(message)
        assert "np." not in str(info.value)

    def test_deviations_are_python_floats_with_the_unhalved_bits(self):
        rng = np.random.default_rng(5)
        for n in range(1, 9):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            herm, diag = deviations(a)
            assert type(herm) is float and type(diag) is float
            assert herm == max(map(abs, (a - a.conj().T).ravel().tolist()))
            assert diag == max(map(abs, (np.diagonal(a) - 1.0).tolist()))

    # sha256 of the reprs of deviations on 300 seeded complex 20 x 20 matrices
    DEVIATIONS = """
import hashlib
import numpy as np
from qpc.comparisons import deviations
rng = np.random.default_rng(0)
out = [repr(deviations(rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))))
       for _ in range(300)]
print(hashlib.sha256("\\n".join(out).encode()).hexdigest())
"""

    @pytest.mark.parametrize("env", [{}, {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4"}])
    def test_deviations_print_one_hash_without_numpy_s_simd_loops(self, env):
        # moduli rounds as the scalar abs, so no SIMD level decides a bit
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-W", "error", "-c", self.DEVIATIONS],
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=src, **env))
        assert proc.stdout == "1d26ef7d71742440d7be121fb62e7f64c22903bdfeb028916bb96528cc954bcf\n"

    def test_empty_matrix_is_refused_with_a_reason(self):
        empty = np.zeros((0, 0))
        for make in (GramMatrix, ProbabilityMatrix, check_gram,
                     lambda a: PhaseMatrix(0, a, None)):
            with pytest.raises(ValueError, match="matrix is empty"):
                make(empty)

    def test_non_square_is_refused(self):
        for make in (GramMatrix, ProbabilityMatrix, check_gram):
            with pytest.raises(ValueError, match="expected a square matrix"):
                make(np.ones((2, 3)))


class TestRephasingCovariance:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3))
    def test_gram_and_phase_transform_covariantly(self, thetas):
        # g'_ij = exp(-i t_i) g_ij exp(i t_j); probabilities untouched
        base = StateFamily(
            (QubitState(1.0, 0.0), QubitState(SQ2, SQ2), QubitState(SQ2, 1j * SQ2))
        )
        fam = StateFamily(
            tuple(s.rephased(t) for s, t in zip(base.states, thetas))
        )
        g0, g1 = gram(base), gram(fam)
        w = np.exp(1j * np.array(thetas))
        expected = np.conj(w)[:, None] * g0.entries * w[None, :]
        assert np.max(np.abs(g1.entries - expected)) < 1e-12
        p0, p1 = probabilities(g0), probabilities(g1)
        assert np.max(np.abs(p1.entries - p0.entries)) < 1e-12
        u0, u1 = phases(g0), phases(g1)
        assert u1.support.edges == u0.support.edges
        for i, j in sorted(u0.support.edges):
            want = w[i].conjugate() * u0.entry(i, j) * w[j]
            assert u1.entry(i, j) == pytest.approx(want, abs=1e-12)
