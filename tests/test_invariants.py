"""Tests for three-point loop invariants and their Bloch-sphere forms."""

import cmath
import math
import re
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpc import (
    DEFAULT_ZERO_TOL,
    GramMatrix,
    QubitState,
    StateFamily,
    TriangleTable,
    all_triangles,
    bargmann,
    bargmann_bloch,
    defect,
    family_from_json,
    gram,
    load_text,
    phases,
    random_family,
    solid_angle,
    to_bloch,
    triangle_report,
)
from qpc import invariants
from qpc.comparisons import moduli, principal_angle
from qpc.invariants import TRIANGLE_BLOCK, Triples, triangle_table
from tests.conftest import (family_with_orthogonal_pairs, family_with_support,
                            inconsistent_family)

SQ2 = 2.0 ** -0.5
GOLDEN_B = 0.25 + 0.25j
GOLDEN_KAPPA = cmath.exp(0.25j * math.pi)


def orthogonal_pairs_family() -> StateFamily:
    return StateFamily(
        (
            QubitState(1.0, 0.0),
            QubitState(0.0, 1.0),
            QubitState(SQ2, SQ2),
            QubitState(SQ2, -SQ2),
        )
    )


class TestBargmann:
    def test_octant_golden_value(self, octant_family):
        b = bargmann(gram(octant_family), 0, 1, 2)
        assert b == pytest.approx(GOLDEN_B, abs=1e-15)

    def test_repeated_state_gives_one(self):
        s = QubitState(0.6, 0.8j)
        g = gram(StateFamily((s, s, s)))
        assert bargmann(g, 0, 1, 2) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_pair_annihilates(self):
        fam = StateFamily(
            (QubitState(1.0, 0.0), QubitState(0.0, 1.0), QubitState(SQ2, SQ2))
        )
        assert bargmann(gram(fam), 0, 1, 2) == 0.0

    def test_cyclic_invariance(self):
        _, g = family_with_support(np.random.default_rng(3), 5)
        b = bargmann(g, 1, 3, 4)
        assert bargmann(g, 3, 4, 1) == pytest.approx(b, abs=1e-15)
        assert bargmann(g, 4, 1, 3) == pytest.approx(b, abs=1e-15)

    def test_swap_conjugates(self):
        _, g = family_with_support(np.random.default_rng(4), 4)
        b = bargmann(g, 0, 1, 2)
        assert bargmann(g, 0, 2, 1) == pytest.approx(b.conjugate(), abs=1e-15)

    def test_modulus_is_product_of_overlaps(self, octant_family):
        g = gram(octant_family)
        want = abs(g.entry(0, 1)) * abs(g.entry(1, 2)) * abs(g.entry(2, 0))
        assert abs(bargmann(g, 0, 1, 2)) == pytest.approx(want, abs=1e-15)

    def test_rejects_out_of_range_index(self, octant_family):
        with pytest.raises(ValueError, match="out of range"):
            bargmann(gram(octant_family), 0, 1, 3)

    def test_rejects_repeated_index(self, octant_family):
        with pytest.raises(ValueError, match="repeated"):
            bargmann(gram(octant_family), 0, 1, 1)

    @pytest.mark.parametrize("f", ["bargmann", "defect", "triangle_report"])
    @pytest.mark.parametrize("triple", [
        (True, 2, 0), (0.0, 1, 2), (0, 1, np.float64(2.0)), (0, np.bool_(True), 2)])
    def test_rejects_a_non_integer_index(self, octant_family, f, triple):
        g = gram(octant_family)
        target = phases(g) if f == "defect" else g
        shown = re.escape(f"triple ({', '.join(map(repr, triple))}) must hold integers")
        with pytest.raises(ValueError, match=shown):
            getattr(invariants, f)(target, *triple)

    def test_takes_numpy_integer_indices(self, octant_family):
        g = gram(octant_family)
        assert bargmann(g, *np.array([0, 1, 2])) == bargmann(g, 0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3))
    def test_rephasing_invariance(self, thetas):
        base = StateFamily(
            (QubitState(1.0, 0.0), QubitState(SQ2, SQ2), QubitState(SQ2, 1j * SQ2))
        )
        fam = StateFamily(
            tuple(s.rephased(t) for s, t in zip(base.states, thetas))
        )
        assert bargmann(gram(fam), 0, 1, 2) == pytest.approx(
            bargmann(gram(base), 0, 1, 2), abs=1e-12
        )


class TestDefect:
    def test_octant_golden_value(self, octant_family):
        u = phases(gram(octant_family))
        assert defect(u, 0, 1, 2) == pytest.approx(GOLDEN_KAPPA, abs=1e-15)

    def test_is_unimodular(self):
        _, g = family_with_support(np.random.default_rng(9), 6)
        assert abs(defect(phases(g), 2, 4, 5)) == pytest.approx(1.0, abs=1e-12)

    def test_rephased_copies_of_one_ray_telescope_to_one(self):
        base = QubitState(SQ2, SQ2)
        fam = StateFamily(tuple(base.rephased(a) for a in (0.3, -1.1, 2.5, 0.7)))
        u = phases(gram(fam))
        for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            assert defect(u, i, j, k) == pytest.approx(1.0, abs=1e-12)

    def test_depends_only_on_rays(self):
        rng = np.random.default_rng(11)
        fam, g = family_with_support(rng, 4)
        rep = StateFamily(
            tuple(
                s.rephased(t)
                for s, t in zip(fam.states, rng.uniform(-math.pi, math.pi, 4))
            )
        )
        want = defect(phases(g), 0, 2, 3)
        assert defect(phases(gram(rep)), 0, 2, 3) == pytest.approx(want, abs=1e-12)

    def test_rejects_triangle_off_support(self):
        u = phases(gram(orthogonal_pairs_family()))
        with pytest.raises(ValueError, match="not in support"):
            defect(u, 0, 1, 2)


class TestTriangleReport:
    def test_octant_golden_values(self, octant_family):
        r = triangle_report(gram(octant_family), 0, 1, 2)
        assert r.triple == (0, 1, 2)
        assert r.bargmann == pytest.approx(GOLDEN_B, abs=1e-12)
        assert r.defect == pytest.approx(GOLDEN_KAPPA, abs=1e-12)
        assert r.pancharatnam == pytest.approx(math.pi / 4, abs=1e-12)
        assert r.solid_angle == pytest.approx(-math.pi / 2, abs=1e-12)
        assert r.amplitude_factor == pytest.approx(SQ2 / 2.0, abs=1e-12)

    def test_internal_identities(self):
        _, g = family_with_support(np.random.default_rng(17), 5)
        r = triangle_report(g, 0, 2, 4)
        assert r.bargmann == pytest.approx(r.amplitude_factor * r.defect, abs=1e-15)
        assert r.solid_angle == -2.0 * r.pancharatnam
        assert -math.pi < r.pancharatnam <= math.pi

    def test_reversed_orientation_conjugates(self):
        _, g = family_with_support(np.random.default_rng(21), 4)
        fwd = triangle_report(g, 0, 1, 2)
        rev = triangle_report(g, 0, 2, 1)
        assert rev.defect == pytest.approx(fwd.defect.conjugate(), abs=1e-12)
        assert rev.pancharatnam == pytest.approx(-fwd.pancharatnam, abs=1e-12)
        assert rev.amplitude_factor == pytest.approx(fwd.amplitude_factor, abs=1e-15)

    def test_equal_states_give_zero_phases(self):
        s = QubitState(0.6, 0.8j)
        r = triangle_report(gram(StateFamily((s, s, s))), 0, 1, 2)
        assert r.pancharatnam == pytest.approx(0.0, abs=1e-15)
        assert r.solid_angle == pytest.approx(0.0, abs=1e-15)
        assert r.amplitude_factor == pytest.approx(1.0, abs=1e-15)

    def test_unit_defect_iff_positive_real_invariant(self):
        # coherent side: one ray under three phases
        base = QubitState(SQ2, SQ2)
        fam = StateFamily(tuple(base.rephased(a) for a in (0.3, -1.1, 2.5)))
        r = triangle_report(gram(fam), 0, 1, 2)
        assert abs(r.defect - 1.0) <= 1e-9
        assert r.bargmann.real > 0
        assert abs(r.bargmann.imag) <= 1e-9 * abs(r.bargmann)
        # generic side: both conditions fail together
        g = gram(
            StateFamily(
                (QubitState(1.0, 0.0), QubitState(SQ2, SQ2), QubitState(SQ2, 1j * SQ2))
            )
        )
        r = triangle_report(g, 0, 1, 2)
        assert abs(r.defect - 1.0) > 1e-9
        assert abs(r.bargmann.imag) > 1e-9 * abs(r.bargmann)

    def test_rejects_vanishing_overlap(self):
        g = gram(orthogonal_pairs_family())
        with pytest.raises(ValueError, match="phase undefined"):
            triangle_report(g, 0, 1, 2)

    def test_real_negative_invariant_hits_plus_pi_branch(self):
        # structurally valid overlap data with B = -0.32 exactly
        m = np.array(
            [[1.0, 0.8, -0.5], [0.8, 1.0, 0.8], [-0.5, 0.8, 1.0]], dtype=complex
        )
        r = triangle_report(GramMatrix(m), 0, 1, 2)
        assert r.bargmann == pytest.approx(-0.32, abs=1e-15)
        assert r.bargmann.imag == 0.0
        assert r.pancharatnam == math.pi
        assert r.solid_angle == -2.0 * math.pi


class TestBargmannBloch:
    def test_octant_golden_value(self):
        z, x, y = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
        assert bargmann_bloch(z, x, y) == pytest.approx(GOLDEN_B, abs=1e-15)

    def test_accepts_bloch_vector_objects(self, octant_family):
        ns = [to_bloch(s) for s in octant_family.states]
        assert bargmann_bloch(*ns) == pytest.approx(GOLDEN_B, abs=1e-12)

    def test_agrees_with_overlap_route(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            fam, g = family_with_support(rng, 4)
            ns = [to_bloch(s) for s in fam.states]
            for i, j, k in ((0, 1, 2), (0, 1, 3), (1, 3, 2)):
                assert bargmann_bloch(ns[i], ns[j], ns[k]) == pytest.approx(
                    bargmann(g, i, j, k), abs=1e-12
                )

    def test_equal_vectors_give_one(self):
        n = (0.0, 0.6, 0.8)
        assert bargmann_bloch(n, n, n) == pytest.approx(1.0, abs=1e-15)

    def test_antipodal_pair_gives_zero(self):
        z, x = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
        mz = (0.0, 0.0, -1.0)
        assert bargmann_bloch(z, mz, x) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3-vector"):
            bargmann_bloch((1.0, 0.0), (0.0, 1.0), (0.0, 0.0))


class TestSolidAngle:
    def test_octant_is_minus_quarter_sphere(self):
        z, x, y = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
        assert solid_angle(z, x, y) == pytest.approx(-math.pi / 2, abs=1e-15)

    def test_orientation_flip_negates(self):
        z, x, y = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
        assert solid_angle(z, y, x) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_repeated_vertex_gives_zero(self):
        z, x = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
        assert solid_angle(z, z, x) == 0.0

    def test_short_great_circle_arc_gives_zero(self):
        z, x = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
        mid = (SQ2, 0.0, SQ2)
        assert solid_angle(z, mid, x) == 0.0

    def test_hemisphere_boundary_gives_minus_two_pi(self):
        s = math.sin(2.0 * math.pi / 3.0)
        a, b, c = (1.0, 0.0, 0.0), (-0.5, s, 0.0), (-0.5, -s, 0.0)
        assert solid_angle(a, b, c) == -2.0 * math.pi

    def test_rejects_antipodal_pair(self):
        z, x = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="antipodal"):
            solid_angle(z, (0.0, 0.0, -1.0), x)

    def test_half_angle_exponential_matches_defect(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            fam, g = family_with_support(rng, 3)
            ns = [to_bloch(s).vector for s in fam.states]
            omega = solid_angle(*ns)
            kappa = defect(phases(g), 0, 1, 2)
            assert cmath.exp(-0.5j * omega) == pytest.approx(kappa, abs=1e-9)

    def test_is_minus_twice_the_phase_of_bargmann_bloch_bit_for_bit(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            ns = [to_bloch(s) for s in random_family(3, rng).states]
            assert solid_angle(*ns) == -2.0 * cmath.phase(bargmann_bloch(*ns))


class TestBlochInputs:
    """bargmann_bloch and solid_angle take raw 3-vectors by from_bloch's
    rule: finite, with a length within TOL_SPHERE of 1."""

    @pytest.mark.parametrize("f", [bargmann_bloch, solid_angle])
    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad, length", [
        ((3.0, 0.0, 0.0), "3.0"),
        ((math.nan, 0.0, 0.0), "nan"),
        ((math.inf, 0.0, 0.0), "inf"),
        ((0.0, -math.inf, 0.0), "inf"),
        ((1e200, 1e200, 1e200), "1.7320508075688773e+200"),
        ((1.7e308, 1.7e308, 0.0), "inf"),
        ((0.0, 0.0, 1.0 + 1e-6), "1.000001"),
        ((0.0, 0.0, 0.0), "0.0"),
    ])
    def test_a_vector_off_the_sphere_is_refused(self, f, position, bad, length):
        vertices = [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
        vertices[position] = bad
        with pytest.raises(ValueError, match=re.escape(f"not on sphere: |n| = {length}")):
            f(*vertices)

    @pytest.mark.parametrize("f", [bargmann_bloch, solid_angle])
    def test_a_vector_within_the_tolerance_is_taken_as_given(self, f):
        # not normalized: the result is that of the raw vector
        tilted = np.array([0.0, 0.0, 1.0 + 1e-10])
        x, y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        dots, triple = float(tilted @ x + x @ y + y @ tilted), float(tilted @ np.cross(x, y))
        expected = (complex(0.25 * (1.0 + dots), 0.25 * triple) if f is bargmann_bloch
                    else -2.0 * math.atan2(triple, 1.0 + dots))
        assert f(tilted, x, y) == expected

    def test_bloch_vectors_keep_their_bits(self):
        # the dot products summed in index order, in Python floats, which no
        # BLAS kernel rounds
        def dot(u, v):
            return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

        rng = np.random.default_rng(43)
        for _ in range(25):
            fam, _ = family_with_support(rng, 3)
            ns = [to_bloch(s) for s in fam.states]
            a, b, c = (n.vector.tolist() for n in ns)
            cross = [b[1] * c[2] - b[2] * c[1], b[2] * c[0] - b[0] * c[2], b[0] * c[1] - b[1] * c[0]]
            dots, triple = dot(a, b) + dot(b, c) + dot(c, a), dot(a, cross)
            assert bargmann_bloch(*ns) == complex(0.25 * (1.0 + dots), 0.25 * triple)
            assert solid_angle(*ns) == -2.0 * math.atan2(triple, 1.0 + dots)


class TestAllTriangles:
    def test_two_states_yield_empty_list(self):
        fam = StateFamily((QubitState(1.0, 0.0), QubitState(SQ2, SQ2)))
        assert list(all_triangles(gram(fam))) == []

    def test_octant_yields_single_report(self, octant_family):
        reports = all_triangles(gram(octant_family))
        assert [r.triple for r in reports] == [(0, 1, 2)]

    def test_orthogonal_pairs_suppress_all_triples(self):
        assert list(all_triangles(gram(orthogonal_pairs_family()))) == []

    def test_full_support_counts_and_order(self):
        _, g = family_with_support(np.random.default_rng(55), 6)
        reports = all_triangles(g)
        triples = [r.triple for r in reports]
        assert len(triples) == 20
        assert triples == sorted(triples)
        assert all(i < j < k for i, j, k in triples)

    def test_kernel_equals_scalar_reference(self):
        rng = np.random.default_rng(2026)
        for n in (3, 4, 7, 12, 20, 30):
            fam = family_with_orthogonal_pairs(rng, n, n // 4)
            # a repeated ray as well, so some defects are exactly real
            fam = StateFamily(fam.states[:-1] + (fam.states[0].rephased(0.3),))
            g = gram(fam)
            expected = [
                triangle_report(g, i, j, k)
                for i, j, k in combinations(range(n), 3)
                if min(abs(g.entries[i, j]), abs(g.entries[j, k]), abs(g.entries[k, i]))
                > DEFAULT_ZERO_TOL
            ]
            assert list(all_triangles(g)) == expected

    def test_table_columns(self):
        _, g = family_with_support(np.random.default_rng(55), 6)
        table = all_triangles(g)
        assert isinstance(table, TriangleTable) and len(table) == 20
        assert table.triples.shape == (20, 3) and table.triples.dtype.kind == "i"
        for name, dtype in (("bargmann", complex), ("defect", complex), ("pancharatnam", float),
                            ("solid_angle", float), ("amplitude_factor", float)):
            column = getattr(table, name)
            assert column.shape == (20,) and column.dtype == dtype
            assert not column.flags.writeable
        assert not table.triples.flags.writeable

    def test_angle_columns_are_derived_once_from_the_defects(self, monkeypatch):
        _, g = family_with_support(np.random.default_rng(55), 6)
        table = all_triangles(g)
        calls = []
        monkeypatch.setattr(invariants, "principal_angle",
                            lambda z: calls.append(z) or principal_angle(z))
        assert "pancharatnam" not in vars(table) and "solid_angle" not in vars(table)
        expected = principal_angle(table.defect)
        assert table.solid_angle.tobytes() == (-2.0 * expected).tobytes()
        assert table.pancharatnam.tobytes() == expected.tobytes()
        assert table.pancharatnam is table.pancharatnam
        assert table.solid_angle is table.solid_angle
        assert len(calls) == 1 and calls[0] is table.defect
        for name in ("pancharatnam", "solid_angle"):
            assert not getattr(table, name).flags.writeable
            with pytest.raises(AttributeError):
                setattr(table, name, expected)

    def test_empty_table(self):
        table = all_triangles(gram(orthogonal_pairs_family()))
        assert len(table) == 0 and list(table) == []
        assert table.triples.shape == (0, 3)
        assert table.pancharatnam.shape == (0,) and table.bargmann.dtype == complex

    def test_reports_carry_the_reference_bits(self):
        # signed zeros in the defects and pancharatnam phases, which == ignores
        path = Path(__file__).parent / "data" / "analyze" / "negative_zero.json"
        g = gram(family_from_json(load_text(str(path)))[0])
        reports = list(all_triangles(g))
        expected = [triangle_report(g, *t) for t in combinations(range(g.n), 3)]

        def bits(r):
            return (r.triple, repr(complex(r.bargmann)), repr(complex(r.defect)),
                    repr(float(r.pancharatnam)), repr(float(r.solid_angle)),
                    repr(float(r.amplitude_factor)))

        assert [bits(r) for r in reports] == [bits(r) for r in expected]
        assert "pancharatnam=-0.0" in repr(reports)
        assert all(type(v) is int for r in reports for v in r.triple)

    @pytest.mark.parametrize("n, p", [(1, 1.0), (3, 1.0), (9, 0.0), (9, 0.6), (40, 0.5), (40, 1.0)])
    def test_triples_count_and_make_any_range_of_rows(self, n, p):
        rng = np.random.default_rng(n)
        m = np.triu(rng.random((n, n)) < p, 1)
        m = m | m.T
        expected = [list(t) for t in combinations(range(n), 3)
                    if all(m[a, b] for a, b in combinations(t, 2))]
        triples = Triples(m)
        assert len(triples) == len(expected)
        for size in (1, 7, TRIANGLE_BLOCK):
            ranges = list(triples.ranges(size))
            assert all(0 < len(r) <= size for r in ranges)
            assert [row for r in ranges for row in triples.rows(r).tolist()] == expected
        # ranges out of order, within one first vertex and across several
        for start, stop in [(5, 6), (0, 40), (37, 400), (3, len(expected)), (2, 2)]:
            r = range(min(start, len(expected)), min(stop, len(expected)))
            assert triples.rows(r).tolist() == expected[r.start:r.stop]

    def test_triples_refuse_a_bad_size_or_range(self):
        triples = Triples(~np.eye(6, dtype=bool))
        assert len(triples) == 20
        for size in (-7, 0):
            with pytest.raises(ValueError, match="at least 1"):
                triples.ranges(size)
        for r in (range(0, 20, 5), range(-3, 20), range(0, 21)):
            with pytest.raises(ValueError, match="not a range of rows of 20 triples"):
                triples.rows(r)
        assert triples.rows(range(20, 20)).shape == (0, 3)


def _two_states():
    return StateFamily((QubitState(1.0, 0.0), QubitState(SQ2, SQ2)))


def triangle_blocks(g, zero_tol=DEFAULT_ZERO_TOL):
    """all_triangles(g, zero_tol) a block of rows at a time: triangle_table
    on the ranges of TRIANGLE_BLOCK rows of the support's Triples."""
    u = phases(g, zero_tol)
    m = moduli(g.entries)
    triples = Triples(u.support.mask)
    for r in triples.ranges(TRIANGLE_BLOCK):
        yield triangle_table(g.entries, m, u.entries, triples.rows(r))


class TestTriangleBlocks:
    """The bounded-memory walk of Triples through triangle_table is
    all_triangles a block of rows at a time."""

    FAMILIES = {
        # vertex 0's 4,851 triples span the first five blocks
        "complete n=100": lambda: family_with_support(np.random.default_rng(17), 100)[0],
        "one orthogonal pair n=100": lambda: family_with_orthogonal_pairs(
            np.random.default_rng(18), 100, 1),
        "two states": _two_states,
        "orthogonal pairs only": orthogonal_pairs_family,
    }

    @pytest.mark.parametrize("name", FAMILIES)
    def test_blocks_concatenate_to_all_triangles_bit_for_bit(self, name):
        g = gram(self.FAMILIES[name]())
        table = all_triangles(g)
        blocks = list(triangle_blocks(g))
        assert all(0 < len(b) <= TRIANGLE_BLOCK for b in blocks)
        assert all(len(b) == TRIANGLE_BLOCK for b in blocks[:-1])
        for column in ("triples", "bargmann", "defect", "pancharatnam", "solid_angle",
                       "amplitude_factor"):
            whole = getattr(table, column)
            parts = [getattr(b, column) for b in blocks]
            joined = np.concatenate([whole[:0], *parts])
            assert joined.dtype == whole.dtype and joined.shape == whole.shape
            assert joined.tobytes() == whole.tobytes(), column

    def test_a_block_can_split_the_triples_of_one_vertex(self):
        g = gram(self.FAMILIES["complete n=100"]())
        firsts = [b.triples[:, 0] for b in triangle_blocks(g)]
        # the block where vertex 0's 99 * 98 / 2 triples end holds vertex 1's first
        end = next(e for e, first in enumerate(firsts) if np.any(first != 0))
        assert end > 0 and all(np.all(first == 0) for first in firsts[:end])
        assert np.count_nonzero(firsts[end] == 0) == 99 * 98 // 2 % TRIANGLE_BLOCK > 0

    def test_every_route_refuses_inconsistent_defects_alike(self):
        # the Bargmann invariant of (0, 1, 2) is about 1e-320, whose
        # normalization overflows, or 0, which the scalar route once divided
        # by (ZeroDivisionError)
        for tiny, delta in [(1e-160, "inf"), (1e-200, "nan")]:
            g = gram(inconsistent_family(tiny))
            message = ("defect and normalized Bargmann invariant of triangle (0, 1, 2) "
                       f"disagree: |delta| = {delta}")
            for route in (lambda: all_triangles(g, 0.0), lambda: list(triangle_blocks(g, 0.0)),
                          lambda: triangle_report(g, 0, 1, 2, 0.0)):
                with pytest.raises(ArithmeticError) as refused:
                    route()
                assert str(refused.value) == message
