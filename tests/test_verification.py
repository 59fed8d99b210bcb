"""Tests for the self-check property registry."""

import cmath
import math

import numpy as np
import pytest

from qpc import PhaseMatrix, gram, invariants, phases, realizability
from qpc.verification import PROPERTIES, _worst_triangle, run_all

BARGMANN_PROPERTIES = {
    "bargmann_matches_componentwise_oracle",
    "bargmann_matches_projector_trace_oracle",
    "defect_equals_normalized_bargmann",
    "bargmann_matches_bloch_formula",
    "bargmann_rephasing_invariance",
    "bargmann_permutation_symmetry",
}


def test_every_property_passes():
    reports = run_all(cases=25, seed=0)
    assert len(reports) == len(PROPERTIES)
    failed = [r.name for r in reports if not r.passed]
    assert failed == []


def test_names_are_distinct():
    names = [r.name for r in run_all(cases=2, seed=1)]
    assert len(set(names)) == len(names)


def test_deterministic_per_seed():
    a = run_all(cases=10, seed=42)
    b = run_all(cases=10, seed=42)
    assert [r.max_discrepancy for r in a] == [r.max_discrepancy for r in b]


def test_rejects_non_positive_cases():
    with pytest.raises(ValueError, match="positive"):
        run_all(cases=0, seed=0)


def test_nan_discrepancy_fails_its_property(monkeypatch):
    monkeypatch.setattr(invariants, "bargmann", lambda *args: complex(math.nan, 0.0))
    reports = {r.name: r for r in run_all(cases=3, seed=0)}
    for name in BARGMANN_PROPERTIES:
        assert math.isnan(reports[name].max_discrepancy)
        assert reports[name].passed is False
        assert reports[name].line().endswith("FAIL")


def test_worst_triangle_is_the_largest_defect_gap(octant_family):
    # a chordless square has no triangle
    square = PhaseMatrix.from_edges(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1j})
    assert _worst_triangle(square) == 0.0
    # one triangle, whose defect is exp(i pi / 4)
    worst = _worst_triangle(phases(gram(octant_family)))
    assert worst == pytest.approx(abs(cmath.exp(1j * math.pi / 4) - 1.0), abs=1e-12)


def test_potential_property_sees_a_potential_that_ignores_the_phases(monkeypatch):
    def single_ray(u, comps):
        return np.repeat([[1.0 + 0.0j, 0.0j]], u.n, axis=0)

    monkeypatch.setattr(realizability, "_potential", single_ray)
    report = PROPERTIES[-1](10, np.random.default_rng(0))
    assert report.name == "potential_residual_brackets_worst_triangle"
    assert report.passed is False
