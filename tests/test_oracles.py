"""Tests pinning the independent recomputation paths to the main code."""

import ast
from pathlib import Path

import numpy as np
import pytest

from qpc import (
    OracleReport,
    QubitState,
    StateFamily,
    bargmann,
    gram,
    oracle_bargmann_direct,
    oracle_pauli_traces,
    oracle_trace_product,
    random_family,
)
from qpc.oracles import _largest_minor

SQ2 = 2.0 ** -0.5


class TestBargmannOracles:
    def test_octant_golden_value(self, octant_family):
        b = oracle_bargmann_direct(octant_family, 0, 1, 2)
        assert b == pytest.approx(0.25 + 0.25j, abs=1e-15)
        t = oracle_trace_product(octant_family, 0, 1, 2)
        assert t == pytest.approx(0.25 + 0.25j, abs=1e-15)

    def test_trace_of_two_projectors_is_overlap_probability(self):
        # Tr(P_z P_x) = |<0|+>|^2 = 1/2, recovered from the three-factor
        # trace with a repeated middle state since P^2 = P
        fam = StateFamily((QubitState(1.0, 0.0), QubitState(SQ2, SQ2)))
        t = oracle_trace_product(StateFamily(fam.states + (fam.states[1],)), 0, 1, 2)
        assert t == pytest.approx(0.5, abs=1e-15)

    def test_routes_agree_with_each_other_and_the_main_path(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            fam = random_family(5, rng)
            g = gram(fam)
            i, j, k = map(int, rng.choice(5, size=3, replace=False))
            direct = oracle_bargmann_direct(fam, i, j, k)
            trace = oracle_trace_product(fam, i, j, k)
            assert trace == pytest.approx(direct, abs=1e-14)
            assert bargmann(g, i, j, k) == pytest.approx(direct, abs=1e-14)


class TestPauliTraces:
    def test_all_identities_hold(self):
        report = oracle_pauli_traces()
        assert report.cases_run == 36
        assert report.tolerance == 1e-15
        assert report.max_discrepancy <= 1e-15
        assert report.passed

    def test_report_line_format(self):
        line = oracle_pauli_traces().line()
        assert line.startswith("pauli_trace_identities")
        assert line.endswith("PASS")
        assert "cases=36" in line

    def test_failed_report_line(self):
        bad = OracleReport("x", 1, 1.0, 1e-15)
        assert not bad.passed
        assert bad.line().endswith("FAIL")


class TestLargestMinor:
    def test_known_minors(self):
        assert _largest_minor([[1.0, 0.5], [0.5, 1.0]]) == 0.0
        assert _largest_minor([[2.0, 0j, 0j], [0j, 1j, 0j], [0j, 0j, 3.0]]) == 6.0
        # rows and columns 1, 2, 3 of diag(1, 2, 3, 4): 24 beats 6, 8 and 12
        assert _largest_minor(np.diag([1.0, 2.0, 3.0, 4.0]).tolist()) == 24.0

    def test_a_qubit_gram_matrix_has_no_minor_and_a_qutrit_one_has(self):
        assert _largest_minor(gram(random_family(6, seed=4)).entries.tolist()) < 1e-15
        assert _largest_minor(np.eye(3).tolist()) == 1.0


class TestIndependence:
    def test_oracle_module_imports_only_state_types(self):
        # the recomputation paths must not lean on the code they check
        src = Path(__file__).resolve().parents[1] / "src" / "qpc" / "oracles.py"
        tree = ast.parse(src.read_text())
        internal = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                internal.add(node.module)
        assert internal == {"states"}
