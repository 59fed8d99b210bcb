"""Tests for the JSON document formats and their failure modes."""

import json
import math

import numpy as np
import pytest

from qpc import (
    FileFormatError,
    PhaseMatrix,
    QubitState,
    StateFamily,
    family_from_json,
    family_to_json,
    gram,
    load_text,
    matrix_from_json,
    matrix_to_json,
    phases,
    random_family,
    save_text,
)

SQ2 = 2.0 ** -0.5


def family_record(c0: complex, c1: complex) -> str:
    return json.dumps(
        {
            "version": 1,
            "states": [
                {
                    "c0": {"re": c0.real, "im": c0.imag},
                    "c1": {"re": c1.real, "im": c1.imag},
                }
            ],
        }
    )


class TestFamilyFiles:
    def test_round_trip_is_lossless_and_byte_stable(self):
        fam = random_family(5, seed=3)
        text = family_to_json(fam)
        back, warnings = family_from_json(text)
        assert warnings == []
        assert back.states == fam.states
        assert family_to_json(back) == text

    def test_labels_survive(self):
        fam = StateFamily(
            (QubitState(1.0, 0.0), QubitState(0.0, 1.0)), labels=("up", "down")
        )
        back, _ = family_from_json(family_to_json(fam))
        assert back.labels == ("up", "down")

    def test_bloch_record(self):
        text = json.dumps({"version": 1, "states": [{"bloch": [0.0, 0.0, 1.0]}]})
        fam, warnings = family_from_json(text)
        assert warnings == []
        assert fam.states[0] == QubitState(1.0, 0.0)

    def test_tiny_norm_deviation_accepted_silently(self):
        _, warnings = family_from_json(family_record(1.0 + 5e-10, 0.0))
        assert warnings == []

    def test_moderate_deviation_renormalizes_with_warning(self):
        fam, warnings = family_from_json(family_record(1.0 + 1e-7, 0.0))
        assert len(warnings) == 1 and "state 0" in warnings[0]
        assert abs(fam.states[0].c0) == pytest.approx(1.0, abs=1e-15)

    def test_gross_deviation_rejected(self):
        with pytest.raises(FileFormatError, match="not normalized"):
            family_from_json(family_record(1.001, 0.0))

    def test_bloch_windows(self):
        def doc(nz: float) -> str:
            return json.dumps({"version": 1, "states": [{"bloch": [0.0, 0.0, nz]}]})

        _, w = family_from_json(doc(1.0 + 1e-7))
        assert len(w) == 1
        with pytest.raises(FileFormatError, match="not on sphere"):
            family_from_json(doc(1.001))

    def test_rejects_invalid_json(self):
        with pytest.raises(FileFormatError, match="not valid JSON"):
            family_from_json("{nope")

    def test_rejects_wrong_version(self):
        with pytest.raises(FileFormatError, match="version"):
            family_from_json(json.dumps({"version": 2, "states": [{"bloch": [0, 0, 1]}]}))

    def test_rejects_mixed_record(self):
        rec = {
            "c0": {"re": 1.0, "im": 0.0},
            "c1": {"re": 0.0, "im": 0.0},
            "bloch": [0.0, 0.0, 1.0],
        }
        with pytest.raises(FileFormatError, match="exactly one"):
            family_from_json(json.dumps({"version": 1, "states": [rec]}))

    def test_rejects_half_amplitude_record(self):
        rec = {"c0": {"re": 1.0, "im": 0.0}}
        with pytest.raises(FileFormatError, match="both c0 and c1"):
            family_from_json(json.dumps({"version": 1, "states": [rec]}))

    def test_rejects_bad_complex_encoding(self):
        rec = {"c0": [1.0, 0.0], "c1": {"re": 0.0, "im": 0.0}}
        with pytest.raises(FileFormatError, match="re, im"):
            family_from_json(json.dumps({"version": 1, "states": [rec]}))

    def test_rejects_empty_states(self):
        with pytest.raises(FileFormatError, match="nonempty"):
            family_from_json(json.dumps({"version": 1, "states": []}))

    def test_rejects_duplicate_labels(self):
        doc = {
            "version": 1,
            "states": [{"bloch": [0.0, 0.0, 1.0]}, {"bloch": [1.0, 0.0, 0.0]}],
            "labels": ["a", "a"],
        }
        with pytest.raises(FileFormatError, match="labels"):
            family_from_json(json.dumps(doc))


class TestMatrixFiles:
    def test_gram_round_trip_returns_raw_entries(self):
        g = gram(random_family(4, seed=8))
        text = matrix_to_json("gram", g.entries)
        kind, a = matrix_from_json(text)
        assert kind == "gram"
        assert np.array_equal(a, g.entries)
        assert matrix_to_json("gram", a) == text

    def test_gram_parse_does_not_judge(self):
        # a non-Hermitian grid must come back verbatim; judging is separate
        raw = np.array([[1.0, 1j], [1j, 1.0]], dtype=complex)
        _, a = matrix_from_json(matrix_to_json("gram", raw))
        assert np.array_equal(a, raw)

    def test_probability_round_trip(self):
        p = np.array([[1.0, 0.25], [0.25, 1.0]])
        kind, a = matrix_from_json(matrix_to_json("probability", p))
        assert kind == "probability"
        assert np.array_equal(a, p)

    def test_probability_validation(self):
        bad = json.dumps(
            {"version": 1, "kind": "probability", "n": 2, "entries": [1.0, 0.2, 0.3, 1.0]}
        )
        with pytest.raises(FileFormatError, match="symmetric"):
            matrix_from_json(bad)

    def test_phase_round_trip(self):
        u = phases(gram(random_family(5, seed=21)))
        text = matrix_to_json("phase", u)
        kind, back = matrix_from_json(text)
        assert kind == "phase"
        assert isinstance(back, PhaseMatrix)
        assert back.support.edges == u.support.edges
        for i, j in sorted(u.support.edges):
            assert back.entry(i, j) == u.entry(i, j)
        assert matrix_to_json("phase", back) == text

    def test_phase_rejects_duplicate_edge(self):
        doc = {
            "version": 1,
            "kind": "phase",
            "n": 3,
            "support": [[0, 1], [1, 0]],
            "entries": [{"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
        }
        with pytest.raises(FileFormatError, match="repeats"):
            matrix_from_json(json.dumps(doc))

    def test_phase_round_trip_complete_support_n200(self):
        n = 200
        angles = np.random.default_rng(200).uniform(-math.pi, math.pi, n * (n - 1) // 2)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        u = PhaseMatrix.from_edges(n, {e: complex(math.cos(t), math.sin(t)) for e, t in zip(pairs, angles)})
        text = matrix_to_json("phase", u)
        kind, back = matrix_from_json(text)
        assert kind == "phase" and back.support.is_complete()
        assert np.array_equal(back.entries, u.entries)
        assert matrix_to_json("phase", back) == text

    @pytest.mark.parametrize("value", [None, [1.0], {"x": 1}])
    def test_rejects_non_numbers(self, value):
        doc = {"version": 1, "kind": "gram", "n": 1, "entries": [{"re": value, "im": 0.0}]}
        with pytest.raises(FileFormatError, match="expected a number"):
            matrix_from_json(json.dumps(doc))
        with pytest.raises(FileFormatError, match="expected a number"):
            family_from_json(json.dumps({"version": 1, "states": [{"bloch": [value, 0.0, 1.0]}]}))

    def test_phase_rejects_non_unimodular_entry(self):
        doc = {
            "version": 1,
            "kind": "phase",
            "n": 2,
            "support": [[0, 1]],
            "entries": [{"re": 0.5, "im": 0.0}],
        }
        with pytest.raises(FileFormatError, match="invalid phase matrix"):
            matrix_from_json(json.dumps(doc))

    def test_phase_rejects_count_mismatch(self):
        doc = {"version": 1, "kind": "phase", "n": 2, "support": [[0, 1]], "entries": []}
        with pytest.raises(FileFormatError, match="support edges but"):
            matrix_from_json(json.dumps(doc))

    def test_rejects_unknown_kind(self):
        doc = {"version": 1, "kind": "fourier", "n": 1, "entries": []}
        with pytest.raises(FileFormatError, match="unknown matrix kind"):
            matrix_from_json(json.dumps(doc))

    def test_rejects_wrong_version(self):
        doc = {"version": 9, "kind": "gram", "n": 1, "entries": [{"re": 1.0, "im": 0.0}]}
        with pytest.raises(FileFormatError, match="version"):
            matrix_from_json(json.dumps(doc))

    def test_rejects_wrong_entry_count(self):
        doc = {"version": 1, "kind": "gram", "n": 2, "entries": [{"re": 1.0, "im": 0.0}]}
        with pytest.raises(FileFormatError, match="expected 4 entries"):
            matrix_from_json(json.dumps(doc))

    def test_rejects_bad_n(self):
        doc = {"version": 1, "kind": "gram", "n": 0, "entries": []}
        with pytest.raises(FileFormatError, match="positive integer"):
            matrix_from_json(json.dumps(doc))


class TestTextIO:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "fam.json"
        fam = random_family(3, seed=2)
        save_text(str(path), family_to_json(fam))
        back, _ = family_from_json(load_text(str(path)))
        assert back.states == fam.states

    def test_documents_end_with_newline(self):
        assert family_to_json(random_family(2, seed=1)).endswith("}\n")

    def test_floats_survive_exactly(self):
        c = math.sqrt(1.0 - (1.0 / 3.0))
        fam = StateFamily((QubitState(c, complex(0.0, math.sqrt(1.0 / 3.0))),))
        back, _ = family_from_json(family_to_json(fam))
        assert back.states[0].c0 == c

    def test_error_is_a_value_error(self):
        assert issubclass(FileFormatError, ValueError)
