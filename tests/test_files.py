"""Tests for the JSON document formats and their failure modes."""

import json
import math
from argparse import Namespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpc import (
    DEFAULT_ZERO_TOL,
    FileFormatError,
    PhaseMatrix,
    QubitState,
    Records,
    StateFamily,
    dump_doc,
    family_doc,
    family_from_json,
    family_to_json,
    gram,
    load_text,
    matrix_doc,
    matrix_from_json,
    matrix_to_json,
    phases,
    random_family,
    save_text,
)
from qpc.cli import _analysis, _analysis_doc, _branch_cut_warnings
from qpc.files import _FILL_CHUNK, doc_parts, re_im, run_parts

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

    @pytest.mark.parametrize("value", [None, [1.0], {"x": 1}, True, False, "1", "nan"])
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


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7, 3.0, -2.0, 0.1]


def reference(doc) -> str:
    """json's own rendering, each Records array written as its list of records."""
    return json.dumps(doc, indent=2, default=list) + "\n"


class TestDumpDoc:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_analysis_docs_match_json(self, n, seed, orthogonal, labelled):
        vecs = random_family(n, seed).vectors
        if orthogonal and n >= 2:
            vecs[1] = (-vecs[0, 1].conjugate(), vecs[0, 0].conjugate())
        labels = tuple(f"état {k} \"%r\"" for k in range(n)) if labelled else None
        fam = StateFamily(tuple(QubitState(*v) for v in vecs), labels)
        args = Namespace(zero_tol=DEFAULT_ZERO_TOL, emit_gram=None, emit_probability=None,
                         emit_phase=None)
        a = _analysis(fam, args)
        doc = _analysis_doc(fam, a, ["state 0: renormalized", *a.warnings,
                                     *_branch_cut_warnings(a)])
        assert dump_doc(doc) == reference(doc)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
                 max_size=6),
        st.integers(0, 3),
    )
    def test_edge_floats_match_json(self, values, depth):
        col = np.array(values, dtype=float)
        doc = {
            "x": values,
            "100% keys": Records({"re": col, "im %r": col[::-1],
                                  "pair": (col, np.arange(len(col)))}),
            "bare": Records(col),
        }
        for _ in range(depth):
            doc = {"nested": [doc, Records(-col), [], {}], "scalar": values[0] if values else None}
        assert dump_doc(doc) == reference(doc)

    def test_records_longer_than_a_fill_chunk(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal(10_001) + 1j * rng.standard_normal(10_001)
        doc = {"entries": Records({"k": np.arange(len(z)), "z": re_im(z)})}
        assert dump_doc(doc) == reference(doc)

    def test_plain_documents_are_json(self):
        docs = [
            {"a": [1, 2.5, -0.0, None, True, "ψ"], "b": {}, "c": [[], [{}]], "d": 1e16},
            {1: "int", -2.5: "float", 1e16: [], math.inf: {}, math.nan: "nan", "%r": 0},
            {True: 1, False: [0], None: {None: None}},
            {"ψ état": {"ключ": "é "}, "\x00": "\t"},
            {"t": (1, (2.0, "x"), ()), "u": [(), ({},), ((),)]},
            {"failing": [math.nan, math.inf, -math.inf], "worst": math.nan},
            3, -0.0, math.nan, "ψ", None, True, [], {}, (),
        ]
        for doc in docs:
            assert dump_doc(doc) == json.dumps(doc, indent=2) + "\n"
        with pytest.raises(TypeError) as theirs:
            json.dumps({"ok": 1, (1, 2): 0}, indent=2)
        with pytest.raises(TypeError) as ours:
            dump_doc({"ok": 1, (1, 2): 0})
        assert str(ours.value) == str(theirs.value) != ""

    def test_string_equal_to_the_splice_mark(self):
        doc = {"s": "\x00records\x00", "r": Records(np.array([1.0, 2.0]))}
        assert dump_doc(doc) == reference(doc)

    def test_unknown_objects_are_refused_as_json_does(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dump_doc({"x": object()})


class TestRecords:
    def test_sequence_of_plain_records(self):
        z = np.array([1 + 2j, -0.5 - 0.0j])
        r = Records({"re": z.real, "im": z.imag})
        assert len(r) == 2
        assert list(r) == [{"re": 1.0, "im": 2.0}, {"re": -0.5, "im": -0.0}]
        assert r[-1] == {"re": -0.5, "im": -0.0}
        assert list(Records([np.arange(2), np.arange(2) + 5])) == [[0, 5], [1, 6]]

    def test_empty_records_are_an_empty_list(self):
        r = Records({"re": np.array([]), "im": np.array([])})
        assert len(r) == 0 and list(r) == []
        assert dump_doc({"r": r}) == '{\n  "r": []\n}\n'

    @pytest.mark.parametrize("columns", [
        [np.array([1.0, np.nan])],
        [np.array([np.inf])],
        [np.array([True])],
        [np.array([1.0]), np.array([1.0, 2.0])],
        [np.ones((2, 2))],
    ])
    def test_refuses_what_json_would_write_differently(self, columns):
        with pytest.raises(ValueError, match="record columns"):
            Records(columns)

    def test_blocks_are_rendered_as_jobs_in_order(self):
        values = np.arange(2500) * 0.5
        blocks = Records.of_blocks(2500, lambda: (range(s, min(s + 1000, 2500))
                                                  for s in range(0, 2500, 1000)),
                                   lambda r: {"v": values[r.start:r.stop]})
        doc = {"blocks": blocks, "plain": Records(values)}
        parts = list(doc_parts(doc))
        jobs = [p for p in parts if not isinstance(p, str)]
        # one job per block of the first array, one per fill chunk of the second
        assert len(jobs) == 3 + -(-2500 // _FILL_CHUNK)
        assert "".join(run_parts(parts)) == dump_doc(doc) == reference(doc)

    @pytest.mark.parametrize("sizes, rows", [([3, 2], 5), ([3, 3], 5)],
                             ids=["a block short of its len", "blocks short of rows"])
    def test_blocks_that_do_not_hold_their_records_are_refused(self, sizes, rows):
        items = [range(0, 3), range(3, 6)]
        blocks = Records.of_blocks(rows, lambda: iter(items),
                                   lambda r: np.arange(float(sizes[items.index(r)])))
        with pytest.raises(ValueError, match="record block"):
            dump_doc({"blocks": blocks})

    def test_documents_hold_records(self):
        fam = random_family(3, seed=4)
        g = gram(fam)
        assert isinstance(family_doc(fam)["states"], Records)
        assert list(matrix_doc("gram", g.entries)["entries"]) == [
            {"re": float(z.real), "im": float(z.imag)} for z in g.entries.ravel()
        ]
        doc = matrix_doc("phase", phases(g))
        assert list(doc["support"]) == [[0, 1], [0, 2], [1, 2]]
