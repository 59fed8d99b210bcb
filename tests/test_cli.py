"""End-to-end tests of the command line interface via main(argv)."""

import argparse
import cmath
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qpc import (
    PhaseMatrix,
    QubitState,
    StateFamily,
    all_triangles,
    family_from_json,
    family_to_json,
    gram,
    load_text,
    matrix_from_json,
    matrix_to_json,
    random_family,
    rays_equal,
    save_text,
)
from qpc import invariants
from qpc.cli import BRANCH_CUT_MARGIN, _analysis, main
from qpc.files import MAX_PHASE_N
from qpc.verification import run_all
from tests.conftest import slack_gram
from tests.test_verification import BARGMANN_PROPERTIES

SQ2 = 2.0 ** -0.5
DATA = Path(__file__).parent / "data" / "analyze"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def fmt(x: float) -> str:
    """One real number as the reports print it, formatted on its own."""
    return "%.15g" % x


def fmt_c(z: complex) -> str:
    """One complex number as the reports print it, formatted on its own."""
    return "%s%s%si" % (fmt(z.real), "+" if z.imag >= 0 else "-", fmt(abs(z.imag)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture
def octant_file(tmp_path, octant_family):
    path = tmp_path / "octant.json"
    save_text(str(path), family_to_json(octant_family))
    return str(path)


@pytest.fixture
def octant_gram_file(tmp_path, octant_family):
    path = tmp_path / "octant_gram.json"
    save_text(str(path), matrix_to_json("gram", gram(octant_family).entries))
    return str(path)


class TestGen:
    def test_deterministic_per_seed(self, capsys):
        c1, out1 = run_cli(capsys, "gen", "--n", "4", "--seed", "7")
        c2, out2 = run_cli(capsys, "gen", "--n", "4", "--seed", "7")
        c3, out3 = run_cli(capsys, "gen", "--n", "4", "--seed", "8")
        assert c1 == c2 == c3 == 0
        assert out1 == out2
        assert out1 != out3

    def test_output_is_a_valid_family(self, capsys):
        code, out = run_cli(capsys, "gen", "--n", "3", "--seed", "1")
        assert code == 0
        fam, warnings = family_from_json(out)
        assert len(fam) == 3 and warnings == []

    def test_writes_to_out_path(self, tmp_path, capsys):
        path = tmp_path / "fam.json"
        code, out = run_cli(capsys, "gen", "--n", "2", "--seed", "3", "--out", str(path))
        assert code == 0 and out == ""
        fam, _ = family_from_json(path.read_text())
        assert len(fam) == 2

    def test_default_seed_is_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("QPC_SEED", raising=False)
        _, bare = run_cli(capsys, "gen", "--n", "2")
        _, seeded = run_cli(capsys, "gen", "--n", "2", "--seed", "0")
        assert bare == seeded

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("QPC_SEED", "11")
        _, from_env = run_cli(capsys, "gen", "--n", "2")
        monkeypatch.delenv("QPC_SEED")
        _, explicit = run_cli(capsys, "gen", "--n", "2", "--seed", "11")
        assert from_env == explicit

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QPC_SEED", "eleven")
        code, _ = run_cli(capsys, "gen", "--n", "2")
        assert code == 2

    def test_rejects_non_positive_n(self, capsys):
        code, _ = run_cli(capsys, "gen", "--n", "0", "--seed", "1")
        assert code == 2

    def test_same_bytes_under_another_blas_kernel(self):
        # OPENBLAS_CORETYPE picks the BLAS kernels of numpy's linear algebra;
        # gen normalizes by scalar arithmetic, so no kernel rounds its output.
        # 80 states: enough that a norm rounded by BLAS would change some
        def gen(**env):
            return subprocess.run(
                [sys.executable, "-m", "qpc", "gen", "--n", "80", "--seed", "7"],
                capture_output=True, check=True, env=dict(os.environ, PYTHONPATH=SRC, **env),
            ).stdout

        assert gen() == gen(OPENBLAS_CORETYPE="Prescott")


class TestAnalyze:
    def test_octant_text_report(self, capsys, octant_file):
        code, out = run_cli(capsys, "analyze", octant_file)
        assert code == 0
        assert "family of 3 state(s)" in out
        assert "0.707106781186547" in out
        assert "pancharatnam 0.785398163397448" in out
        assert "solid_angle -1.5707963267949" in out
        assert "orthogonality graph is a matching: yes" in out
        assert "warning" not in out

    def test_structured_report(self, capsys, octant_file):
        code, out = run_cli(capsys, "analyze", octant_file, "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3
        assert doc["gram"]["kind"] == "gram"
        assert doc["orthogonality"]["matching"] is True
        tri = doc["triangles"][0]
        assert tri["triple"] == [0, 1, 2]
        assert tri["bargmann"]["re"] == pytest.approx(0.25, abs=1e-12)
        assert tri["bargmann"]["im"] == pytest.approx(0.25, abs=1e-12)
        assert doc["warnings"] == []

    def test_emits_matrix_files(self, capsys, tmp_path, octant_file, octant_family):
        gpath = tmp_path / "g.json"
        ppath = tmp_path / "p.json"
        upath = tmp_path / "u.json"
        code, _ = run_cli(
            capsys, "analyze", octant_file,
            "--emit-gram", str(gpath),
            "--emit-probability", str(ppath),
            "--emit-phase", str(upath),
        )
        assert code == 0
        kind, a = matrix_from_json(gpath.read_text())
        assert kind == "gram"
        assert np.max(np.abs(a - gram(octant_family).entries)) < 1e-15
        kind, p = matrix_from_json(ppath.read_text())
        assert kind == "probability" and p.shape == (3, 3)
        kind, u = matrix_from_json(upath.read_text())
        assert kind == "phase" and isinstance(u, PhaseMatrix)

    def test_duplicate_ray_warning(self, capsys, tmp_path):
        fam = StateFamily((QubitState(1.0, 0.0), QubitState(1j, 0.0)))
        path = tmp_path / "dup.json"
        save_text(str(path), family_to_json(fam))
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert "represent the same ray" in out

    def test_duplicate_ray_warnings_follow_rays_equal(self, capsys, tmp_path):
        fam = StateFamily(
            (
                QubitState(1.0, 0.0),
                QubitState(SQ2, SQ2),
                QubitState(1j, 0.0),
                QubitState(-SQ2, -SQ2),
                QubitState(0.0, 1.0),
                QubitState(0.0, -1j),
            )
        )
        path = tmp_path / "dups.json"
        save_text(str(path), family_to_json(fam))
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 0
        expected = [
            f"warning: states {i} and {j} represent the same ray; the "
            "orthogonality matching criterion assumes distinct rays"
            for i, j in itertools.combinations(range(len(fam)), 2)
            if rays_equal(fam[i], fam[j], 1e-9)
        ]
        assert len(expected) == 3
        assert [line for line in out.splitlines() if "same ray" in line] == expected

    def test_branch_cut_warning(self, capsys, tmp_path):
        # equatorial states 120 degrees apart: the loop phase sits at pi
        fam = StateFamily(
            tuple(
                QubitState(SQ2, SQ2 * cmath.exp(1j * k * 2.0 * math.pi / 3.0))
                for k in range(3)
            )
        )
        path = tmp_path / "equator.json"
        save_text(str(path), family_to_json(fam))
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 0
        assert "branch cut" in out

    @pytest.mark.parametrize("name", ["branch_cut", "negative_zero", "labels"])
    def test_branch_cut_warnings_equal_the_report_loop(self, name):
        fam, _ = family_from_json(load_text(str(DATA / f"{name}.json")))
        args = argparse.Namespace(zero_tol=1e-10, emit_gram=None, emit_probability=None,
                                  emit_phase=None)
        *_, table, warnings = _analysis(fam, args)
        expected = [
            f"triangle {rep.triple} is near the phase branch cut; "
            "its solid angle is reported on the principal branch"
            for rep in table
            if abs(rep.pancharatnam) > math.pi - BRANCH_CUT_MARGIN
        ]
        assert [w for w in warnings if "branch cut" in w] == expected
        assert len(expected) == {"branch_cut": 1, "negative_zero": 2, "labels": 0}[name]

    def test_triangle_lines_equal_the_per_report_rendering(self, capsys, tmp_path):
        # 31 states give more triangles than one fill chunk of rows
        vecs = random_family(31, 12).vectors
        vecs[1] = (-vecs[0, 1].conjugate(), vecs[0, 0].conjugate())
        fam = StateFamily(tuple(QubitState(*v) for v in vecs))
        path = tmp_path / "fam31.json"
        save_text(str(path), family_to_json(fam))
        code, out = run_cli(capsys, "analyze", str(path))
        assert code == 0
        expected = [
            f"  {rep.triple}: bargmann {fmt_c(rep.bargmann)}  defect {fmt_c(rep.defect)}  "
            f"pancharatnam {fmt(rep.pancharatnam)}  solid_angle {fmt(rep.solid_angle)}  "
            f"amplitude {fmt(rep.amplitude_factor)}"
            for rep in all_triangles(gram(fam))
        ]
        assert len(expected) > 4096
        lines = out.splitlines()
        start = lines.index("triangles:") + 1
        assert [line for line in lines[start:] if line.startswith("  (")] == expected

    def test_zero_tol_flag_prunes_support(self, capsys, tmp_path):
        eps = 1e-4
        fam = StateFamily(
            (QubitState(1.0, 0.0), QubitState(eps, math.sqrt(1.0 - eps * eps)))
        )
        path = tmp_path / "near.json"
        save_text(str(path), family_to_json(fam))
        _, out_default = run_cli(capsys, "analyze", str(path))
        assert "(0, 1):" in out_default
        _, out_pruned = run_cli(capsys, "analyze", str(path), "--zero-tol", "1e-3")
        assert "none" in out_pruned.split("phases on support pairs:")[1].splitlines()[1]

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "analyze", str(tmp_path / "absent.json"))
        assert code == 2

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run_cli(capsys, "analyze", str(path))
        assert code == 2


class TestCheck:
    def test_family_gram_is_realizable(self, capsys, octant_gram_file):
        code, out = run_cli(capsys, "check", octant_gram_file)
        assert code == 0
        assert "verdict: realizable by qubit states" in out

    def test_identity_three_fails_on_rank(self, capsys, tmp_path):
        path = tmp_path / "id3.json"
        save_text(str(path), matrix_to_json("gram", np.eye(3, dtype=complex)))
        code, out = run_cli(capsys, "check", str(path))
        assert code == 1
        assert "rank at most 2: FAIL" in out
        assert "verdict: not realizable" in out

    def test_structured_verdict(self, capsys, octant_gram_file):
        code, out = run_cli(capsys, "check", octant_gram_file, "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["realizable"] is True
        assert doc["rank_estimate"] <= 2

    def test_huge_finite_entries_keep_the_verdict_finite(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        save_text(str(path), matrix_to_json("gram", np.array([[1, 1e308], [1e308, 1]], dtype=complex)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run_cli(capsys, "check", str(path))
        assert code == 1
        assert "eigenvalues: 1e+308  -1e+308" in out
        assert "worst violation: 1e+308" in out
        assert "positive semidefinite: FAIL" in out

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("command", ["check", "realize"])
    def test_overflowing_spectrum_is_usage_error(self, capsys, tmp_path, command, fmt):
        # finite entries whose modulus is past the float range: eigvalsh
        # overflows to NaN, which no verdict may print
        path = tmp_path / "overflow.json"
        big = {"re": 1.7e308, "im": 1.7e308}
        save_text(str(path), json.dumps({"version": 1, "kind": "gram", "n": 2, "entries": [
            ONE_C, big, {"re": 1.7e308, "im": -1.7e308}, ONE_C]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: eigenvalues are not finite: the matrix overflows the eigensolver\n")

    def test_wrong_kind_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        save_text(str(path), matrix_to_json("probability", np.eye(2)))
        code, _ = run_cli(capsys, "check", str(path))
        assert code == 2


class TestRealize:
    def test_gram_route_factors_states(self, capsys, tmp_path, octant_gram_file, octant_family):
        cert = tmp_path / "cert.json"
        code, out = run_cli(capsys, "realize", octant_gram_file, "--out", str(cert))
        assert code == 0
        assert "status: realizable" in out
        fam, _ = family_from_json(cert.read_text())
        assert np.max(np.abs(gram(fam).entries - gram(octant_family).entries)) < 1e-9

    def test_realizes_a_matrix_near_the_thresholds_that_check_accepts(self, capsys, tmp_path):
        # the first has third eigenvalue 2.1e-10, under the rank threshold
        # 2.109e-10; on the second, eigvalsh rounds it under the threshold
        # and eigh over it, so realize must judge by check's eigvalsh alone
        path, cert = tmp_path / "gram.json", tmp_path / "cert.json"
        for a in (slack_gram(2, 3.5e-10, 1.4e-10), slack_gram(0, 3.3731094454003967e-10, 1.2e-10)):
            save_text(str(path), matrix_to_json("gram", a))
            code, out = run_cli(capsys, "check", str(path))
            assert code == 0 and "verdict: realizable by qubit states" in out
            code, out = run_cli(capsys, "realize", str(path), "--out", str(cert))
            assert code == 0 and "status: realizable" in out
            fam, _ = family_from_json(cert.read_text())
            assert np.max(np.abs(gram(fam).entries - a)) <= 1e-9

    def test_certificate_lines_equal_the_per_state_rendering(self, capsys, tmp_path):
        path, cert = tmp_path / "gram.json", tmp_path / "cert.json"
        save_text(str(path), matrix_to_json("gram", gram(random_family(5, 3)).entries))
        code, out = run_cli(capsys, "realize", str(path), "--out", str(cert))
        assert code == 0
        fam, _ = family_from_json(cert.read_text())
        lines = out.splitlines()
        start = lines.index("certificate states:") + 1
        assert lines[start:] == [f"  {fmt_c(s.c0)}  {fmt_c(s.c1)}" for s in fam.states]
        assert any("-" in line[3:] for line in lines[start:])

    def test_gram_route_rejects_indefinite(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        save_text(
            str(path), matrix_to_json("gram", np.array([[1.0, 1.2], [1.2, 1.0]]))
        )
        code, out = run_cli(capsys, "realize", str(path))
        assert code == 1
        assert "positive semidefinite: FAIL" in out

    def test_phase_route_coherent(self, capsys, tmp_path):
        angles = [0.0, 0.4, -1.3]
        values = {
            (i, j): cmath.exp(1j * (angles[i] - angles[j]))
            for i in range(3)
            for j in range(i + 1, 3)
        }
        path = tmp_path / "u.json"
        save_text(str(path), matrix_to_json("phase", PhaseMatrix.from_edges(3, values)))
        code, out = run_cli(capsys, "realize", str(path))
        assert code == 0
        assert "status: realizable" in out
        assert "single base state" in out

    def test_phase_route_search(self, capsys, tmp_path, octant_family):
        upath = tmp_path / "u.json"
        from qpc import phases

        save_text(str(upath), matrix_to_json("phase", phases(gram(octant_family))))
        code, out = run_cli(capsys, "realize", str(upath), "--restarts", "4")
        assert code == 0
        assert "status: realizable" in out

    def test_unreachable_tolerance_is_inconclusive(self, capsys, tmp_path, octant_family):
        from qpc import phases

        upath = tmp_path / "u.json"
        save_text(str(upath), matrix_to_json("phase", phases(gram(octant_family))))
        # one evaluation per restart: the octant's phases are exact enough that a
        # converged search can land within 1e-30 of them (2.3e-41 has been seen)
        code, out = run_cli(
            capsys, "realize", str(upath),
            "--restarts", "2", "--max-iters", "1", "--realize-tol", "1e-30",
        )
        assert code == 3
        assert "status: search_failed" in out
        assert "not a proof" in out

    def test_probability_kind_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        save_text(str(path), matrix_to_json("probability", np.eye(2)))
        code, _ = run_cli(capsys, "realize", str(path))
        assert code == 2

    @pytest.mark.parametrize("out", [False, True])
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("matrix", [np.eye(3), [[1.0, 1.2], [1.2, 1.0]]])
    def test_a_failing_gram_prints_the_check_verdict(self, capsys, tmp_path, matrix, fmt, out):
        path = tmp_path / "bad.json"
        save_text(str(path), matrix_to_json("gram", np.array(matrix, dtype=complex)))
        seen = []
        for command in ("check", "realize"):
            dest = tmp_path / f"{command}.out"
            argv = [command, str(path), "--format", fmt] + (["--out", str(dest)] if out else [])
            code = main(argv)
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err, dest.read_bytes() if out else None))
        assert seen[0] == seen[1]
        code, stdout, stderr, written = seen[0]
        assert code == 1 and stderr == ""
        assert (stdout == "") == out
        report = written.decode() if out else stdout
        if fmt == "structured":
            assert json.loads(report)["realizable"] is False
        else:
            assert "verdict: not realizable by qubit states" in report

    def test_structured_result(self, capsys, octant_gram_file):
        code, out = run_cli(
            capsys, "realize", octant_gram_file, "--format", "structured"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "realizable"
        assert doc["residual"] < 1e-9
        assert doc["certificate"]["states"]


class TestVerify:
    def test_passes_and_reports(self, capsys):
        code, out = run_cli(capsys, "verify", "--cases", "3", "--seed", "0")
        assert code == 0
        assert ", 0 failed" in out
        assert "PASS" in out and "FAIL" not in out

    def test_structured(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--cases", "2", "--format", "structured"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert len(doc["reports"]) >= 10

    def test_deterministic(self, capsys):
        _, a = run_cli(capsys, "verify", "--cases", "3", "--seed", "4")
        _, b = run_cli(capsys, "verify", "--cases", "3", "--seed", "4")
        assert a == b

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_a_failing_property_prints_its_replay_command(self, capsys, monkeypatch, fmt):
        monkeypatch.setenv("QPC_SEED", "5")
        code = main(["verify", "--cases", "2", "--format", fmt])
        passing = capsys.readouterr()
        assert code == 0 and passing.err == ""

        monkeypatch.setattr(invariants, "bargmann", lambda *args: complex(math.nan, 0.0))
        code = main(["verify", "--cases", "2", "--format", fmt])
        failing = capsys.readouterr()
        assert code == 1
        names = [r.name for r in run_all(cases=1, seed=0)]
        expected = [
            f"failed: property {idx} {name} with seed 5; "
            "replay: qpc verify --seed 5 --cases 2"
            for idx, name in enumerate(names) if name in BARGMANN_PROPERTIES
        ]
        assert failing.err.splitlines() == expected
        if fmt == "structured":
            doc = json.loads(failing.out)
            assert sum(not r["passed"] for r in doc["reports"]) == len(expected)
        else:
            assert failing.out.count("FAIL") == len(expected)
        assert "replay" not in failing.out


NAN_C = {"re": math.nan, "im": 0.0}
ONE_C = {"re": 1.0, "im": 0.0}


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "command, doc",
        [
            ("analyze", {"version": 1, "states": [{"c0": NAN_C, "c1": ONE_C}]}),
            ("analyze", {"version": 1, "states": [{"bloch": [0.0, math.inf, 1.0]}]}),
            ("check", {"version": 1, "kind": "gram", "n": 1, "entries": [NAN_C]}),
            ("check", {"version": 1, "kind": "probability", "n": 1, "entries": [math.nan]}),
            ("realize", {"version": 1, "kind": "phase", "n": 2,
                         "support": [[0, 1]], "entries": [NAN_C]}),
            ("realize", {"version": 1, "kind": "phase", "n": 2,
                         "support": [[0, 1]], "entries": [{"re": 1.0, "im": -math.inf}]}),
        ],
    )
    def test_exits_2(self, capsys, tmp_path, command, doc):
        path = tmp_path / "input.json"
        save_text(str(path), json.dumps(doc))
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite number" in captured.err


ZERO_C = {"re": 0.0, "im": 0.0}
BLOCH_UP = {"version": 1, "states": [{"bloch": [0, 0, 1]}]}


class TestMalformedFields:
    @pytest.mark.parametrize(
        "command, doc, error",
        [
            ("analyze", {"version": 1, "states": [{"c0": {"re": "1", "im": False}, "c1": ZERO_C}]},
             "error: state 0 c0: expected a number, got '1'"),
            ("analyze", {"version": 1, "states": [{"c0": {"re": True, "im": 0}, "c1": ZERO_C}]},
             "error: state 0 c0: expected a number, got True"),
            ("analyze", {"version": 1, "states": [{"bloch": [0, 0, False]}]},
             "error: state 0 bloch: expected a number, got False"),
            ("analyze", {**BLOCH_UP, "version": True},
             "error: unsupported family file version True"),
            ("analyze", {**BLOCH_UP, "version": 1.0},
             "error: unsupported family file version 1.0"),
            ("check", {"version": True, "kind": "gram", "n": 1, "entries": [ONE_C]},
             "error: unsupported matrix file version True"),
            ("check", {"version": 1, "kind": "gram", "n": True, "entries": [ONE_C]},
             "error: n must be a positive integer, got True"),
            ("check", {"version": 1, "kind": "probability", "n": 1, "entries": ["1"]},
             "error: invalid probability matrix: entry 0: expected a number, got '1'"),
            ("realize", {"version": 1, "kind": "phase", "n": 3, "support": [[True, 2]],
                         "entries": [ONE_C]},
             "error: support edge 0 must hold integers"),
            *[("realize", {"version": 1, "kind": "phase", "n": 3, "support": [[i, j]],
                           "entries": [ONE_C]},
               f"error: invalid phase matrix: edge ({i}, {j}) out of range for n = 3")
              for i, j in [(0, 5), (0, 10 ** 29), (-1, 2)]],
            ("analyze", {"version": 1, "states": [{"bloch": [1e200, 0, 0]}]},
             "error: state 0: not on sphere, |n| = 1e+200"),
            ("analyze", {"version": 1, "states": [{"c0": {"re": 1.7e308, "im": 1.7e308},
                                                   "c1": ZERO_C}]},
             "error: state 0: not normalized, |amplitudes| = inf"),
        ],
    )
    def test_exits_2_naming_the_field(self, capsys, tmp_path, command, doc, error):
        path = tmp_path / "input.json"
        save_text(str(path), json.dumps(doc))
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == error + "\n"

    @pytest.mark.parametrize("command, text, error", [
        ("analyze", '{"version": 1, "states": [{"bloch": [0, 0, 1%s]}]}' % ("0" * 400),
         "error: state 0 bloch: non-finite number inf"),
        ("check", '{"version": 1, "kind": "gram", "n": 1, "entries": [{"re": 1, "im": -1%s}]}'
         % ("0" * 400), "error: entry 0: non-finite number -inf"),
        ("analyze", '{"version": 1, "states": [{"bloch": [0, 0, 1e999]}]}',
         "error: state 0 bloch: non-finite number inf"),
    ], ids=["bloch-integer", "gram-integer", "bloch-1e999"])
    def test_integer_literals_beyond_a_double_are_non_finite(
            self, capsys, tmp_path, command, text, error):
        path = tmp_path / "input.json"
        save_text(str(path), text)
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == error + "\n"

    def test_nesting_too_deep_is_not_valid_json(self, capsys, tmp_path):
        path = tmp_path / "input.json"
        save_text(str(path), "[" * 100_000)
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: not valid JSON: maximum recursion depth")


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "2", "--zero-tol", "5"],
        ["gen", "--n", "2", "--format", "structured"],
        ["analyze", "family.json", "--seed", "1"],
        ["check", "gram.json", "--seed", "1"],
        ["check", "gram.json", "--zero-tol", "5"],
        ["realize", "gram.json", "--zero-tol", "5"],
        ["realize", "gram.json", "--soft-floor", "1e-6"],
        ["verify", "--zero-tol", "5"],
    ])
    def test_a_subcommand_refuses_options_it_does_not_read(self, capsys, argv):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "family.json", "--zero-tol", "nan"],
        ["analyze", "family.json", "--zero-tol", "inf"],
        ["analyze", "family.json", "--zero-tol=-inf"],
        ["analyze", "family.json", "--zero-tol=-1e-9"],
        ["realize", "phase.json", "--realize-tol", "nan"],
        ["realize", "phase.json", "--realize-tol", "inf"],
        ["realize", "phase.json", "--realize-tol=-inf"],
    ])
    def test_tolerances_must_be_finite(self, capsys, argv):
        assert main(argv) == 2
        assert "must be a finite number >= 0" in capsys.readouterr().err

    @staticmethod
    def realize_in_4_gib(tmp_path, n: int):
        """qpc realize on a one-edge phase file of n states, in a child process
        with 4 GiB of address space: a matrix past that is refused at once
        instead of being overcommitted."""
        resource = pytest.importorskip("resource")
        path = tmp_path / "phase.json"
        save_text(str(path), json.dumps({"version": 1, "kind": "phase", "n": n,
                                         "support": [[0, 1]], "entries": [{"re": 1, "im": 0}]}))
        limit = (4 * 2**30, resource.getrlimit(resource.RLIMIT_AS)[1])
        return subprocess.run(
            [sys.executable, "-m", "qpc", "realize", str(path)], capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
        )

    def test_a_matrix_that_cannot_be_allocated_exits_2(self, tmp_path):
        # 30000 states are under MAX_PHASE_N, and their phase matrix takes 14.4 GB
        proc = self.realize_in_4_gib(tmp_path, 30000)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: Unable to allocate")

    def test_a_phase_file_just_over_the_limit_exits_2(self, tmp_path):
        proc = self.realize_in_4_gib(tmp_path, MAX_PHASE_N + 1)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: n = {MAX_PHASE_N + 1} exceeds the limit of "
                               f"{MAX_PHASE_N} states of a phase file\n")

    def test_a_phase_file_over_the_limit_exits_2_before_allocating(self, capsys, tmp_path):
        path = tmp_path / "phase.json"
        save_text(str(path), json.dumps({"version": 1, "kind": "phase", "n": 10**12,
                                         "support": [[0, 1]], "entries": [{"re": 1, "im": 0}]}))
        tracemalloc.start()
        try:
            code = main(["realize", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 2**20
        assert capsys.readouterr().err == (
            f"error: n = {10**12} exceeds the limit of {MAX_PHASE_N} states of a phase file\n"
        )

    @pytest.mark.parametrize("command, solver", [
        ("check", "eigvalsh"), ("realize", "eigvalsh"), ("realize", "eigh")])
    def test_linalg_error_exits_2(self, capsys, monkeypatch, octant_gram_file, command, solver):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, solver, fail)
        assert main([command, octant_gram_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Eigenvalues did not converge\n"


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestStructuredOutputIsStrictJson:
    """Every --format structured document parses with NaN and Infinity refused."""

    @pytest.fixture
    def inputs(self, tmp_path, octant_family):
        paths = {}

        def write(name, text):
            paths[name] = str(tmp_path / name)
            save_text(paths[name], text)

        write("family", family_to_json(octant_family))
        write("gram", matrix_to_json("gram", gram(octant_family).entries))
        write("huge", matrix_to_json("gram", np.array([[1, 1e308], [1e308, 1]], dtype=complex)))
        write("rank3", matrix_to_json("gram", np.eye(3, dtype=complex)))
        write("coherent", matrix_to_json("phase", PhaseMatrix.from_edges(
            3, {(0, 1): 1j, (1, 2): -1.0, (0, 2): -1j})))
        write("frustrated", matrix_to_json("phase", PhaseMatrix.from_edges(
            4, {(i, j): -1.0 for i, j in itertools.combinations(range(4), 2)})))
        return paths

    @pytest.mark.parametrize("argv", [
        ["analyze", "family"],
        ["check", "gram"],
        ["check", "huge"],
        ["check", "rank3"],
        ["realize", "gram"],
        ["realize", "huge"],
        ["realize", "coherent"],
        ["realize", "frustrated", "--restarts", "2", "--max-iters", "20"],
        ["verify", "--cases", "2"],
    ])
    def test_parses_strictly(self, capsys, inputs, argv):
        argv = [inputs.get(a, a) for a in argv]
        assert main(argv + ["--format", "structured"]) in (0, 1, 3)
        json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qpc", "gen", "--n", "2", "--seed", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        fam, _ = family_from_json(proc.stdout)
        assert len(fam) == 2
