"""End-to-end tests of the command line interface via main(argv)."""

import argparse
import ast
import cmath
import gc
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qpc import (
    DEFAULT_ZERO_TOL,
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
from qpc import cli, comparisons, invariants, realizability
from qpc.cli import BRANCH_CUT_MARGIN, _analysis, _analysis_doc, _branch_cut_warnings, _workers, main
from qpc.comparisons import phases, principal_angle
from qpc.files import _FILL_CHUNK, MAX_PHASE_N, dump_doc, row_jobs, run_parts
from qpc.pool import Pool
from qpc.realizability import GramRefusal, SearchConfig, check_gram
from qpc.verification import run_all
from tests.conftest import (family_with_orthogonal_pairs, inconsistent_family, slack_gram,
                            uniform_phases)
from tests.test_verification import BARGMANN_PROPERTIES

SQ2 = 2.0 ** -0.5
DATA = Path(__file__).parent / "data" / "analyze"
SRC = str(Path(__file__).resolve().parent.parent / "src")
# what analyze prints for conftest.inconsistent_family with --zero-tol 0
REFUSAL = ("error: defect and normalized Bargmann invariant of triangle (0, 1, 2) disagree: "
           "|delta| = inf\n")


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
        warnings = _branch_cut_warnings(_analysis(fam, args))
        expected = [
            f"triangle {rep.triple} is near the phase branch cut; "
            "its solid angle is reported on the principal branch"
            for rep in all_triangles(gram(fam), args.zero_tol)
            if abs(rep.pancharatnam) > math.pi - BRANCH_CUT_MARGIN
        ]
        assert [w for w in warnings if "branch cut" in w] == expected
        assert len(expected) == {"branch_cut": 1, "negative_zero": 2, "labels": 0}[name]

    def test_triangle_lines_equal_the_per_report_rendering(self, capsys, tmp_path):
        # 31 states give 4,495 triangles, more than one block of rows
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
        assert len(expected) > invariants.TRIANGLE_BLOCK
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

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_inconsistent_defects_exit_2_with_one_line(self, capsys, tmp_path, fmt):
        path = tmp_path / "tiny.json"
        save_text(str(path), family_to_json(inconsistent_family()))
        out = tmp_path / "report"
        code = main(["analyze", str(path), "--zero-tol", "0", "--format", fmt, "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == REFUSAL
        assert not out.exists()

    def test_every_walk_names_the_first_disagreeing_triangle(self, monkeypatch, capsys,
                                                             tmp_path):
        # with --zero-tol 0, the Bargmann invariant of a triangle through
        # state 0 or 20 and two states of overlap 1e-160 with it is about
        # 1e-320, and normalizing it overflows (|delta| = inf); with two of
        # overlap 1e-200 it is 0 (|delta| = nan), which no comparison passes
        vecs = random_family(40, 3).vectors
        vecs[[0, 20]] = 1.0, 0.0
        for i, tiny, phase in [(3, 1e-160, 0.0), (5, 1e-160, 0.7), (30, 1e-200, 0.0),
                               (31, 1e-200, 0.3)]:
            vecs[i] = tiny * cmath.exp(1j * phase), 1.0
        fam = StateFamily(tuple(QubitState(*v) for v in vecs))
        message = ("defect and normalized Bargmann invariant of triangle (0, 3, 5) disagree: "
                   "|delta| = inf")
        a = _analysis(fam, argparse.Namespace(zero_tol=0.0, emit_gram=None,
                                              emit_probability=None, emit_phase=None))

        def refusal(walk):
            with pytest.raises(ArithmeticError) as refused:
                walk()
            return str(refused.value)

        def refuses(r):
            try:
                a.kernel(r)
            except ArithmeticError:
                return True
            return False

        # refusing triangles in more than one block, and worse ones after
        # the first, in its block and in later ones
        assert sum(map(refuses, a.blocks())) > 1
        assert refusal(lambda: invariants.triangle_report(a.g, 0, 3, 30, 0.0)).endswith("nan")
        assert refusal(lambda: invariants.triangle_report(a.g, 20, 30, 31, 0.0)).endswith("nan")
        assert refusal(lambda: all_triangles(a.g, 0.0)) == message
        for size in (1, 7, invariants.TRIANGLE_BLOCK, 4 * invariants.TRIANGLE_BLOCK):
            assert refusal(lambda: list(map(a.kernel, a.triples.ranges(size)))) == message
        # analyze, in this process and on the pool
        path = tmp_path / "refused.json"
        save_text(str(path), family_to_json(fam))
        out = tmp_path / "report"
        for workers in (1, 3):
            monkeypatch.setattr(cli, "_workers", lambda rows: workers)
            assert main(["analyze", str(path), "--zero-tol", "0", "--out", str(out)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
            assert not out.exists()
            assert _children() == 0

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "analyze", str(tmp_path / "absent.json"))
        assert code == 2

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run_cli(capsys, "analyze", str(path))
        assert code == 2


def _family_file(tmp_path, n: int, seed: int) -> str:
    path = tmp_path / f"fam{n}.json"
    save_text(str(path), family_to_json(random_family(n, seed)))
    return str(path)


class _WriteSizes:
    """A stdout that keeps what is written and the size of each write."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return len(text)

    def flush(self):
        pass


class TestStreamedReport:
    """analyze writes its report as it is made, after all of the analysis."""

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_a_failing_emit_leaves_out_unchanged(self, capsys, tmp_path, fmt):
        out = tmp_path / "report.txt"
        out.write_bytes(b"an earlier report\n")
        code = main(["analyze", _family_file(tmp_path, 5, 3), "--format", fmt,
                     "--out", str(out), "--emit-gram", str(tmp_path / "absent" / "g.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")
        assert out.read_bytes() == b"an earlier report\n"

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_no_write_is_longer_than_a_chunk_of_rows(self, monkeypatch, tmp_path, fmt):
        # 45 states give 14,190 triangles, over thirteen blocks of rows
        path = _family_file(tmp_path, 45, 4)
        stdout = _WriteSizes()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["analyze", path, "--format", fmt]) == 0
        report = "".join(stdout.pieces)
        if fmt == "text":
            lines = report.splitlines()
            rows = lines[lines.index("triangles:") + 1:]
            row_size = max(len(line) + 1 for line in rows)
        else:
            # a record at nesting level 2: four spaces before each of its
            # lines, and ",\n" between records
            rows = json.loads(report)["triangles"]
            row_size = max(len(text) + 4 * (text.count("\n") + 1) + 2
                           for text in (json.dumps(r, indent=2) for r in rows))
            fam, _ = family_from_json(load_text(path))
            args = argparse.Namespace(zero_tol=DEFAULT_ZERO_TOL, emit_gram=None,
                                      emit_probability=None, emit_phase=None)
            a = _analysis(fam, args)
            assert report == dump_doc(_analysis_doc(fam, a, a.warnings + _branch_cut_warnings(a)))
        assert len(rows) == 14190
        assert max(map(len, stdout.pieces)) <= _FILL_CHUNK * row_size

    @staticmethod
    def peak(out_path, *argv) -> int:
        """The peak RSS in bytes of a fresh interpreter that imports qpc.cli
        and runs main(argv) if argv is given, writing stdout to out_path.

        Linux starts the ru_maxrss of a child at the peak of the process it
        was forked from, here the test runner, so the child reads the peak
        of its own address space, VmHWM, where /proc has it."""
        script = ("import resource, sys, qpc.cli\n"
                  "code = qpc.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
                  "try:\n"
                  "    with open('/proc/self/status') as f:\n"
                  "        kb = next(int(line.split()[1]) for line in f if line.startswith('VmHWM:'))\n"
                  "except OSError:\n"
                  "    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                  "print(code, kb * 1024, file=sys.stderr)\n")
        with open(out_path, "wb") as out:
            proc = subprocess.run([sys.executable, "-c", script, *argv], stdout=out,
                                  stderr=subprocess.PIPE, text=True, check=True,
                                  env=dict(os.environ, PYTHONPATH=SRC))
        code, rss = proc.stderr.split()
        assert code == "0"
        return int(rss)

    def test_peak_memory_is_below_half_the_document(self, tmp_path):
        # the baseline only imports
        report = tmp_path / "report.json"
        base = self.peak(report)
        grown = self.peak(report, "analyze", _family_file(tmp_path, 100, 7),
                          "--format", "structured") - base
        size = report.stat().st_size
        assert size > 60e6
        assert grown < size / 2

    def test_peak_memory_does_not_grow_with_the_triangle_count(self, tmp_path):
        # 150 states give 551,300 triangles; their table alone would take
        # 44 MB, and the kernel's temporaries as much again
        path = _family_file(tmp_path, 150, 7)
        base = self.peak(os.devnull)
        grown = self.peak(os.devnull, "analyze", path, "--format", "structured") - base
        assert grown < 20e6

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_warnings_and_the_refusal_come_before_the_first_byte(self, monkeypatch, tmp_path,
                                                                 fmt):
        checked = []

        def recorded(*args):
            checked.append(_branch_cut_warnings(*args))
            return checked[-1]

        class Stdout(_WriteSizes):
            def write(self, text):
                if not self.pieces:
                    self.first = checked[:]
                return super().write(text)

        monkeypatch.setattr(cli, "_branch_cut_warnings", recorded)
        stdout = Stdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["analyze", str(DATA / "branch_cut.json"), "--format", fmt]) == 0
        # the one near-cut warning was made before the first write
        assert stdout.first == [[
            "triangle (0, 1, 2) is near the phase branch cut; "
            "its solid angle is reported on the principal branch"]]
        assert stdout.first[0][0] in "".join(stdout.pieces)
        # and a refusal leaves stdout untouched
        path = tmp_path / "tiny.json"
        save_text(str(path), family_to_json(inconsistent_family()))
        stdout.pieces.clear()
        assert main(["analyze", str(path), "--zero-tol", "0", "--format", fmt]) == 2
        assert stdout.pieces == []

    def test_the_check_pass_takes_no_angle(self, monkeypatch):
        calls = []
        monkeypatch.setattr(invariants, "principal_angle",
                            lambda z: calls.append(len(z)) or principal_angle(z))
        fam, _ = family_from_json(load_text(str(DATA / "branch_cut.json")))
        args = argparse.Namespace(zero_tol=1e-10, emit_gram=None, emit_probability=None,
                                  emit_phase=None)
        a = _analysis(fam, args)
        warnings = _branch_cut_warnings(a)
        assert (len(a.triples), calls) == (4, [])
        assert any("branch cut" in w for w in warnings)
        assert [len(a.kernel(r).solid_angle) for r in a.triples.ranges(4)] == calls == [4]

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_one_analyze_computes_the_phases_once(self, monkeypatch, tmp_path, fmt):
        # the check pass and the report share one phase matrix
        calls = []

        def counted(*args):
            calls.append(args)
            return phases(*args)

        for module in (comparisons, invariants):
            monkeypatch.setattr(module, "phases", counted)
        out = tmp_path / "report"
        assert main(["analyze", _family_file(tmp_path, 30, 2), "--format", fmt,
                     "--out", str(out)]) == 0
        assert len(calls) == 1
        assert out.stat().st_size > 0

    @pytest.mark.parametrize("command, read", [
        ("analyze", 0), ("analyze", 100), ("analyze", 100_000), ("gen", 100), ("verify", 0),
        ("analyze-80-text", 100), ("analyze-80-structured", 100),
    ], ids=["0", "100", "100000", "gen-100", "verify-0", "pooled-text-100",
            "pooled-structured-100"])
    def test_a_reader_that_closes_early_gets_one_error(self, tmp_path, command, read):
        argv = {
            "analyze": ["analyze", _family_file(tmp_path, 40, 7), "--format", "structured"],
            # 82,160 triangles: rendered by workers wherever two CPUs are usable
            "analyze-80-text": ["analyze", _family_file(tmp_path, 80, 7)],
            "analyze-80-structured": ["analyze", _family_file(tmp_path, 80, 7),
                                      "--format", "structured"],
            # one string of 19.5 MB, far more than a pipe holds
            "gen": ["gen", "--n", "100000", "--seed", "1"],
            "verify": ["verify", "--cases", "5"],
        }[command]
        proc = subprocess.Popen(
            [sys.executable, "-m", "qpc", *argv],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC))
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (2, b"error: [Errno 32] Broken pipe\n")


def _pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# OpenBLAS' default kernel and three named x86-64 ones, numpy without its
# AVX2 and AVX-512 loops, and one BLAS thread
KERNEL_SETTINGS = [{}, {"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Prescott"},
                   {"OPENBLAS_CORETYPE": "Sandybridge"},
                   {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4"}, {"OPENBLAS_NUM_THREADS": "1"}]


def _digests_under_every_kernel(*argv) -> set:
    """The sha256 digests of what python -m qpc argv prints under each of
    KERNEL_SETTINGS, on every CPU and pinned to one; skipped off x86-64."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("the kernels named are x86-64 kernels")
    pins = [None] + ([_pin_to_one_cpu] if hasattr(os, "sched_setaffinity") else [])
    return {hashlib.sha256(subprocess.run(
        [sys.executable, "-m", "qpc", *argv], capture_output=True, check=True, preexec_fn=pin,
        env=dict(os.environ, PYTHONPATH=SRC, **setting)).stdout).hexdigest()
        for setting in KERNEL_SETTINGS for pin in pins}


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _pooled() -> int:
    """The workers of an analyze that reaches cli.POOL_MIN_ROWS here: the
    process is the last of one per usable CPU."""
    return _cpus() - 1


def _child_pids() -> list:
    """The child processes of this process not reaped yet, alive or exited,
    as Linux lists them for each of its threads."""
    tasks = Path("/proc/self/task")
    return [pid for tid in os.listdir(tasks)
            for pid in (tasks / tid / "children").read_text().split()]


def _children() -> int:
    return len(_child_pids())


def _states_within(pids, seconds: float) -> list:
    """The states of the processes pids, as /proc/<pid>/stat gives them,
    once all are zombies (Z) or seconds have passed."""
    deadline = time.monotonic() + seconds
    while True:
        states = [Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
                  for pid in pids]
        if set(states) == {"Z"} or time.monotonic() > deadline:
            return states
        time.sleep(0.01)


def _doubled(x):
    return 2 * x


def _exit_at_once(x):
    os._exit(3)


def _refuse_seven(x):
    if x == 7:
        raise ValueError(f"item {x} refused")
    return x


def _count_forks(monkeypatch) -> list:
    """The workers qpc.pool forks from now on, one item each."""
    import qpc.pool

    forks, fork = [], qpc.pool._fork
    monkeypatch.setattr(qpc.pool, "_fork", lambda *args: forks.append(args[1]) or fork(*args))
    return forks


def _walk(task, items):
    """A walk: for each x of items, the job (task, (x,)), or str(x) where
    x is a multiple of 3."""
    return lambda: ((task, (x,)) if x % 3 else str(x) for x in items)


class _Interrupting(_WriteSizes):
    """A stdout that raises error five writes after the triangles' heading,
    noting the live workers then."""

    def __init__(self, error):
        super().__init__()
        self.error, self.start, self.workers = error, None, None

    def write(self, text):
        if self.start is None and "triangles" in text:
            self.start = len(self.pieces)
        elif self.start is not None and len(self.pieces) == self.start + 5:
            self.workers = _children()
            raise self.error
        return super().write(text)


class TestWorkers:
    """analyze runs its check pass, then renders every section of its
    report on every usable CPU, in one pool of forked workers and itself,
    and prints the same bytes as on one."""

    # sha256 of analyze on gen --n 80 --seed 7, as printed on one CPU
    SHA256_80 = {
        "structured": "4bb24a715dbba434ae00b43ed54d075abaf02261fe8e0adff38984726592e05f",
        "text": "6e4b129e380bbcd78b126bcd2f70a15b774b082d7f405c882ea5f6c32717de45",
    }

    @pytest.fixture(scope="class")
    def families(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("families")
        gen = d / "gen80.json"
        assert main(["gen", "--n", "80", "--seed", "7", "--out", str(gen)]) == 0
        paths = {"gen80": str(gen)}
        for n in (40, 60):
            paths[f"antipodal{n}"] = str(d / f"antipodal{n}.json")
            fam = family_with_orthogonal_pairs(np.random.default_rng(n), n, n // 10)
            save_text(paths[f"antipodal{n}"], family_to_json(fam))
        return paths

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("name", ["gen80", "antipodal60", "antipodal40"])
    def test_the_bytes_do_not_depend_on_the_cpus(self, families, name, fmt):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no sched_setaffinity")

        def analyze(preexec_fn=None):
            return subprocess.run(
                [sys.executable, "-W", "error", "-m", "qpc", "analyze", families[name],
                 "--format", fmt],
                capture_output=True, check=True, preexec_fn=preexec_fn,
                env=dict(os.environ, PYTHONPATH=SRC)).stdout

        every_cpu = analyze()
        assert analyze(_pin_to_one_cpu) == every_cpu
        if name == "gen80":
            assert hashlib.sha256(every_cpu).hexdigest() == self.SHA256_80[fmt]
            return
        # n // 10 orthogonal pairs take their triangles off the support
        n = int(name[len("antipodal"):])
        assert every_cpu.count(b"pancharatnam") == math.comb(n, 3) - n // 10 * (n - 2)
        if n == 40:
            fam, _ = family_from_json(load_text(families[name]))
            args = argparse.Namespace(zero_tol=DEFAULT_ZERO_TOL, emit_gram=None,
                                      emit_probability=None, emit_phase=None)
            # run by the pool, with the gram and probability entries over one chunk
            assert _analysis(fam, args).rows >= cli.POOL_MIN_ROWS
            assert n * n > _FILL_CHUNK

    def test_when_workers_are_used(self, monkeypatch):
        assert _workers(cli.POOL_MIN_ROWS - 1) == 1
        assert _workers(cli.POOL_MIN_ROWS) == (_cpus() if _cpus() > 1 else 1)
        monkeypatch.delattr(os, "fork")
        assert _workers(10**9) == 1
        monkeypatch.undo()
        # a daemonic worker, such as one of a multiprocessing.Pool, may start no process
        context = multiprocessing.get_context("fork")
        answer, end = context.Pipe()
        daemon = context.Process(target=lambda: end.send(_workers(10**9)), daemon=True)
        daemon.start()
        assert answer.poll(30) and answer.recv() == 1
        daemon.join(30)
        assert not daemon.is_alive()
        answer.close()
        end.close()
        # a fork copies no other thread, and a child could inherit one's lock
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert _workers(10**9) == 1
        finally:
            stop.set()
            thread.join()

    def test_the_pool_keeps_the_order_and_ends_its_workers(self):
        # a lambda cannot be pickled: the workers run the one they inherited
        tripled = lambda x: 3 * x  # noqa: E731
        tasks = (_doubled, tripled)
        walk = lambda: ((tasks[x % 2], (x,)) if x % 3 else str(x)  # noqa: E731
                        for x in range(50))
        with Pool(walk, 3) as pool:
            assert _children() == 2
            assert list(pool.walk()) == [tasks[x % 2](x) if x % 3 else str(x)
                                         for x in range(50)]
        assert _children() == 0

    def test_a_worker_has_one_pipe_and_exits_once_its_share_is_written(self):
        fds = Path("/proc/self/fd")
        before = len(os.listdir(fds))
        pool = Pool(_walk(_doubled, range(1, 10)), 2)  # six jobs, three in the worker
        try:
            assert len(os.listdir(fds)) == before + 1
            assert list(pool.walk()) == [2, 4, "3", 8, 10, "6", 14, 16, "9"]
            pids = _child_pids()
            assert len(pids) == 1
            # a worker is a zombie, exited and not reaped, before close
            assert _states_within(pids, 10) == ["Z"]
        finally:
            pool.close()
        assert _children() == 0

    def test_an_exception_in_a_worker_is_raised_in_the_parent(self):
        with Pool(_walk(_refuse_seven, range(1, 50)), 2) as pool:
            walk = pool.walk()
            assert [next(walk) for _ in range(6)] == [1, 2, "3", 4, 5, "6"]
            with pytest.raises(ValueError, match="item 7 refused"):
                next(walk)
            assert _children() == 0

    def test_a_worker_that_dies_is_an_error_and_leaves_no_worker(self):
        with Pool(lambda: [(_exit_at_once, (1,))], 2) as pool:
            with pytest.raises(ChildProcessError, match="ended without an answer"):
                list(pool.walk())
            assert _children() == 0

    def test_a_walk_closed_early_ends_its_workers(self):
        with Pool(_walk(_doubled, range(1, 50)), 2) as pool:
            walk = pool.walk()
            assert next(walk) == 2
            assert _children() == 1
            walk.close()
            assert _children() == 0

    def test_a_job_that_differs_in_the_workers_is_an_error(self):
        # the args of a job made after the fork name the process that made it
        with Pool(lambda: [(_doubled, (os.getpid(),))], 2) as pool:
            with pytest.raises(ChildProcessError, match=f"not \\({os.getpid()},\\)$"):
                list(pool.walk())
            assert _children() == 0

    def test_a_pool_of_one_forks_nothing(self, monkeypatch):
        forks, walk = _count_forks(monkeypatch), _walk(_doubled, range(1, 20))
        with Pool(walk, 1) as pool:
            assert list(pool.walk()) == list(run_parts(walk()))
        assert forks == []

    def test_the_parent_runs_the_last_turn_of_each_round(self):
        with Pool(lambda: ((os.getpid, ()) for _ in range(10)), 3) as pool:
            workers = {int(pid) for pid in _child_pids()}
            pids = list(pool.walk())
        assert [k for k, pid in enumerate(pids) if pid == os.getpid()] == [2, 5, 8]
        assert pids[0::3] == 4 * [pids[0]] and pids[1::3] == 3 * [pids[1]]
        assert {pids[0], pids[1]} == workers and len(workers) == 2

    def test_an_exception_in_the_parents_job_is_raised_in_its_turn(self):
        # the parent runs job k when k mod 2 = 1: 7 is job 3
        with Pool(_walk(_refuse_seven, range(2, 50)), 2) as pool:
            walk = pool.walk()
            assert [next(walk) for _ in range(5)] == [2, "3", 4, 5, "6"]
            assert _children() == 1
            with pytest.raises(ValueError, match="item 7 refused"):
                next(walk)
            assert _children() == 0

    def test_workers_with_no_share_exit_at_once(self, monkeypatch):
        forks = _count_forks(monkeypatch)
        with Pool(_walk(_doubled, [1, 2]), 4) as pool:
            pids = _child_pids()
            # worker 2 and the parent have no job, workers 0 and 1 one each,
            # which their pipes hold: every worker exits before any is read
            assert _states_within(pids, 10) == ["Z"] * 3
            assert list(pool.walk()) == [2, 4]
        assert (forks, len(pids)) == ([0, 1, 2], 3)
        assert _children() == 0

    def test_the_check_pass_runs_before_any_worker_is_forked(self, monkeypatch, tmp_path,
                                                             families):
        alive, forks = [], _count_forks(monkeypatch)

        def recorded(a):
            alive.append((_children(), len(forks)))
            return _branch_cut_warnings(a)

        monkeypatch.setattr(cli, "_branch_cut_warnings", recorded)
        monkeypatch.setattr(cli, "_workers", lambda rows: 3)
        out = tmp_path / "report"
        assert main(["analyze", families["gen80"], "--out", str(out)]) == 0
        assert alive == [(0, 0)]
        assert len(forks) == 2
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SHA256_80["text"]
        assert _children() == 0

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_three_workers_print_the_bytes_of_one_cpu(self, monkeypatch, tmp_path, families,
                                                      fmt):
        # an odd count leaves a different residue of jobs on every worker
        monkeypatch.setattr(cli, "_workers", lambda rows: 3)
        out = tmp_path / "report"
        assert main(["analyze", families["gen80"], "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SHA256_80[fmt]
        assert _children() == 0

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_an_in_process_report_is_the_same_and_leaves_no_worker(self, monkeypatch, tmp_path,
                                                                   fmt, families):
        # stdout is a buffered file here, as in a harness that redirects it:
        # a worker must not write what the parent had buffered at the fork
        used = []
        monkeypatch.setattr(cli, "_workers", lambda rows: used.append(_workers(rows)) or used[-1])
        pooled, serial = tmp_path / "pooled", tmp_path / "serial"
        with open(pooled, "w", encoding="utf-8") as out:
            monkeypatch.setattr(sys, "stdout", out)
            assert main(["analyze", families["gen80"], "--format", fmt]) == 0
        assert used == [_cpus() if _cpus() > 1 else 1]
        assert _children() == 0
        monkeypatch.setattr(cli, "POOL_MIN_ROWS", 10**12)
        assert main(["analyze", families["gen80"], "--format", fmt, "--out", str(serial)]) == 0
        assert used[-1] == 1
        assert pooled.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_a_failing_write_leaves_no_worker(self, monkeypatch, capsys, families, fmt):
        stdout = _Interrupting(BrokenPipeError(32, "Broken pipe"))
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["analyze", families["gen80"], "--format", fmt]) == 2
        assert stdout.workers == _pooled()
        assert _children() == 0
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_a_pooled_refusal_exits_2_before_the_report(self, monkeypatch, capsys, tmp_path,
                                                        fmt):
        # however few the rows, the report would run on the pool; the check
        # refuses before it, and nothing is forked
        used, forks = [], _count_forks(monkeypatch)
        monkeypatch.setattr(cli, "POOL_MIN_ROWS", 0)
        monkeypatch.setattr(cli, "_workers", lambda rows: used.append(_workers(rows)) or used[-1])
        path = tmp_path / "tiny.json"
        save_text(str(path), family_to_json(inconsistent_family()))
        out = tmp_path / "report"
        code = main(["analyze", str(path), "--zero-tol", "0", "--format", fmt, "--out", str(out)])
        assert (used, forks) == ([], [])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == REFUSAL
        assert not out.exists()
        assert _children() == 0

    @pytest.mark.parametrize("exit_path", ["finished", "refused", "broken pipe", "interrupted",
                                           "worker exception"])
    def test_every_exit_path_joins_the_workers(self, monkeypatch, capsys, tmp_path, families,
                                               exit_path):
        started, forks = [], _count_forks(monkeypatch)

        class Recorded(Pool):
            def __init__(self, *args):
                super().__init__(*args)
                started.append(_children())

        monkeypatch.setattr("qpc.pool.Pool", Recorded)
        argv = ["analyze", families["gen80"]]
        stdout = _Interrupting({"broken pipe": BrokenPipeError(32, "Broken pipe"),
                                "interrupted": KeyboardInterrupt()}.get(exit_path, None))
        if exit_path == "refused":
            monkeypatch.setattr(cli, "POOL_MIN_ROWS", 0)
            path = tmp_path / "tiny.json"
            save_text(str(path), family_to_json(inconsistent_family()))
            argv = ["analyze", str(path), "--zero-tol", "0"]
        elif exit_path == "worker exception":
            lines = cli._triangle_lines

            def refused(kernel, r):
                if r.start == 20 * invariants.TRIANGLE_BLOCK:
                    raise ValueError("block 20 refused")
                return lines(kernel, r)

            monkeypatch.setattr(cli, "_triangle_lines", refused)
        if stdout.error is not None:
            monkeypatch.setattr(sys, "stdout", stdout)
        code = main(argv)
        err = capsys.readouterr().err
        assert (code, err) == {
            "finished": (0, ""),
            "refused": (2, REFUSAL),
            "broken pipe": (2, "error: [Errno 32] Broken pipe\n"),
            "interrupted": (130, "error: interrupted\n"),
            "worker exception": (2, "error: block 20 refused\n"),
        }[exit_path]
        # a refusal forks nothing
        assert (started, len(forks)) == (([], 0) if exit_path == "refused"
                                         else ([_pooled()], _pooled()))
        assert _children() == 0


class TestSeed:
    """A seed is a non-negative integer, from --seed or QPC_SEED, wherever
    a command reads one."""

    @pytest.fixture
    def files(self, tmp_path, octant_family):
        coherent = PhaseMatrix.from_edges(3, {(0, 1): 1j, (0, 2): 1.0, (1, 2): -1j})
        docs = {"gram": matrix_to_json("gram", gram(octant_family).entries),
                "coherent": matrix_to_json("phase", coherent),
                "searched": matrix_to_json("phase", uniform_phases(np.random.default_rng(3), 4))}
        for name, doc in docs.items():
            save_text(str(tmp_path / name), doc)
        return lambda argv: [str(tmp_path / a) if a in docs else a for a in argv]

    COMMANDS = [["gen", "--n", "3"], ["verify", "--cases", "1"], ["realize", "gram"],
                ["realize", "coherent"], ["realize", "searched", "--restarts", "1"]]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "-".join(argv[:2]))
    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_a_seed_option_not_a_non_negative_integer_is_a_usage_error(self, capsys, files, argv, seed):
        assert main([*files(argv), "--seed", seed]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage: qpc {argv[0]} ")
        assert err.endswith(f"error: argument --seed: must be a non-negative integer, "
                            f"got '{seed}'\n")

    @pytest.mark.parametrize("argv", [a for a in COMMANDS if a[1] != "gram"],
                             ids=lambda argv: "-".join(argv[:2]))
    def test_a_negative_qpc_seed_is_a_usage_error(self, capsys, monkeypatch, files, argv):
        monkeypatch.setenv("QPC_SEED", "-3")
        assert main(files(argv)) == 2
        assert capsys.readouterr() == ("", "error: QPC_SEED must be a non-negative integer, "
                                           "got '-3'\n")

    def test_a_gram_file_reads_no_qpc_seed(self, capsys, monkeypatch, files):
        monkeypatch.setenv("QPC_SEED", "-3")
        assert main(files(["realize", "gram"])) == 0


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
        assert "status: not_realizable" in out
        assert "failed positive semidefinite" in out

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

    def test_searched_output_is_the_same_in_fresh_processes(self, tmp_path):
        # a fresh process puts the search's arrays at other addresses; the
        # bytes must not depend on them.  Witnessed five-state phases on 7 of
        # 10 edges, certified, and uniform angles, whose failed searches
        # print their best residual
        paths = []
        pairs = list(itertools.combinations(range(5), 2))
        for k in range(6):
            rng = np.random.default_rng([3, k])
            if k < 4:
                g = gram(random_family(5, rng)).entries
                edges = {pairs[e]: g[pairs[e]] / abs(g[pairs[e]]) for e in rng.choice(10, 7, replace=False)}
                u = PhaseMatrix.from_edges(5, edges)
            else:
                u = uniform_phases(rng, 5)
            paths.append(str(tmp_path / f"u{k}.json"))
            save_text(paths[-1], matrix_to_json("phase", u))
        script = (
            "import sys\nfrom qpc.cli import main\nfor p in sys.argv[1:]:\n"
            "    main(['realize', p, '--restarts', '4', '--max-iters', '200', '--format', 'structured'])\n"
        )

        def realize_all():
            return subprocess.run(
                [sys.executable, "-W", "error", "-c", script, *paths],
                capture_output=True, check=True, env=dict(os.environ, PYTHONPATH=SRC),
            ).stdout

        first = realize_all()
        assert first.count(b'"status": "realizable"') >= 4
        assert b'"status": "search_failed"' in first
        assert realize_all() == first

    @pytest.mark.parametrize("n", [40, 120])
    def test_coherent_output_is_the_same_under_other_cpu_kernels(self, tmp_path, n):
        # the single-ray certificate and its residual are rounded by scalar
        # rules, so neither an OpenBLAS kernel nor numpy's SIMD loops pick a bit
        rng = np.random.default_rng([n, 3])
        a = rng.uniform(-math.pi, math.pi, n)
        u = PhaseMatrix.from_edges(n, {(i, j): cmath.exp(1j * (a[i] - a[j]))
                                       for i, j in itertools.combinations(range(n), 2)})
        path = str(tmp_path / "coherent.json")
        save_text(path, matrix_to_json("phase", u))

        def realize(**env):
            return subprocess.run(
                [sys.executable, "-W", "error", "-m", "qpc", "realize", path, "--format", "structured"],
                capture_output=True, check=True, env=dict(os.environ, PYTHONPATH=SRC, **env),
            ).stdout

        first = realize()
        assert b"single base state" in first
        assert realize(OPENBLAS_CORETYPE="Prescott") == first
        assert realize(NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4") == first

    # sha256 of realize --format structured on the analyze --emit-gram file of
    # gen --n 40 --seed 7: check_gram's eigenvalues print nothing here, and the
    # pivot factor and its residual are elementwise real arithmetic
    SHA256_GRAM_40 = "98c85eccb22c3f20416650c721d0b26100c2427add56002701ee95ce1f57f92a"

    def test_the_gram_route_prints_the_same_bytes_under_every_kernel(self, capsys, tmp_path):
        family, path = str(tmp_path / "family.json"), str(tmp_path / "gram.json")
        assert main(["gen", "--n", "40", "--seed", "7", "--out", family]) == 0
        assert main(["analyze", family, "--emit-gram", path, "--out", os.devnull]) == 0
        capsys.readouterr()
        assert _digests_under_every_kernel(
            "realize", path, "--format", "structured") == {self.SHA256_GRAM_40}

    def test_unreachable_tolerance_is_inconclusive(self, capsys, tmp_path, octant_family):
        from qpc import phases

        upath = tmp_path / "u.json"
        save_text(str(upath), matrix_to_json("phase", phases(gram(octant_family))))
        # one evaluation per restart: the octant's phases are exact enough that a
        # converged search can land within 1e-30 of them (2.3e-41 has been seen)
        # --out holds a certificate or nothing: the report goes to stdout
        cert = tmp_path / "certificate.json"
        code, out = run_cli(
            capsys, "realize", str(upath),
            "--restarts", "2", "--max-iters", "1", "--realize-tol", "1e-30", "--out", str(cert),
        )
        assert code == 3
        assert "status: search_failed" in out
        assert "not a proof" in out
        assert not cert.exists()

    def test_probability_kind_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        save_text(str(path), matrix_to_json("probability", np.eye(2)))
        code, _ = run_cli(capsys, "realize", str(path))
        assert code == 2

    @pytest.mark.parametrize("out", [False, True])
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("matrix", [np.eye(3), [[1.0, 1.2], [1.2, 1.0]]])
    def test_a_failing_gram_prints_the_check_verdict(self, capsys, tmp_path, matrix, fmt, out):
        # check prints the verdict, and realize answers not_realizable in its
        # own shape, its residual the verdict's worst violation; both exit 1.
        # check's --out file holds the verdict; realize's --out holds a
        # certificate or nothing, so here its report goes to stdout and the
        # file is never written
        path = tmp_path / "bad.json"
        save_text(str(path), matrix_to_json("gram", np.array(matrix, dtype=complex)))
        reports = {}
        for command in ("check", "realize"):
            dest = tmp_path / f"{command}.out"
            argv = [command, str(path), "--format", fmt] + (["--out", str(dest)] if out else [])
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 1 and captured.err == ""
            to_file = out and command == "check"
            assert (captured.out == "") == to_file
            assert dest.exists() == to_file
            reports[command] = dest.read_text() if to_file else captured.out
        verdict = check_gram(np.array(matrix, dtype=complex))
        diagnostics = str(GramRefusal(verdict)).partition("; worst violation")[0]
        if fmt == "structured":
            assert reports["check"] == dump_doc(cli._verdict_doc(verdict))
            assert json.loads(reports["check"])["realizable"] is False
            assert json.loads(reports["realize"]) == {
                "status": "not_realizable", "residual": verdict.worst_violation,
                "diagnostics": diagnostics, "certificate": None}
        else:
            assert reports["check"] == cli._verdict_text(verdict)
            assert "verdict: not realizable by qubit states" in reports["check"]
            residual = "%.15g" % verdict.worst_violation
            assert reports["realize"] == (
                f"status: not_realizable\nresidual: {residual}\ndiagnostics: {diagnostics}\n")

    def test_an_indefinite_gram_prints_pinned_bytes(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        save_text(str(path), matrix_to_json("gram", np.array([[1.0, 1.2], [1.2, 1.0]])))
        refusal = "matrix is not a qubit Gram matrix: failed positive semidefinite"
        expected = {
            ("check", "text"): (
                "hermitian: ok\nunit diagonal: ok\npositive semidefinite: FAIL\n"
                "rank at most 2: ok\nrank estimate: 1\neigenvalues: 2.2  -0.2\n"
                "worst violation: 0.2\nverdict: not realizable by qubit states\n"),
            ("check", "structured"): (
                '{\n  "hermitian_ok": true,\n  "unit_diag_ok": true,\n  "psd_ok": false,\n'
                '  "rank_ok": true,\n  "rank_estimate": 1,\n  "eigenvalues": [\n    2.2,\n'
                '    -0.1999999999999999\n  ],\n  "worst_violation": 0.1999999999999999,\n'
                '  "realizable": false\n}\n'),
            ("realize", "text"): (
                f"status: not_realizable\nresidual: 0.2\ndiagnostics: {refusal}\n"),
            ("realize", "structured"): (
                '{\n  "status": "not_realizable",\n  "residual": 0.1999999999999999,\n'
                f'  "diagnostics": "{refusal}",\n  "certificate": null\n}}\n'),
        }
        for (command, fmt), report in expected.items():
            assert run_cli(capsys, command, str(path), "--format", fmt) == (1, report)

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
        # every case of them fails: the lines name the first, case 0
        expected = [
            f"failed: property {idx} {name} at case 0 with seed 5; "
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

    @pytest.mark.parametrize("case", [1, 3])
    @pytest.mark.parametrize("failure", [math.nan, 1.0])
    def test_a_failing_line_names_the_first_failing_case(self, capsys, monkeypatch, case,
                                                         failure):
        from qpc import verification

        # a property registered last, as qpc.verification says to add one,
        # whose case alone fails on the stream of seed 5, by NaN or over its
        # tolerance
        props = list(verification.PROPERTIES)
        monkeypatch.setattr(verification, "PROPERTIES", props)
        draws = np.random.default_rng([5, len(props)]).random(50)
        calls = []

        def fails_at_one_case(rng):
            calls.append(rng.random())
            return failure if calls[-1] == draws[case] else 0.0

        verification._property("fails_at_one_case", 0.5)(fails_at_one_case)
        assert main(["verify", "--cases", "50", "--seed", "5"]) == 1
        out, err = capsys.readouterr()
        assert out.count("FAIL") == 1
        assert err == (f"failed: property {len(props) - 1} fails_at_one_case at case {case} "
                       "with seed 5; replay: qpc verify --seed 5 --cases 50\n")
        # one pass: 50 calls, one per case in stream order, and no replay
        assert calls == draws.tolist()
        assert _children() == 0

    def test_a_property_that_samples_nothing_names_no_case(self, capsys, monkeypatch):
        from qpc import oracles, verification

        assert verification.PROPERTIES[0] is verification._prop_pauli
        monkeypatch.setattr(verification, "oracle_pauli_traces", lambda: oracles.OracleReport(
            "pauli_trace_identities", 36, math.nan, 1e-12))
        assert main(["verify", "--cases", "2", "--seed", "5"]) == 1
        assert capsys.readouterr().err == (
            "failed: property 0 pauli_trace_identities with seed 5; "
            "replay: qpc verify --seed 5 --cases 2\n")


class _BrokenPipe(_WriteSizes):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def _replace_properties(monkeypatch, replaced: dict) -> None:
    """Let verify run replaced[idx] as property idx, for each idx given."""
    from qpc import verification

    props = list(verification.PROPERTIES)
    for idx, prop in replaced.items():
        props[idx] = prop
    monkeypatch.setattr(verification, "PROPERTIES", props)


class TestOneProcessVerify:
    """verify runs its properties in this process at every --cases: it forks
    nothing, prints the same bytes under every kernel, on every CPU and on
    one, and leaves no child process on any exit path."""

    # sha256 of verify --cases 50 --format structured.  Every property
    # rounds by scalar or elementwise arithmetic, the pivot factor of the
    # gram round trip included, so no BLAS kernel, SIMD loop or thread count
    # picks a bit, and the bytes are the same on every CPU and on one
    SHA256_50 = "a6b884f5485942b1a06912634afe2d3fbe5094c4ece54420e77d8f73dc8bdbbe"

    def test_the_bytes_are_pinned_under_every_kernel(self):
        assert _digests_under_every_kernel(
            "verify", "--cases", "50", "--format", "structured") == {self.SHA256_50}

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_failing_properties_print_one_line_each(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(invariants, "bargmann", lambda *args: complex(math.nan, 0.0))
        code = main(["verify", "--cases", "50", "--seed", "5", "--format", fmt])
        err = capsys.readouterr().err
        assert _children() == 0
        assert code == 1 and len(err.splitlines()) == len(BARGMANN_PROPERTIES)
        assert err.startswith("failed: property 1 bargmann_matches_componentwise_oracle "
                              "at case 0 with seed 5; replay: qpc verify --seed 5 --cases 50\n")

    def test_a_property_that_raises_is_raised_in_its_turn(self, monkeypatch, capsys):
        # properties 3 and 5 raise: 3 comes first, and nothing is printed
        def refused(idx):
            def prop(cases, rng):
                raise ValueError(f"property {idx} refused")
            return prop

        _replace_properties(monkeypatch, {3: refused(3), 5: refused(5)})
        assert main(["verify", "--cases", "50"]) == 2
        assert capsys.readouterr() == ("", "error: property 3 refused\n")
        assert _children() == 0

    @pytest.mark.parametrize("exit_path", ["finished", "broken pipe", "interrupted",
                                           "property exception"])
    def test_every_exit_path_leaves_no_child(self, monkeypatch, capsys, exit_path):
        from qpc import verification

        running, prop = [], verification.PROPERTIES[7]

        def interrupting(cases, rng):
            # a Ctrl-C reaches the process while it runs a property
            os.kill(os.getpid(), signal.SIGINT)
            return prop(cases, rng)

        def refusing(cases, rng):
            raise ValueError("property 7 refused")

        def recorded(cases, rng):
            running.append(_children())
            return {"interrupted": interrupting, "property exception": refusing}.get(
                exit_path, prop)(cases, rng)

        def forbidden():
            raise AssertionError("verify forked")

        monkeypatch.setattr(os, "fork", forbidden)
        if exit_path == "broken pipe":
            monkeypatch.setattr(sys, "stdout", _BrokenPipe())
        _replace_properties(monkeypatch, {7: recorded})
        code = main(["verify", "--cases", "50"])
        err = capsys.readouterr().err
        assert (code, err) == {
            "finished": (0, ""),
            "broken pipe": (2, "error: [Errno 32] Broken pipe\n"),
            "interrupted": (130, "error: interrupted\n"),
            "property exception": (2, "error: property 7 refused\n"),
        }[exit_path]
        assert running == [0]
        assert _children() == 0


class TestSearchedRealize:
    """The bytes of a phase search that goes past restart 0, pinned: every
    later restart starts from the next Haar-random family of the one
    stream default_rng([seed, component]), made at restart 1."""

    DATA = Path(__file__).parent / "data" / "realize"
    # sha256 of realize --format structured under OPENBLAS_CORETYPE=Prescott,
    # (exit code, the restarts named in the diagnostics) of each file: the
    # phases of a 7-state Haar family on 18 of its 21 pairs, certified at
    # restart 3, and uniform random phases on the 10 pairs of 5 states,
    # which exhaust the default 32 restarts.  The search's sums and solves
    # go through BLAS and LAPACK, whose last digits differ between kernels,
    # so the bytes are pinned under one named kernel.
    PINS = {
        "witnessed-7.json": (0, "local search succeeded after 4 restart(s)",
                             "fce8c855131827633e9c412cf862f6f394327a90cd15f0a69884817f1a1c36c4"),
        "uniform-5.json": (3, "local search exhausted its restarts",
                           "328bd5cbc89c49e1787ecee02760dbd09b307665d67446ee91050f50837a32e0"),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_the_bytes_under_one_kernel_are_pinned(self, name):
        if platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip("OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qpc", "realize", str(self.DATA / name),
             "--format", "structured"],
            capture_output=True, env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_CORETYPE="Prescott"))
        code, diagnostics, digest = self.PINS[name]
        assert (proc.returncode, proc.stderr) == (code, b"")
        assert json.loads(proc.stdout)["diagnostics"].startswith(diagnostics)
        assert hashlib.sha256(proc.stdout).hexdigest() == digest

    def test_without_search_options_the_search_takes_search_config_s_defaults(
            self, capsys, monkeypatch):
        # realize states no search default of its own
        configs, search = [], realizability.realize_phases
        monkeypatch.setattr(realizability, "realize_phases",
                            lambda u, cfg: configs.append(cfg) or search(u, cfg))
        monkeypatch.delenv("QPC_SEED", raising=False)
        assert main(["realize", str(self.DATA / "witnessed-7.json")]) == 0
        assert configs == [SearchConfig(seed=0)]
        assert "local search succeeded after 4 restart(s)" in capsys.readouterr().out

    # the phases of a 4-state Haar family on the pairs (0, 1), (1, 2), (1, 3)
    # and (2, 3): on the default and SkylakeX OpenBLAS kernels of an AVX-512
    # machine, LAPACK calls one of the search's damped systems singular
    SINGULAR = DATA / "singular-solve-4.json"

    def test_a_singular_damped_system_does_not_end_the_search(self, capsys):
        assert main(["realize", str(self.SINGULAR)]) == 0
        assert "local search succeeded after 1 restart(s)" in capsys.readouterr().out

    def test_the_search_goes_on_under_the_skylakex_kernel(self):
        if not _cpu_flag("avx512f"):
            pytest.skip("OPENBLAS_CORETYPE=SkylakeX needs an AVX-512 CPU")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qpc", "realize", str(self.SINGULAR)],
            capture_output=True, env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_CORETYPE="SkylakeX"))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert b"status: realizable" in proc.stdout


def _cpu_flag(flag: str) -> bool:
    """Whether /proc/cpuinfo lists flag; False where there is no such file."""
    try:
        with open("/proc/cpuinfo") as f:
            return any(line.startswith("flags") and flag in line.split() for line in f)
    except OSError:
        return False


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
            ("realize", {"version": 1, "kind": "phase", "n": 3, "support": [[1, 1]],
                         "entries": [ONE_C]},
             "error: invalid phase matrix: self-loop at vertex 1"),
            *[("realize", {"version": 1, "kind": "phase", "n": 3, "support": support,
                           "entries": [ONE_C, ONE_C]},
               f"error: invalid phase matrix: pair {repeat} is given twice")
              for support, repeat in [([[0, 1], [1, 0]], "(1, 0)"), ([[0, 1], [0, 1]], "(0, 1)")]],
            ("realize", {"version": 1, "kind": "phase", "n": 3, "support": [[0, 2.0]],
                         "entries": [ONE_C]},
             "error: support edge 0 must hold integers"),
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
        ["realize", "phase.json", "--realize-tol", "0"],
        ["realize", "phase.json", "--realize-tol", "1e-400"],
    ])
    def test_tolerances_must_be_finite(self, capsys, argv):
        # argparse refuses them before the file is read: it does not exist
        assert main(argv) == 2
        rule = "a finite number > 0" if "realize" in argv else "a finite number >= 0"
        assert f"argument {argv[2].partition('=')[0]}: must be {rule}, got" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv, rule", [
        (["gen", "--n", "x"], "must be a positive integer, got 'x'"),
        (["realize", "phase.json", "--restarts", "x"], "must be a positive integer, got 'x'"),
        (["realize", "phase.json", "--max-iters", "1.5"], "must be a positive integer, got '1.5'"),
        (["verify", "--cases", ""], "must be a positive integer, got ''"),
        (["analyze", "family.json", "--zero-tol", "x"], "must be a finite number >= 0, got 'x'"),
        (["realize", "phase.json", "--realize-tol", "1e-7x"],
         "must be a finite number > 0, got '1e-7x'"),
    ], ids=["n", "restarts", "max-iters", "cases", "zero-tol", "realize-tol"])
    def test_a_non_numeric_option_names_its_rule(self, capsys, argv, rule):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: {rule}" in err
        assert "invalid" not in err

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

    @pytest.mark.parametrize("command, solver", [("check", "eigvalsh"), ("realize", "eigvalsh")])
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
        # finite, but its Hermitian deviation overflows to inf
        write("skew", matrix_to_json("gram", np.array([[1, 1e308], [-1e308, 1]], dtype=complex)))
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
        ["check", "skew"],
        ["realize", "skew"],
    ])
    def test_parses_strictly(self, capsys, inputs, argv):
        argv = [inputs.get(a, a) for a in argv]
        assert main(argv + ["--format", "structured"]) in (0, 1, 3)
        json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)

    @pytest.mark.parametrize("command, key, text", [
        ("check", "worst_violation", "worst violation: inf\n"),
        ("realize", "residual", "residual: inf\n"),
    ])
    def test_an_infinite_number_is_null_and_its_text_is_kept(
            self, capsys, inputs, command, key, text):
        assert main([command, inputs["skew"], "--format", "structured"]) == 1
        assert json.loads(capsys.readouterr().out)[key] is None
        assert main([command, inputs["skew"]]) == 1
        assert text in capsys.readouterr().out

    def test_a_nan_discrepancy_is_null(self, capsys, monkeypatch):
        monkeypatch.setattr(invariants, "bargmann", lambda *args: complex(math.nan, 0.0))
        assert main(["verify", "--cases", "2", "--format", "structured"]) == 1
        doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
        failed = [r["max_discrepancy"] for r in doc["reports"] if not r["passed"]]
        assert failed == [None] * len(BARGMANN_PROPERTIES)


class TestComplexFormat:
    def test_the_sign_is_the_format_s_own(self):
        # imag + 0.0 under "%+.15g" against the old "+"/"-" column and |imag|
        parts = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                 -2.2250738585072014e-308, 0.1, -0.1, 1.0, -1.0, 1e16, -1e16, 1e300, -1e300]
        z = np.array([complex(r, i) for r in parts for i in parts])
        text = "".join(run_parts(row_jobs(cli._COMPLEX, " ", len(z), cli._complex_columns(z))))
        assert text == " ".join(
            "%.15g%s%.15gi" % (w.real, "+" if w.imag >= 0 else "-", abs(w.imag)) for w in z)


class TestUsage:
    def test_an_interrupt_is_one_line_and_exit_130(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_gen", interrupted)
        assert main(["gen", "--n", "3"]) == 130
        assert capsys.readouterr() == ("", "error: interrupted\n")

    def test_an_interrupt_while_the_command_imports_is_one_line_and_exit_130(self):
        # the child sends itself SIGINT when qpc.states is first imported,
        # after qpc and before qpc.cli is loaded
        script = textwrap.dedent("""
            import os, signal, sys

            class Interrupt:
                def find_spec(self, name, path=None, target=None):
                    if name == "qpc.states":
                        os.kill(os.getpid(), signal.SIGINT)

            sys.meta_path.insert(0, Interrupt())
            from qpc.__main__ import run
            sys.exit(run())
        """)
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script, "gen", "--n", "3"],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
        assert (proc.returncode, proc.stderr, proc.stdout) == (130, "error: interrupted\n", "")

    def test_an_ignored_interrupt_stays_ignored(self):
        # a shell starts a background job with SIGINT ignored; the child
        # ignores it from the start, also while the command imports
        script = textwrap.dedent("""
            import os, signal, sys

            class Interrupt:
                def find_spec(self, name, path=None, target=None):
                    if name == "qpc.states":
                        os.kill(os.getpid(), signal.SIGINT)

            signal.signal(signal.SIGINT, signal.SIG_IGN)
            sys.meta_path.insert(0, Interrupt())
            from qpc.__main__ import run
            code = run()
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
            sys.exit(code)
        """)
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", script, "gen", "--n", "3", "--seed", "4"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == family_to_json(random_family(3, 4))

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


class TestColdCommand:
    """python -m qpc loads the modules of the command it runs, and no more,
    and its run() turns the collector off only while qpc.cli is imported;
    cli.main, which a long-lived process may call many times, leaves the
    collector alone."""

    # a child that runs the command as python -m qpc does, then reports its
    # exit code, whether the collector is on and the qpc modules it loaded
    SCRIPT = textwrap.dedent("""
        import gc, os, sys
        from qpc.__main__ import run
        code = run()
        sys.stdout.flush()
        loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "qpc")
        os.write(2, repr((code, gc.isenabled(), loaded)).encode())
    """)

    # the modules each command does not load
    NOT_LOADED = {
        "gen": {"invariants", "realizability", "verification", "oracles"},
        "analyze": {"realizability", "verification", "oracles"},
        "check": {"verification", "oracles"},
        "realize": {"verification", "oracles"},
        "verify": set(),
    }

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cold")
        g = gram(random_family(4, 2))
        docs = {"family": family_to_json(random_family(4, 2)),
                "gram": matrix_to_json("gram", g.entries),
                "phase": matrix_to_json("phase", phases(g))}
        for name, doc in docs.items():
            save_text(str(d / name), doc)
        return lambda argv: [str(d / a) if a in docs else a for a in argv]

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "3"], ["analyze", "family"], ["check", "gram"], ["realize", "gram"],
        ["realize", "phase"], ["verify", "--cases", "2"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_a_command_loads_only_its_modules(self, inputs, argv):
        proc = subprocess.run([sys.executable, "-W", "error", "-c", self.SCRIPT, *inputs(argv)],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
        code, enabled, loaded = ast.literal_eval(proc.stderr)
        assert (code, enabled) == (0, True)
        assert {"qpc", "qpc.__main__", "qpc.cli", "qpc.files", "qpc.states"} <= set(loaded)
        skipped = {f"qpc.{name}" for name in self.NOT_LOADED[argv[0]]}
        assert skipped.isdisjoint(loaded), sorted(skipped & set(loaded))
        if argv[0] == "verify":
            assert {"qpc.verification", "qpc.oracles"} <= set(loaded)

    def test_main_leaves_the_collector_alone(self, capsys):
        enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        try:
            for on in (True, False):
                (gc.enable if on else gc.disable)()
                assert main(["gen", "--n", "3"]) == 0
                assert main(["verify", "--cases", "2"]) == 0
                assert (gc.isenabled(), gc.get_freeze_count()) == (on, frozen)
        finally:
            (gc.enable if enabled else gc.disable)()
        capsys.readouterr()
