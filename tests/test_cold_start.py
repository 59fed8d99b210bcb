"""Start-up cost: no command loads scipy, the phase search included; the
small commands load no module of analyze's worker processes; and each
command loads only the modules its work runs.

Each check runs in a fresh interpreter, because the test process itself
may have imported scipy, numpy.random or multiprocessing long since.
"""

import cmath
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from qpc import PhaseMatrix, matrix_to_json, save_text
from qpc.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")
DATA = Path(__file__).parent / "data" / "realize"

SCRIPT = """
import cmath, contextlib, io, os, sys

def loaded(*tops):
    return sorted(m for m in sys.modules if m.partition(".")[0] in tops)

def scipy_loaded():
    return loaded("scipy")

import qpc, qpc.cli
assert scipy_loaded() == [], scipy_loaded()

from qpc import PhaseMatrix, gram, matrix_to_json, phases, save_text
from qpc.cli import main

d = sys.argv[1]
def path(name):
    return os.path.join(d, name)

angles = [0.0, 0.4, -1.3]
coherent = PhaseMatrix.from_edges(
    3, {(i, j): cmath.exp(1j * (angles[i] - angles[j])) for i in range(3) for j in range(i + 1, 3)}
)
save_text(path("coherent.json"), matrix_to_json("phase", coherent))

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, (argv, code, out.getvalue())
    return out.getvalue()

run("gen", "--n", "4", "--seed", "7", "--out", path("family.json"))
run("analyze", path("family.json"), "--emit-gram", path("gram.json"),
    "--emit-phase", path("phase.json"))
run("check", path("gram.json"))
assert "status: realizable" in run("realize", path("gram.json"))
assert "single base state" in run("realize", path("coherent.json"))
run("verify", "--cases", "2")
assert scipy_loaded() == [], scipy_loaded()
# a 4-state analyze renders in this process
assert loaded("multiprocessing", "concurrent") == [], loaded("multiprocessing", "concurrent")

# from here on any import of scipy raises ImportError
sys.modules["scipy"] = None
from qpc import QubitState, StateFamily
h = 2 ** -0.5
octant = StateFamily((QubitState(1.0, 0.0), QubitState(h, h), QubitState(h, 1j * h)))
save_text(path("octant.json"), matrix_to_json("phase", phases(gram(octant))))
out = run("realize", path("octant.json"), "--restarts", "4")
assert "status: realizable" in out and "local search succeeded" in out, out
assert sys.modules["scipy"] is None and scipy_loaded() == ["scipy"], scipy_loaded()
"""


def test_no_command_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", textwrap.dedent(SCRIPT), str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr


COHERENCE = """
import cmath, sys
from qpc import (PhaseMatrix, SearchConfig, gram, is_coherent, phases, random_family,
                 realize_coherent, realize_phases)

angles = [0.0, 0.4, -0.9, 1.7]
coherent = PhaseMatrix.from_edges(
    4, {(i, j): cmath.exp(1j * (angles[i] - angles[j])) for i in range(4) for j in range(i + 1, 4)}
)
square = PhaseMatrix.from_edges(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1j})
assert is_coherent(coherent, 1e-12) and not is_coherent(square, 1e-12)
realize_coherent(coherent)
assert "single base state" in realize_phases(coherent).diagnostics
witnessed = realize_phases(phases(gram(random_family(5, seed=8))), SearchConfig(restarts=4))
assert "local search succeeded" in witnessed.diagnostics, witnessed.diagnostics
assert "qpc.invariants" not in sys.modules
"""


def test_the_coherence_test_walks_no_triangles():
    # is_coherent, realize_coherent and realize_phases, the searched path
    # included, judge by the rephasing potential and load no triangle module
    proc = subprocess.run([sys.executable, "-W", "error", "-c", COHERENCE],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr


# A child that runs the command as python -m qpc does, counting its calls
# of os.fork, then reports its exit code, that count, the modules it loaded
# and the diagnostics line of a realize.
PROBE = textwrap.dedent("""
    import contextlib, io, json, os, sys

    fork, forks = os.fork, []
    os.fork = lambda: forks.append(1) or fork()
    from qpc.__main__ import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run()
    diagnostics = [line for line in out.getvalue().splitlines() if "diagnostics" in line]
    os.write(2, json.dumps([code, len(forks), sorted(sys.modules), diagnostics]).encode())
""")


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class TestEachCommandLoadsWhatItRuns:
    """A phase search loads numpy.random, and with it secrets and hashlib,
    only for a random restart; check and realize load no triangle module,
    gen no comparisons, verify no pool; analyze's pool forks without
    multiprocessing."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("loads")
        angles = [0.0, 0.4, -1.3]
        coherent = PhaseMatrix.from_edges(3, {
            (i, j): cmath.exp(1j * (angles[i] - angles[j])) for i in range(3) for j in range(i + 1, 3)})
        save_text(str(d / "coherent.json"), matrix_to_json("phase", coherent))
        for n in (8, 40):
            assert main(["gen", "--n", str(n), "--seed", "7", "--out", str(d / f"family{n}")]) == 0
        assert main(["analyze", str(d / "family8"), "--emit-gram", str(d / "gram"),
                     "--emit-phase", str(d / "phase"), "--out", os.devnull]) == 0
        names = {"family8", "family40", "gram", "phase", "coherent.json"}
        return lambda argv: [str(d / a) if a in names else a for a in argv]

    @staticmethod
    def probe(argv):
        proc = subprocess.run([sys.executable, "-W", "error", "-c", PROBE, *argv],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
        return json.loads(proc.stderr)

    @pytest.mark.parametrize("argv, diagnostics", [
        (["realize", "coherent.json"], "single base state"),
        # the phases of a family certify at the spectral guess
        (["realize", "phase"], "local search succeeded after 1 restart(s)"),
        (["realize", str(DATA / "witnessed-7.json")], "local search succeeded after 4 restart(s)"),
    ], ids=["coherent", "restart-0", "restart-3"])
    def test_numpy_random_only_for_a_random_restart(self, inputs, argv, diagnostics):
        code, forks, loaded, lines = self.probe(inputs(argv))
        assert (code, forks) == (0, 0)
        assert len(lines) == 1 and diagnostics in lines[0]
        random = {"numpy.random", "secrets", "hashlib"}
        if "after 1 restart" in diagnostics or "single" in diagnostics:
            assert random.isdisjoint(loaded), sorted(random & set(loaded))
        else:
            assert random <= set(loaded)
        assert "qpc.invariants" not in loaded

    @pytest.mark.parametrize("argv, unused", [
        (["gen", "--n", "8"], {"qpc.comparisons", "qpc.invariants"}),
        (["check", "gram"], {"qpc.invariants", "numpy.random"}),
        (["realize", "gram"], {"qpc.invariants", "numpy.random"}),
        (["verify", "--cases", "50"], {"qpc.pool", "multiprocessing", "concurrent"}),
    ], ids=["gen", "check", "realize-gram", "verify-50"])
    def test_no_module_the_command_does_not_run(self, inputs, argv, unused):
        code, forks, loaded, _ = self.probe(inputs(argv))
        assert (code, forks) == (0, 0)
        assert unused.isdisjoint(loaded), sorted(unused & set(loaded))

    @pytest.mark.parametrize("argv", [["analyze", "family40"]], ids=["analyze-40"])
    def test_the_pool_forks_without_multiprocessing(self, inputs, argv):
        code, forks, loaded, _ = self.probe(inputs(argv))
        # 14,640 report rows reach the pool where two CPUs are usable, and
        # the process is the last of one per CPU
        assert (code, forks) == (0, _cpus() - 1)
        assert not [m for m in loaded if m.partition(".")[0] in ("multiprocessing", "concurrent")]
