"""Start-up cost: no command loads scipy, the phase search included, and
the small commands load no module of analyze's worker processes.

Each check runs in a fresh interpreter, because the test process itself
may have imported scipy long since.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

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
