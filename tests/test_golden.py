"""Byte-for-byte regression of `qpc analyze` against committed goldens.

Every family file in tests/data/analyze is one case, analyzed with its
default flags; `orthogonal_pair-zero-tol` adds a cutoff that prunes two
support pairs.  The goldens in tests/data/analyze/golden are the text
report, the structured report and the three --emit-* matrix files,
written by `qpc analyze` itself with the flags below.  Every printed
number is rounded as its scalar formula rounds, so they hold byte for
byte on any x86-64 host and under any BLAS kernel.
Between them the families cover non-ASCII labels, a repeated ray, an
orthogonal pair, branch-cut triangles, renormalization warnings, n = 1
and n = 2 (no triangles) and -0.0 imaginary parts.
"""

from pathlib import Path

import pytest

from qpc.cli import main

DATA = Path(__file__).parent / "data" / "analyze"
GOLDEN = DATA / "golden"
CASES = {p.stem: (p.stem, []) for p in sorted(DATA.glob("*.json"))}
CASES["orthogonal_pair-zero-tol"] = ("orthogonal_pair", ["--zero-tol", "0.45"])
EMITS = ("gram", "probability", "phase")


def golden(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode("utf-8")


def test_cases_present():
    assert len(CASES) == 9


@pytest.mark.parametrize("fmt, suffix", [("text", ".txt"), ("structured", ".structured.json")])
@pytest.mark.parametrize("case", sorted(CASES))
def test_analyze_matches_golden(case, fmt, suffix, tmp_path, capsys):
    family, flags = CASES[case]
    argv = ["analyze", str(DATA / f"{family}.json"), "--format", fmt, *flags]
    for kind in EMITS:
        argv += [f"--emit-{kind}", str(tmp_path / f"{kind}.json")]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == golden(case + suffix)
    for kind in EMITS:
        assert (tmp_path / f"{kind}.json").read_bytes().decode("utf-8") == golden(
            f"{case}.{kind}.json"
        )
