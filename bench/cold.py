"""Cold-start ledger: what each small qpc command costs as a fresh process.

Usage: python bench/cold.py [--runs N] [--out PATH]

Runs the six command kinds of perfbench's cli-cold workload (gen, analyze,
check, realize on a gram and on a phase file, verify --cases 50), each as
its own python -m qpc process, on fixed inputs of 8 states that qpc gen
and analyze write first, N times in turns (11 by default).  ledger.main
measures them and writes BENCH_cold.json at the root of the checkout (or
--out): per kind, the wall and CPU times, the peak resident memory, the
sha256 of its standard output, and which modules it loaded (numpy.random,
multiprocessing and those of qpc) and how many workers it forked.
"""

from __future__ import annotations

import os
import subprocess
import sys

import ledger

# name, argv, the exit codes it may end with; "{d}" is the input directory
KINDS = [
    ("gen-8", ["gen", "--n", "8", "--seed", "11"], {0}),
    ("analyze-8", ["analyze", "{d}/family-8.json", "--format", "structured"], {0}),
    ("check-8", ["check", "{d}/gram-8.json"], {0}),
    ("realize-gram-8", ["realize", "{d}/gram-8.json", "--format", "structured"], {0}),
    ("realize-phase-8", ["realize", "{d}/phase-8.json", "--format", "structured"], {0, 3}),
    ("verify-50", ["verify", "--cases", "50", "--format", "structured"], {0}),
]


def kinds(d: str, env: dict, args) -> dict:
    """KINDS, on the family, gram and phase files of 8 states written to d."""
    qpc = [sys.executable, "-m", "qpc"]
    family = os.path.join(d, "family-8.json")
    subprocess.run(qpc + ["gen", "--n", "8", "--seed", "7", "--out", family],
                   env=env, check=True)
    subprocess.run(qpc + ["analyze", family, "--emit-gram", os.path.join(d, "gram-8.json"),
                          "--emit-phase", os.path.join(d, "phase-8.json"), "--out", os.devnull],
                   env=env, check=True)
    return {name: ([a.format(d=d) for a in argv], codes) for name, argv, codes in KINDS}


def main(argv=None) -> int:
    return ledger.main("cold", ledger.parser(__doc__, 11, "BENCH_cold.json"), kinds, argv)


if __name__ == "__main__":
    sys.exit(main())
