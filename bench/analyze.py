"""Analyze ledger: what a whole analyze report costs as a fresh process.

Usage: python bench/analyze.py [--sizes N [N ...]] [--runs R] [--out PATH]

Runs analyze of the family that qpc gen --n N --seed 7 writes, for each N
of --sizes (80 and 200), in the text and the structured format, each as
its own python -m qpc process, R times in turns (5 by default).
ledger.main measures them and writes BENCH_analyze.json at the root of
the checkout (or --out): per kind, the wall and CPU times, the peak
resident memory, the sha256 of the report, the modules it loaded, and
how many workers it forked: W - 1 on a pool of W processes, since the
process renders a share of the report itself (0: the process alone).
"""

from __future__ import annotations

import os
import subprocess
import sys

import ledger

FORMATS = ("text", "structured")


def kinds(d: str, env: dict, args) -> dict:
    """analyze in both formats of the family of each size, written to d."""
    commands = {}
    for n in args.sizes:
        family = os.path.join(d, f"family-{n}.json")
        subprocess.run([sys.executable, "-m", "qpc", "gen", "--n", str(n), "--seed", "7",
                        "--out", family], env=env, check=True)
        for fmt in FORMATS:
            commands[f"analyze-{n}-{fmt}"] = (["analyze", family, "--format", fmt], {0})
    return commands


def main(argv=None) -> int:
    cli = ledger.parser(__doc__, 5, "BENCH_analyze.json")
    cli.add_argument("--sizes", type=int, nargs="+", default=[80, 200],
                     help="the states of each family")
    return ledger.main("analyze", cli, kinds, argv, seed=7)


if __name__ == "__main__":
    sys.exit(main())
