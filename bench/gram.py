"""Gram ledger: what judging and factoring a large Gram matrix costs as a
fresh process.

Usage: python bench/gram.py [--sizes N [N ...]] [--runs R] [--out PATH]

Runs check and realize, both --format structured, on the gram file of
random_family(N, 7) (the gram file analyze --emit-gram writes for the
family of qpc gen --n N --seed 7), for each N of --sizes (200 and 1000),
each as its own python -m qpc process, R times in turns (3 by default).
The file holds an accepted matrix of rank 2, so check judges it by one
eigvalsh, and realize factors it from two pivot columns, which alone
prove check's acceptance: realize calls no eigensolver.  ledger.main
measures them and writes BENCH_gram.json at the
root of the checkout (or --out): per kind, the wall and CPU times, the
peak resident memory, the sha256 of its output and the modules it
loaded.  Most of each command's time at N = 1000 is the loading of its
78 MB JSON file.
"""

from __future__ import annotations

import os
import subprocess
import sys

import ledger

# writes the gram file of random_family(N, 7) to PATH: python -c WRITE N PATH
WRITE = ("import sys\n"
         "from qpc import gram, matrix_to_json, random_family, save_text\n"
         "n, path = int(sys.argv[1]), sys.argv[2]\n"
         "save_text(path, matrix_to_json('gram', gram(random_family(n, 7)).entries))\n")


def kinds(d: str, env: dict, args) -> dict:
    """check and realize on the gram file of each size, written to d."""
    commands = {}
    for n in args.sizes:
        path = os.path.join(d, f"gram-{n}.json")
        subprocess.run([sys.executable, "-c", WRITE, str(n), path], env=env, check=True)
        for command in ("check", "realize"):
            commands[f"{command}-{n}"] = ([command, path, "--format", "structured"], {0})
    return commands


def main(argv=None) -> int:
    cli = ledger.parser(__doc__, 3, "BENCH_gram.json")
    cli.add_argument("--sizes", type=int, nargs="+", default=[200, 1000],
                     help="the states of each family")
    return ledger.main("gram", cli, kinds, argv, seed=7)


if __name__ == "__main__":
    sys.exit(main())
