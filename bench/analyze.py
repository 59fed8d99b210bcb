"""Analyze ledger: what a whole analyze report costs as a fresh process.

Usage: python bench/analyze.py [--sizes N [N ...]] [--runs R] [--out PATH]

Runs analyze of the family that qpc gen --n N --seed 7 writes, for each N
of --sizes (80 and 200), in the text and the structured format, each as
its own python -m qpc process.  The kinds take turns: run r runs every
kind once, so a drift of the host's speed reaches them all alike.  For
each kind it reports the median and the quartiles, over the R runs, of
the wall time from the start of the process to its exit and of the CPU
time of the process tree (user + system, the workers it reaped
included), the largest peak resident memory of any run, the sha256 of its
standard output and, from one more run that counts qpc.pool._fork calls,
how many workers it forked: W - 1 on a pool of W processes, since the
process renders a share of the report itself (0: the process alone).  The
report is hashed as it comes through a pipe, never stored.  It writes all of it to
BENCH_analyze.json at the root of the checkout (or to --out), prints one
line per kind, and exits 1 when a run fails or the runs of one kind print
different bytes.  BLAS runs one thread, as in perfbench.  qpc is imported
from the src directory of this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from cold import ROOT, _environment, _machine, _quartiles, _run

FORMATS = ("text", "structured")

# One analyze as python -m qpc runs it, then the count of its forked workers on stderr.
PROBE = """
import os, sys
import qpc.pool

fork, forks = qpc.pool._fork, []
qpc.pool._fork = lambda *args: forks.append(args) or fork(*args)
from qpc.__main__ import run
code = run()
os.write(2, str(len(forks)).encode())
sys.exit(code)
"""


def _ms(seconds: list) -> dict:
    q1, median, q3 = _quartiles([1000.0 * s for s in seconds])
    return {"median": round(median, 1), "q1": round(q1, 1), "q3": round(q3, 1)}


def _workers(argv: list, env: dict) -> int:
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv, "--out", os.devnull],
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, env=env, check=True)
    return int(proc.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[80, 200],
                        help="the states of each family")
    parser.add_argument("--runs", type=int, default=5, help="timed runs of every kind")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_analyze.json"))
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    env = _environment()
    with tempfile.TemporaryDirectory() as d:
        commands = {}
        for n in args.sizes:
            family = os.path.join(d, f"family-{n}.json")
            subprocess.run([sys.executable, "-m", "qpc", "gen", "--n", str(n), "--seed", "7",
                            "--out", family], env=env, check=True)
            for fmt in FORMATS:
                commands[f"analyze-{n}-{fmt}"] = ["analyze", family, "--format", fmt]
        walls = {name: [] for name in commands}
        cpus = {name: [] for name in commands}
        peaks = {name: 0 for name in commands}
        digests = {name: set() for name in commands}
        failures = []
        for r in range(args.runs):
            for name, kind_argv in commands.items():
                code, digest, seconds, rss, cpu = _run([sys.executable, "-m", "qpc", *kind_argv],
                                                       env)
                if code != 0:
                    failures.append(f"{name} run {r} exited {code}")
                walls[name].append(seconds)
                cpus[name].append(cpu)
                peaks[name] = max(peaks[name], rss)
                digests[name].add(digest)
        workers = {name: _workers(kind_argv, env) for name, kind_argv in commands.items()}
    kinds = {}
    for name, kind_argv in commands.items():
        wall, cpu = _ms(walls[name]), _ms(cpus[name])
        if len(digests[name]) > 1:
            failures.append(f"{name} printed {len(digests[name])} different outputs")
        kinds[name] = {
            "argv": [a.replace(d, "<inputs>") for a in kind_argv],
            "wall_ms": wall,
            "cpu_ms": cpu,
            "peak_rss_mb": round(peaks[name] / 1024.0, 2),
            "stdout_sha256": sorted(digests[name]),
            "workers": workers[name],
        }
        print(f"{name:24s} median {wall['median']:8.1f} ms  (q1 {wall['q1']:8.1f}, "
              f"q3 {wall['q3']:8.1f})  cpu {cpu['median']:8.1f} ms  "
              f"peak {kinds[name]['peak_rss_mb']:6.2f} MB  workers {workers[name]}")
    doc = {"label": "analyze", "runs": args.runs, "seed": 7,
           "quartiles": "statistics.quantiles(n=4, method='inclusive') of the runs' times",
           "machine": _machine(env), "kinds": kinds, "failures": failures}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    for failure in failures:
        print(f"failure: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
