"""Cold-start ledger: what each small qpc command costs as a fresh process.

Usage: python bench/cold.py [--runs N] [--out PATH]

Runs the six command kinds of perfbench's cli-cold workload (gen, analyze,
check, realize on a gram and on a phase file, verify --cases 50), each as
its own python -m qpc process, on fixed inputs that qpc gen and analyze
write first.  The kinds take turns: run r runs every kind once, so a
drift of the host's speed reaches them all alike.  For each kind it
reports the median and the quartiles of the wall time from the start of
the process to its exit over the N runs, the largest peak resident
memory of any run (the process and the workers it forked), the sha256 of
its standard output, and, from one more run under a probe, whether it
loaded numpy.random or multiprocessing and which qpc modules it loaded.
It writes all of it to BENCH_cold.json at the root of the checkout (or
to --out), and prints one line per kind.  BLAS runs one thread, as in
perfbench.  qpc is imported from the src directory of this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name, argv, the exit codes it may end with; "{d}" is the input directory
KINDS = [
    ("gen-8", ["gen", "--n", "8", "--seed", "11"], {0}),
    ("analyze-8", ["analyze", "{d}/family-8.json", "--format", "structured"], {0}),
    ("check-8", ["check", "{d}/gram-8.json"], {0}),
    ("realize-gram-8", ["realize", "{d}/gram-8.json", "--format", "structured"], {0}),
    ("realize-phase-8", ["realize", "{d}/phase-8.json", "--format", "structured"], {0, 3}),
    ("verify-50", ["verify", "--cases", "50", "--format", "structured"], {0}),
]

# One command as python -m qpc runs it, then its loaded modules on stderr.
PROBE = """
import json, os, sys
from qpc.__main__ import run
code = run()
sys.stdout.flush()
os.write(2, json.dumps([code, sorted(sys.modules)]).encode())
"""


def _environment() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                 else []))
    return env


def _run(cmd: list, env: dict):
    """(exit code, sha256 of stdout, wall seconds, peak RSS in KiB, user +
    system CPU seconds) of one process.  Its stdout is hashed as it comes,
    so a report of hundreds of MB is never held here."""
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env)
    with proc.stdout:
        while chunk := proc.stdout.read(1 << 20):
            digest.update(chunk)
    # wait4 reaps the process and gives its rusage, its reaped workers' included
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, digest.hexdigest(), seconds, usage.ru_maxrss,
            usage.ru_utime + usage.ru_stime)


def _quartiles(values: list) -> tuple:
    """(q1, median, q3) of values, as statistics.quantiles(n=4,
    method='inclusive') gives them; the value itself thrice for one."""
    if len(values) < 2:
        return tuple(values * 3)
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _inputs(d: str, env: dict) -> None:
    """The family, gram and phase files of 8 states that the kinds read."""
    qpc = [sys.executable, "-m", "qpc"]
    family = os.path.join(d, "family-8.json")
    subprocess.run(qpc + ["gen", "--n", "8", "--seed", "7", "--out", family],
                   env=env, check=True)
    subprocess.run(qpc + ["analyze", family, "--emit-gram", os.path.join(d, "gram-8.json"),
                          "--emit-phase", os.path.join(d, "phase-8.json"), "--out", os.devnull],
                   env=env, check=True)


def _loads(argv: list, env: dict) -> dict:
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env, check=False)
    _, modules = json.loads(proc.stderr)
    return {"numpy.random": "numpy.random" in modules,
            "multiprocessing": "multiprocessing" in modules,
            "qpc": [m for m in modules if m.partition(".")[0] == "qpc"]}


def _machine(env: dict) -> dict:
    import numpy

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"usable_cpus": usable, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
            # set, and with no __pycache__, every command compiles its qpc modules again
            "PYTHONDONTWRITEBYTECODE": env.get("PYTHONDONTWRITEBYTECODE", "")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=11, help="timed runs of every kind")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_cold.json"))
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    env = _environment()
    with tempfile.TemporaryDirectory() as d:
        _inputs(d, env)
        commands = {name: [a.format(d=d) for a in kind_argv] for name, kind_argv, _ in KINDS}
        expected = {name: codes for name, _, codes in KINDS}
        walls = {name: [] for name in commands}
        peaks = {name: 0 for name in commands}
        digests = {name: set() for name in commands}
        failures = []
        for r in range(args.runs):
            for name, argv in commands.items():
                code, digest, seconds, rss, _ = _run([sys.executable, "-m", "qpc", *argv], env)
                if code not in expected[name]:
                    failures.append(f"{name} run {r} exited {code}")
                walls[name].append(seconds)
                peaks[name] = max(peaks[name], rss)
                digests[name].add(digest)
        loads = {name: _loads(argv, env) for name, argv in commands.items()}
    kinds = {}
    for name, argv in commands.items():
        q1, median, q3 = _quartiles([1000.0 * s for s in walls[name]])
        if len(digests[name]) > 1:
            failures.append(f"{name} printed {len(digests[name])} different outputs")
        kinds[name] = {
            "argv": [a.replace(d, "<inputs>") for a in argv],
            "wall_ms": {"median": round(median, 1), "q1": round(q1, 1), "q3": round(q3, 1)},
            "peak_rss_mb": round(peaks[name] / 1024.0, 2),
            "stdout_sha256": sorted(digests[name]),
            "loads": loads[name],
        }
        print(f"{name:16s} median {median:7.1f} ms  (q1 {q1:7.1f}, q3 {q3:7.1f})  "
              f"peak {peaks[name] / 1024.0:6.2f} MB  numpy.random {loads[name]['numpy.random']!s:5s}"
              f"  multiprocessing {loads[name]['multiprocessing']!s:5s}  "
              f"qpc modules {len(loads[name]['qpc'])}")
    doc = {"label": "cold", "runs": args.runs,
           "quartiles": "statistics.quantiles(n=4, method='inclusive') of the runs' wall times",
           "machine": _machine(env), "kinds": kinds, "failures": failures}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    for failure in failures:
        print(f"failure: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
