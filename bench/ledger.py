"""The one runner of the ledgers under bench/: kinds of a command, each as
a fresh process, measured in turns.

A bench script names its kinds (a name, the command's arguments and the
exit codes it may end with) on inputs it writes to a temporary directory,
and main does the rest.  Each kind runs as its own python -m qpc process;
run r runs every kind once, in order, so a drift of the host's speed
reaches them all alike.  For each kind the ledger holds the median and
the quartiles over the runs of the wall time from the start of the
process to its exit and of the CPU time of the process tree (user +
system, the workers it reaped included), the largest peak resident
memory of any run (the process and the workers it forked), and the
sha256 of its standard output, hashed as it comes through a pipe and
never stored.  One more run under PROBE gives which modules the command
loaded and how many workers it forked.  A run that exits with a code its
kind does not allow, and a kind whose runs print different bytes, are
failures: main writes the ledger, names them on stderr and returns 1.
BLAS runs one thread, as in perfbench, and qpc is imported from the src
directory of this checkout.
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

QPC = ("-m", "qpc")

# One command as the interpreter runs it (-m qpc through qpc.__main__.run,
# -c CODE as its code), counting os.fork calls; then the sorted names of
# its modules and that count, as the last line of stderr.  It imports
# nothing before the command that the command would not import itself.
PROBE = """
import os, sys
forks, fork = [], os.fork
os.fork = lambda: forks.append(0) or fork()
flag, main = sys.argv.pop(1), sys.argv.pop(1)
try:
    if flag == "-m":
        sys.exit(__import__(main + ".__main__", fromlist=["run"]).run())
    exec(main, {"__name__": "__main__"})
finally:
    sys.stdout.flush()
    modules = sorted(sys.modules)
    import json
    os.write(2, ("\\n" + json.dumps([modules, len(forks)])).encode())
"""


def environment() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                 else []))
    return env


def run(cmd: list, env: dict):
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


def probe(cmd: list, env: dict):
    """(exit code, loads, workers) of cmd, [python, flag, main, *args], run
    once under PROBE."""
    proc = subprocess.run([cmd[0], "-c", PROBE, *cmd[1:]], stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
                          check=False)
    modules, forks = json.loads(proc.stderr.rpartition(b"\n")[2])
    return proc.returncode, {
        "numpy.random": "numpy.random" in modules,
        "multiprocessing": "multiprocessing" in modules,
        "qpc": [m for m in modules if m.partition(".")[0] == "qpc"]}, forks


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of values, as statistics.quantiles(n=4,
    method='inclusive') gives them; the value itself thrice for one."""
    if len(values) < 2:
        return tuple(values * 3)
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _ms(seconds: list) -> dict:
    q1, median, q3 = quartiles([1000.0 * s for s in seconds])
    return {"median": round(median, 1), "q1": round(q1, 1), "q3": round(q3, 1)}


def machine(env: dict) -> dict:
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


def parser(doc: str, runs: int, out: str) -> argparse.ArgumentParser:
    """A bench script's command line: --runs (default runs) and --out (by
    default the file out at the root of the checkout)."""
    p = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=runs, help="timed runs of every kind")
    p.add_argument("--out", default=os.path.join(ROOT, out))
    return p


def main(label: str, cli: argparse.ArgumentParser, kinds, argv=None, program=QPC,
         **header) -> int:
    """Parse argv with cli, measure what kinds(d, env, args) names, and
    write the ledger to --out: the label, the runs, header, the machine,
    one record per kind and the failures.  kinds writes its inputs to the
    directory d and returns {name: (args, allowed exit codes)}; a kind
    runs as python, program, then its args, where program is -m MODULE
    (MODULE.__main__ has run(), as qpc's has) or -c CODE.  Prints one
    line per kind; returns 1 on a failure, else 0."""
    args = cli.parse_args(argv)
    if args.runs < 1:
        cli.error("--runs must be at least 1")
    env = environment()
    with tempfile.TemporaryDirectory() as d:
        commands = kinds(d, env, args)
        cmds = {name: [sys.executable, *program, *a] for name, (a, _) in commands.items()}
        walls = {name: [] for name in commands}
        cpus = {name: [] for name in commands}
        peaks = {name: 0 for name in commands}
        digests = {name: set() for name in commands}
        failures = []
        for r in range(args.runs):
            for name, cmd in cmds.items():
                code, digest, seconds, rss, cpu = run(cmd, env)
                if code not in commands[name][1]:
                    failures.append(f"{name} run {r} exited {code}")
                walls[name].append(seconds)
                cpus[name].append(cpu)
                peaks[name] = max(peaks[name], rss)
                digests[name].add(digest)
        probes = {name: probe(cmd, env) for name, cmd in cmds.items()}
    kinds_doc = {}
    for name, (kind_argv, codes) in commands.items():
        code, loads, workers = probes[name]
        if code not in codes:
            failures.append(f"{name} probe exited {code}")
        if len(digests[name]) > 1:
            failures.append(f"{name} printed {len(digests[name])} different outputs")
        wall, cpu, mb = _ms(walls[name]), _ms(cpus[name]), round(peaks[name] / 1024.0, 2)
        kinds_doc[name] = {
            "argv": [a.replace(d, "<inputs>") for a in kind_argv],
            "wall_ms": wall,
            "cpu_ms": cpu,
            "peak_rss_mb": mb,
            "stdout_sha256": sorted(digests[name]),
            "loads": loads,
            "workers": workers,
        }
        print(f"{name:24s} median {wall['median']:8.1f} ms  (q1 {wall['q1']:8.1f}, "
              f"q3 {wall['q3']:8.1f})  cpu {cpu['median']:8.1f} ms  "
              f"peak {mb:6.2f} MB  workers {workers}  "
              f"numpy.random {loads['numpy.random']!s:5s}  "
              f"multiprocessing {loads['multiprocessing']!s:5s}  qpc modules {len(loads['qpc'])}")
    doc = {"label": label, "runs": args.runs, **header,
           "quartiles": "statistics.quantiles(n=4, method='inclusive') of the runs' times",
           "machine": machine(env), "kinds": kinds_doc, "failures": failures}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    for failure in failures:
        print(f"failure: {failure}", file=sys.stderr)
    return 1 if failures else 0
