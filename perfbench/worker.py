"""Run one workload's commands closed-loop from a single client.

Usage: python3 perfbench/worker.py PLAN RESULT [--setup-only]

PLAN is the JSON written by run.py.  The worker imports ``qpc`` (for
in-process workloads), runs the warm-up commands, notes the moment it
is ready, and then runs the planned number of whole rounds (fewer only
past the time cap).  Each command's standard output and error go
to files for run.py to check after this process has exited, so the
checks add neither time nor memory to what is measured here.

With tracing on, every command runs twice, unpatched and under the
span recorder, in alternating order, and a round repeats the inputs of
round 0 so that counts per round are exact.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


class InProcess:
    """Commands as calls to ``qpc.cli.main`` in this interpreter."""

    def __init__(self):
        t0 = time.perf_counter()
        import qpc  # noqa: F401
        import qpc.cli
        self.import_s = time.perf_counter() - t0
        self.cli = qpc.cli
        self.recorder = None

    def run(self, argv, out_path, err_path, traced):
        rec = self.recorder if traced else None
        with open(out_path, "w", encoding="utf-8") as out, \
                open(err_path, "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if rec:
                rec.install()
            try:
                t0 = time.perf_counter()
                try:
                    rc, exc = self.cli.main(list(argv)), None
                except Exception as e:  # a raise escaping main is an op failure
                    rc, exc = None, repr(e)
                seconds = time.perf_counter() - t0
            finally:
                if rec:
                    rec.uninstall()
        return rc, exc, seconds

    def finish(self):
        return {"import_s": self.import_s,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


class Subprocess:
    """Commands as fresh ``python -m qpc`` interpreters, one at a time."""

    def __init__(self, spans_dir):
        self.spans_dir = spans_dir
        self.children = []
        self.recorder = None

    def run(self, argv, out_path, err_path, traced):
        if traced:
            spans = os.path.join(self.spans_dir, os.path.basename(out_path) + ".spans.json")
            cmd = [sys.executable, os.path.join(HERE, "child.py"), spans, *argv]
        else:
            spans = None
            cmd = [sys.executable, "-m", "qpc", *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            rc = subprocess.run(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL).returncode
            seconds = time.perf_counter() - t0
        if spans:
            with open(spans, encoding="utf-8") as f:
                self.children.append(json.load(f))
        return rc, None, seconds

    def finish(self):
        return {"peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}


def main(argv) -> int:
    plan_path, result_path = argv[0], argv[1]
    setup_only = "--setup-only" in argv[2:]
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    out_dir = plan["out_dir"]
    runner = Subprocess(out_dir) if plan["subprocess"] else InProcess()
    for w, args in enumerate(plan["warmup"]):
        runner.run(args, os.path.join(out_dir, f"warm-{w}.out"),
                   os.path.join(out_dir, f"warm-{w}.err"), False)
    ready = time.monotonic()
    if setup_only:
        with open(result_path, "w", encoding="utf-8") as f:
            json.dump({"ready": ready}, f)
        return 0

    traced = plan["trace"]
    if traced and not plan["subprocess"]:
        sys.path.insert(0, HERE)
        from tracing import Recorder
        runner.recorder = Recorder()
    kinds = plan["kinds"]
    ops, rounds = [], []
    start = time.perf_counter()
    for r in range(plan["rounds"]):
        t_round = time.perf_counter()
        for k, kind in enumerate(kinds):
            pool = 0 if traced else r % len(kind["argvs"])
            args = kind["argvs"][pool]
            # the second run of a command finds warm caches, so the traced
            # and plain runs take turns going first
            sides = ((False, True) if (r + k) % 2 == 0 else (True, False)) if traced else (False,)
            for side in sides:
                op = len(ops)
                out = os.path.join(out_dir, f"op-{op}.out")
                err = os.path.join(out_dir, f"op-{op}.err")
                if runner.recorder:
                    runner.recorder.op = op
                # garbage left by the previous command is not this one's cost
                gc.collect()
                rc, exc, seconds = runner.run(args, out, err, side)
                ops.append({"id": op, "kind": kind["name"], "round": r, "pool": pool,
                            "traced": side, "rc": rc, "exc": exc, "seconds": seconds,
                            "out": out, "err": err})
        rounds.append(time.perf_counter() - t_round)
        # on a slow host, or with a slow change, a run must still end in the
        # time the whole benchmark is allowed
        if time.perf_counter() - start > plan["time_cap"]:
            break

    result = {"ready": ready, "ops": ops, "rounds": rounds, **runner.finish()}
    if runner.recorder:
        result["trace"] = runner.recorder.dump()
    elif traced:
        result["children"] = runner.children
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
