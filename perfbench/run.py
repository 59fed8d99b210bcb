"""qpc benchmark: seeded inputs, closed-loop CLI commands, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: analyze-dense and cli-cold (see
workloads.py for what each runs and why).  The inputs are generated
from --seed, a worker process runs whole rounds of ``qpc`` commands
from one client, as many as take about S seconds at the commit that
defined the benchmark (workloads.ROUND_S), and every output is then checked
independently (checks.py).  The last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every command
twice, plain and under the span recorder (tracing.py), and reports the
per-layer metrics and the recorder's overhead instead.  Spans and run
details are written to perfbench/_out/.
"""

import time

T0 = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = 1          # one BLAS thread: steadier than nproc on a shared host
SETUP_REPEATS = 3         # worker set-ups per run; setup_s takes their median
TIME_LIMIT = 170.0        # the whole run, in seconds
TIME_CAP = 1.2            # no round starts after TIME_CAP * --seconds of measuring
CHECK_RESERVE = 30.0      # of which kept for checking outputs

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "certified_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _spawn_worker(plan_path: str, result_path: str, setup_only: bool) -> tuple:
    """Run the worker to completion; return (spawn time, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    budget = TIME_LIMIT - CHECK_RESERVE - (spawned - T0)
    # its own process group, so a timeout also ends the commands it started
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker still running after {budget:.0f} s; killed")
    if proc.returncode != 0:
        raise RuntimeError("worker failed:\n" + err.decode(errors="replace")[-4000:])
    with open(result_path, encoding="utf-8") as f:
        return spawned, json.load(f)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


class Checker:
    """Runs the check named by each kind on each op's output."""

    def __init__(self, plan, seed: int):
        import numpy as np

        import checks

        self.np, self.checks, self.seed = np, checks, seed
        self.kinds = {k.name: k for k in plan.kinds}
        self.refs = {}
        self.gen_outputs = {}
        self.verdicts = {}

    def _ref(self, inp, make):
        if inp.path not in self.refs:
            self.refs[inp.path] = make()
        return self.refs[inp.path]

    def __call__(self, op) -> tuple:
        """(failure reason or None, certified)"""
        kind = self.kinds[op["kind"]]
        if op["exc"]:
            return f"raised {op['exc']}", False
        if op["rc"] not in kind.expect:
            err = _read(op["err"]).strip()[-300:]
            return f"exit {op['rc']} not in {sorted(kind.expect)}: {err}", False
        text = _read(op["out"])
        # a command that printed the same bytes as an earlier run of it
        # gets the same verdict; checking it again would only cost time
        key = (op["kind"], op["pool"], op["rc"], hashlib.sha256(text.encode()).digest())
        if key not in self.verdicts:
            self.verdicts[key] = self._check(kind, op, text)
        return self.verdicts[key]

    def _check(self, kind, op, text: str) -> tuple:
        inp = kind.inputs[op["pool"]]
        c = self.checks
        rng = self.np.random.default_rng([self.seed, op["id"]])
        try:
            if kind.check.startswith("analyze"):
                ref = self._ref(inp, lambda: c.FamilyRef(inp.data["vectors"]))
                return getattr(c, kind.check)(ref, text, rng), False
            if kind.check == "check_text":
                ref = self._ref(inp, lambda: c.GramRef(inp.data["gram"]))
                return c.check_text(ref, text), False
            if kind.check == "realize_gram":
                ref = self._ref(inp, lambda: c.GramRef(inp.data["gram"]))
                return c.realize_gram(ref, text)
            if kind.check == "realize_phase":
                return c.realize_phase(inp.data, text, op["rc"])
            if kind.check == "gen":
                first = self.gen_outputs.setdefault(inp.data["seed"], text)
                if first != text:
                    return "gen: same seed gave a different family", False
                return c.gen(inp.data, text), False
            return c.verify(text), False
        except (ValueError, KeyError, IndexError, TypeError) as e:
            return f"unreadable output: {e!r}", False


def end_to_end(plan, result, verdicts, setup_s: float) -> tuple:
    ops = result["ops"]
    lat = sorted(op["seconds"] for op in ops)
    # the highest percentile with at least ten samples beyond it, by rank:
    # one measured latency, not a blend of two that sit on either side
    rank = max(0, len(lat) - 11)
    tail, tail_pct = lat[rank], 100.0 * rank / max(len(lat) - 1, 1)
    # each command's median over the run: a burst of interference on the
    # shared host slows a few samples of a kind, not its median
    kind_median = {
        k.name: statistics.median([op["seconds"] for op in ops if op["kind"] == k.name])
        for k in plan.kinds
    }
    realizable_kinds = {k.name for k in plan.kinds if k.realizable}
    realizable = [v for op, v in zip(ops, verdicts) if op["kind"] in realizable_kinds]
    certified = sum(1 for reason, cert in realizable if cert and reason is None)
    failed = sum(1 for reason, _ in verdicts if reason)
    metrics = {
        "setup_s": setup_s,
        # a round of commands, each at its median latency
        "ops_per_s": len(kind_median) / sum(kind_median.values()),
        # the median over kinds of each kind's median: with an even number
        # of kinds the median of all latencies would be the mean of the
        # dearest cheap command and the cheapest dear one, two extremes
        "op_p50_ms": 1e3 * statistics.median(kind_median.values()),
        "op_tail_ms": 1e3 * tail,
        "ok_ratio": 1.0 - failed / len(ops),
        # vacuously 1 on a workload that submits no known-realizable input
        "certified_ratio": certified / len(realizable) if realizable else 1.0,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    details = {
        "op_tail": {"percentile": tail_pct, "samples": len(lat),
                    "beyond": sum(1 for x in lat if x > tail)},
        "certified": {"certified": certified, "base": len(realizable)},
        "rounds": len(result["rounds"]),
        "measured_s": sum(result["rounds"]),
        "wall_ops_per_s": len(ops) / sum(result["rounds"]),
        "per_kind_median_ms": {k: 1e3 * v for k, v in kind_median.items()},
    }
    return metrics, details


def per_layer(result) -> tuple:
    import tracing

    ops = result["ops"]
    traced_wall = sum(op["seconds"] for op in ops if op["traced"])
    untraced_wall = sum(op["seconds"] for op in ops if not op["traced"])
    if "trace" in result:
        trace = result["trace"]
        spans, counts, import_s, missing = (trace["spans"], trace["counts"],
                                            result["import_s"], trace["missing"])
    else:
        spans, counts, imports, missing = [], {}, [], []
        for child in result["children"]:
            offset = len(spans)
            spans += [[s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1, s[4], s[5]]
                      for s in child["spans"]]
            for name, v in child["counts"].items():
                counts[name] = counts.get(name, 0) + v
            imports.append(child["import_s"])
            missing = child["missing"]
        import_s = statistics.median(imports)
    values = tracing.layer_metrics(spans, counts, traced_wall, untraced_wall,
                                   len(result["rounds"]), import_s)
    units = tracing.metric_units()
    shares = sum(v for k, v in values.items() if k.endswith(".wall_share") and k != "outside.wall_share")
    details = {"missing_hooks": missing, "spans": len(spans), "self_share_sum": shares,
               "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall}
    return {k: {"value": values[k], "unit": units[k]} for k in units}, details, spans


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qpc", "__init__.py")):
        print(f"error: no qpc package under {SRC}; run from the root of a qpc checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    sys.path.insert(0, SRC)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(HERE, "_work", f"{tag}-{os.getpid()}")
    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        plan = workloads.build(args.workload, args.seed, work)
        gen_s = time.monotonic() - T0
        plan_path = os.path.join(work, "plan.json")
        doc = workloads.plan_doc(plan)
        doc.update(out_dir=out_dir, trace=bool(args.trace), time_cap=TIME_CAP * args.seconds,
                   rounds=workloads.rounds(args.workload, args.seconds, bool(args.trace)))
        with open(plan_path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        samples = []
        repeats = 1 if args.trace else SETUP_REPEATS
        for i in range(repeats):
            spawned, result = _spawn_worker(plan_path, os.path.join(work, f"result-{i}.json"),
                                            setup_only=i < repeats - 1)
            samples.append(result["ready"] - spawned)
        setup_s = gen_s + statistics.median(samples)

        checker = Checker(plan, args.seed)
        verdicts = [checker(op) for op in result["ops"]]
        failures = [(op["kind"], op["id"], reason)
                    for op, (reason, _) in zip(result["ops"], verdicts) if reason]
        for kind, op_id, reason in failures[:10]:
            print(f"FAILED {kind} op {op_id}: {reason}", file=sys.stderr)

        spans = None
        if args.trace:
            metrics, details, spans = per_layer(result)
        else:
            values, details = end_to_end(plan, result, verdicts, setup_s)
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                       trace=args.trace, why=workloads.WHY[args.workload],
                       setup_samples_s=samples, generation_s=gen_s,
                       failures=failures, environment=_environment())
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = os.path.join(HERE, "_out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, tag + ".json"), "w", encoding="utf-8") as f:
        json.dump({"details": details, "metrics": metrics, "spans": spans,
                   "ops": [{k: op[k] for k in ("kind", "round", "pool", "traced", "rc", "seconds")}
                           for op in result["ops"]]}, f)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(result["ops"]),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
