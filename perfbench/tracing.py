"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps the public functions of each ``qpc`` layer from the
outside, by patching the name where the caller looks it up (for example
``qpc.cli.family_from_json``, the name ``cli`` calls, not the one in
``qpc.files``).  Each call becomes a span ``[name, start, end, parent,
op, failed]`` kept in memory; hot scalar functions only bump a counter.
Nothing is patched until ``install`` and everything is restored by
``uninstall``, so untraced commands run the unmodified program.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "files", "comparisons", "invariants", "realizability", "verification", "states")

NAME, START, END, PARENT, OP, FAILED = range(6)


def _bytes_in(rec, args, result, token):
    rec.counts["files.bytes_in"] += len(args[0])


def _bytes_out(rec, args, result, token):
    rec.counts["files.bytes_out"] += len(result)


def _triangles(rec, args, result, token):
    rec.counts["invariants.triangles"] += len(result)


def _solver(rec, args, result, token):
    rec.counts["realizability.restarts"] += 1
    rec.counts["realizability.nfev"] += int(result.nfev)


def _restarts_before(rec, args):
    return rec.counts["realizability.restarts"]


def _certified(rec, args, result, token):
    if result.status == "realizable" and rec.counts["realizability.restarts"] > token:
        rec.counts["realizability.certified_searches"] += 1


def _dense_eig(rec, args, result, token):
    n = args[0].shape[-1]
    rec.counts["realizability.dense_eig_calls"] += 1
    rec.counts["realizability.dense_eig_n3"] += n ** 3


# (module, attribute path, span name, counter only, before hook, after hook)
HOOKS = (
    ("qpc.cli", "main", "cli.main", False, None, None),
    ("qpc.cli", "load_text", "files.load_text", False, None, None),
    ("qpc.cli", "family_from_json", "files.family_from_json", False, None, _bytes_in),
    ("qpc.cli", "matrix_from_json", "files.matrix_from_json", False, None, _bytes_in),
    ("qpc.cli", "save_text", "files.save_text", False, None, None),
    ("qpc.cli", "dump_doc", "files.dump_doc", False, None, _bytes_out),
    ("qpc.cli", "family_to_json", "files.family_to_json", False, None, _bytes_out),
    ("qpc.cli", "matrix_to_json", "files.matrix_to_json", False, None, _bytes_out),
    ("qpc.comparisons", "gram", "comparisons.gram", False, None, None),
    ("qpc.comparisons", "phases", "comparisons.phases", False, None, None),
    ("qpc.comparisons", "orthogonality_graph", "comparisons.orthogonality_graph", False, None, None),
    ("qpc.comparisons", "check_matching", "comparisons.check_matching", False, None, None),
    ("qpc.comparisons", "PhaseMatrix.from_edges", "comparisons.phase_matrix", False, None, None),
    ("qpc.comparisons", "PhaseMatrix.__post_init__", "comparisons.phase_matrix", False, None, None),
    ("qpc.invariants", "all_triangles", "invariants.all_triangles", False, None, _triangles),
    ("qpc.invariants", "triangle_report", "invariants.triangle_report_calls", True, None, None),
    ("qpc.realizability", "check_gram", "realizability.check_gram", False, None, None),
    ("qpc.realizability", "factor_states", "realizability.factor_states", False, None, None),
    ("qpc.realizability", "is_coherent", "realizability.is_coherent", False, None, None),
    ("qpc.realizability", "realize_coherent", "realizability.realize_coherent", False, None, None),
    ("qpc.realizability", "realize_phases", "realizability.realize_phases", False,
     _restarts_before, _certified),
    ("qpc.realizability", "least_squares", "realizability.least_squares", False, None, _solver),
    ("numpy.linalg", "eigh", "realizability.eigh", False, None, _dense_eig),
    ("numpy.linalg", "eigvalsh", "realizability.eigvalsh", False, None, _dense_eig),
    ("qpc.states", "random_family", "states.random_family", False, None, None),
    ("qpc.states", "rays_equal", "states.rays_equal_calls", True, None, None),
    ("qpc.verification", "run_all", "verification.run_all", False, None, None),
)


class Recorder:
    """Spans and counters of the traced commands of one run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self.missing = []
        self._stack = []
        self._saved = []

    def _span(self, name, fn, before, after):
        rec = self
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            token = before(rec, args) if before else None
            span = [name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1, rec.op, False]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                rec.counts[layer + ".failures"] += 1
                raise
            finally:
                span[END] = perf_counter()
                rec._stack.pop()
            if after:
                after(rec, args, result, token)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        failures = name.split(".", 1)[0] + ".failures"

        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts[failures] += 1
                raise

        return wrapper

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every hook; the ``qpc`` modules must already be imported."""
        for module, path, name, count_only, before, after in HOOKS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                self.missing.append(f"{module}.{path}")
                continue
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            wrapped = self._counter(name, fn) if count_only else self._span(name, fn, before, after)
            self._patch(owner, attr, classmethod(wrapped) if is_cm else wrapped)
            if module.startswith("numpy"):
                # also rebind copies a qpc module imported by name
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("qpc") and getattr(mod, attr, None) is fn:
                        self._patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "missing": sorted(set(self.missing))}


def _outermost_time(spans, names) -> float:
    """Time inside spans named in ``names``, nested ones counted once."""
    total = 0.0
    for s in spans:
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            total += s[END] - s[START]
    return total


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


# Per-layer metrics: name -> (unit, span names whose outermost time it is).
TIMED = {
    "files.load_s": ("files.load_text", "files.family_from_json", "files.matrix_from_json"),
    "files.dump_s": ("files.save_text", "files.dump_doc", "files.family_to_json",
                     "files.matrix_to_json"),
    "comparisons.gram_s": ("comparisons.gram",),
    "comparisons.phases_s": ("comparisons.phases",),
    "comparisons.orthogonality_graph_s": ("comparisons.orthogonality_graph",),
    "comparisons.check_matching_s": ("comparisons.check_matching",),
    "comparisons.phase_matrix_s": ("comparisons.phase_matrix",),
    "invariants.all_triangles_s": ("invariants.all_triangles",),
    "realizability.check_gram_s": ("realizability.check_gram",),
    "realizability.factor_states_s": ("realizability.factor_states",),
    "realizability.is_coherent_s": ("realizability.is_coherent",),
    "realizability.realize_coherent_s": ("realizability.realize_coherent",),
    "realizability.search_s": ("realizability.least_squares",),
    "verification.run_all_s": ("verification.run_all",),
}
COUNTED = (
    "files.bytes_in", "files.bytes_out", "invariants.triangle_report_calls",
    "invariants.triangles", "realizability.dense_eig_calls", "realizability.dense_eig_n3",
    "realizability.restarts", "realizability.nfev", "states.rays_equal_calls",
)


def metric_units() -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {name: "s" for name in TIMED}
    units.update({name: "count" for name in COUNTED})
    units["files.bytes_in"] = units["files.bytes_out"] = "bytes"
    units.update({
        "invariants.triangles_per_s": "1/s",
        "realizability.coherent_fallbacks": "count",
        "realizability.certified_per_restart": "ratio",
        "cli.self_s": "s",
        "cli.import_s": "s",
    })
    for layer in LAYERS:
        units[f"{layer}.failures"] = "count"
        units[f"{layer}.wall_share"] = "ratio"
    units["outside.wall_share"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


def layer_metrics(spans, counts, traced_wall: float, untraced_wall: float,
                  rounds: int, import_s: float) -> dict:
    """Per-layer values per round of the traced commands.

    ``traced_wall`` and ``untraced_wall`` are the summed latencies of the
    same commands run with and without the recorder.
    """
    values = {name: _outermost_time(spans, set(names)) / rounds for name, names in TIMED.items()}
    for name in COUNTED:
        values[name] = counts.get(name, 0) / rounds
    tri_s = values["invariants.all_triangles_s"]
    values["invariants.triangles_per_s"] = values["invariants.triangles"] / tri_s if tri_s else 0.0
    values["realizability.coherent_fallbacks"] = sum(
        1 for s in spans if s[NAME] == "realizability.realize_coherent" and s[FAILED]) / rounds
    restarts = counts.get("realizability.restarts", 0)
    values["realizability.certified_per_restart"] = (
        counts.get("realizability.certified_searches", 0) / restarts if restarts else 0.0)
    own = self_times(spans)
    per_layer = Counter()
    for s, t in zip(spans, own):
        per_layer[s[NAME].split(".", 1)[0]] += t
    values["cli.self_s"] = sum(t for s, t in zip(spans, own) if s[NAME] == "cli.main") / rounds
    values["cli.import_s"] = import_s
    for layer in LAYERS:
        values[f"{layer}.failures"] = counts.get(f"{layer}.failures", 0) / rounds
        values[f"{layer}.wall_share"] = per_layer[layer] / traced_wall if traced_wall else 0.0
    values["outside.wall_share"] = 1.0 - sum(values[f"{l}.wall_share"] for l in LAYERS)
    values["trace.overhead"] = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    return values
