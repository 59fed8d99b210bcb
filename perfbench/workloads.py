"""Seeded inputs and command plans for the benchmark workloads.

Inputs are made here from the benchmark seed with numpy alone (Haar
states drawn as normalized complex Gaussians) and written in the
documented JSON file formats, never through ``qpc gen`` or
``qpc.random_family``, so a change to ``qpc`` cannot change what it is
measured on.

A workload is a list of command kinds.  One round runs every kind once,
in order; round ``r`` takes pool item ``r % pool`` of each kind.  Every
statistic is taken over whole rounds, so every run has the same mix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

# qpc's REALIZE_TOL and default orthogonality cutoff at the commit that
# defined the benchmark; kept here so the checks do not move with the code.
REALIZE_TOL = 1e-7
ZERO_TOL = 1e-10


@dataclass
class Kind:
    """One command of a round, with a pool of inputs to cycle through."""

    name: str
    argvs: list            # one argv (without the program) per pool item
    inputs: list           # the Input each argv reads, same order
    expect: frozenset      # exit codes that are not failures
    check: str             # name of the output check in checks.py
    realizable: bool = False  # known-realizable prescription: counts in certified_ratio base


@dataclass
class Input:
    path: str
    data: dict = field(default_factory=dict)


@dataclass
class Plan:
    workload: str
    subprocess: bool       # run each command as a fresh ``python -m qpc``
    kinds: list
    warmup: list           # argvs run once, untimed, before the first timed op


# Why each workload exists, in the words recorded in BENCHMARK.json.
WHY = {
    "analyze-dense": "triangle kernel, text renderer and JSON writer do nearly all the work; realizability does none",
    "cli-cold": "interpreter start-up and import dominate; the only workload running verification and many tiny-n calls",
}

# Seconds one round takes at the commit that defined the benchmark, on a
# 2-vCPU Intel Xeon VM.  A run makes round(seconds / ROUND_S) rounds, so it
# measures about --seconds there and always the same commands: the round
# count does not drift with the machine's speed, and a parent and a change
# are measured on identical work.
ROUND_S = {
    "analyze-dense": 7.5,
    "cli-cold": 5.0,
}


def _c(re: float, im: float) -> str:
    return '{"re": %r, "im": %r}' % (re, im)


def _complex_list(values: np.ndarray) -> str:
    v = np.asarray(values, dtype=complex).ravel()
    return ", ".join(map(_c, v.real.tolist(), v.imag.tolist()))


def haar(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-random unit vectors in C^2, one per row."""
    z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return z / np.linalg.norm(z, axis=1)[:, None]


def write_family(path: str, vecs: np.ndarray) -> Input:
    states = ", ".join(
        '{"c0": %s, "c1": %s}' % (_c(a.real, a.imag), _c(b.real, b.imag))
        for a, b in vecs.tolist()
    )
    with open(path, "w", encoding="utf-8") as f:
        f.write('{"version": 1, "states": [%s]}\n' % states)
    return Input(path, {"vectors": vecs})


def write_gram(path: str, g: np.ndarray) -> Input:
    with open(path, "w", encoding="utf-8") as f:
        f.write('{"version": 1, "kind": "gram", "n": %d, "entries": [%s]}\n'
                % (g.shape[0], _complex_list(g)))
    return Input(path, {"gram": g})


def write_phase(path: str, n: int, edges: list, values: np.ndarray) -> Input:
    support = ", ".join("[%d, %d]" % e for e in edges)
    with open(path, "w", encoding="utf-8") as f:
        f.write('{"version": 1, "kind": "phase", "n": %d, "support": [%s], "entries": [%s]}\n'
                % (n, support, _complex_list(values)))
    return Input(path, {"n": n, "edges": edges, "phases": np.asarray(values, dtype=complex)})


def _pairs(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _witnessed(rng, n: int):
    """Phases of a Haar family's overlaps on the complete support."""
    v = haar(rng, n)
    g = v.conj() @ v.T
    edges = _pairs(n)
    return edges, np.array([g[i, j] / abs(g[i, j]) for i, j in edges])


def _family_with_orthogonal_pairs(rng, n: int, pairs: int) -> np.ndarray:
    """Haar family where states 2k+1 are orthogonal to states 2k, k < pairs,
    then shuffled so the pairs sit at random positions."""
    v = haar(rng, n)
    for k in range(pairs):
        a, b = v[2 * k]
        v[2 * k + 1] = (-np.conj(b), np.conj(a))
    return v[rng.permutation(n)]


def _analyze_dense(rng, work: str) -> Plan:
    sizes = (40, 60, 80)
    pool = 3
    fams = {}
    for r in range(pool):
        for s, n in enumerate(sizes):
            # a third of the families carry antipodal (orthogonal) pairs
            pairs = n // 10 if (r + s) % 3 == 0 else 0
            vecs = _family_with_orthogonal_pairs(rng, n, pairs)
            fams[n, r] = write_family(os.path.join(work, f"family-{n}-{r}.json"), vecs)
    kinds = []
    for n in sizes:
        for fmt in ("text", "structured"):
            ins = [fams[n, r] for r in range(pool)]
            kinds.append(Kind(
                f"analyze-{n}-{fmt}",
                [["analyze", i.path, "--format", fmt] for i in ins],
                ins, frozenset({0}), f"analyze_{fmt}",
            ))
    warm = write_family(os.path.join(work, "warm-family.json"), haar(rng, 4))
    return Plan("analyze-dense", False, kinds,
                [["analyze", warm.path, "--format", f] for f in ("text", "structured")])


def _gram_good(rng, n: int) -> np.ndarray:
    v = haar(rng, n)
    return v.conj() @ v.T


def _cli_cold(rng, work: str) -> Plan:
    pool = 3
    fams, grams, phases = [], [], []
    for r in range(pool):
        fams.append(write_family(os.path.join(work, f"family-8-{r}.json"), haar(rng, 8)))
        grams.append(write_gram(os.path.join(work, f"gram-8-{r}.json"), _gram_good(rng, 8)))
        edges, u = _witnessed(rng, 8)
        phases.append(write_phase(os.path.join(work, f"phase-8-{r}.json"), 8, edges, u))
    gen_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, pool)]
    gen_inputs = [Input("", {"n": 8, "seed": s}) for s in gen_seeds]
    verify = Input("")
    kinds = [
        Kind("gen-8", [["gen", "--n", "8", "--seed", str(s)] for s in gen_seeds],
             gen_inputs, frozenset({0}), "gen"),
        Kind("analyze-8", [["analyze", i.path, "--format", "structured"] for i in fams],
             fams, frozenset({0}), "analyze_structured"),
        Kind("check-8", [["check", i.path] for i in grams], grams, frozenset({0}), "check_text"),
        Kind("realize-gram-8", [["realize", i.path, "--format", "structured"] for i in grams],
             grams, frozenset({0}), "realize_gram", realizable=True),
        Kind("realize-phase-8", [["realize", i.path, "--format", "structured"] for i in phases],
             phases, frozenset({0, 3}), "realize_phase", realizable=True),
        Kind("verify-50", [["verify", "--cases", "50", "--format", "structured"]],
             [verify], frozenset({0}), "verify"),
    ]
    return Plan("cli-cold", True, kinds, [["check", grams[0].path]])


BUILDERS = {
    "analyze-dense": _analyze_dense,
    "cli-cold": _cli_cold,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, work: str) -> Plan:
    """Write the inputs of one workload under ``work`` and return its plan."""
    stream = np.random.SeedSequence([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](np.random.default_rng(stream), work)


def rounds(workload: str, seconds: float, trace: bool) -> int:
    """Rounds a run makes; a traced round runs every command twice."""
    return max(1, round(seconds / (ROUND_S[workload] * (2 if trace else 1))))


def plan_doc(plan: Plan) -> dict:
    """The part of a plan the worker needs: commands, not reference data."""
    return {
        "workload": plan.workload,
        "subprocess": plan.subprocess,
        "kinds": [{"name": k.name, "argvs": k.argvs} for k in plan.kinds],
        "warmup": plan.warmup,
    }
