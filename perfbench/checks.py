"""Checks of each command's output, made after the timed run.

Every check recomputes what it compares against from the benchmark's
own inputs with plain numpy, or with ``qpc.oracles`` (the package's
deliberately naive recomputation module), never with the code paths
being measured.  A check returns None when the output is right and a
short reason otherwise.
"""

from __future__ import annotations

import json
import math
import re
from itertools import combinations

import numpy as np

from workloads import REALIZE_TOL, ZERO_TOL

_NUM = r"(?:-?(?:nan|inf|[0-9.]+(?:e[-+]?[0-9]+)?))"
_COMPLEX = re.compile(rf"^({_NUM})([+-])({_NUM})i$")
_TRIANGLE = re.compile(
    r"^  \((\d+), (\d+), (\d+)\): bargmann (\S+)  defect (\S+)  "
    r"pancharatnam (\S+)  solid_angle (\S+)  amplitude (\S+)$"
)
SAMPLE = 48      # rows, pairs and triangles checked per output
TOL = 1e-12      # printed values carry 15 significant digits or more


def _parse_c(text: str) -> complex:
    m = _COMPLEX.match(text)
    if not m:
        raise ValueError(f"not a complex number: {text!r}")
    im = float(m.group(3))
    return complex(float(m.group(1)), im if m.group(2) == "+" else -im)


def _c(obj) -> complex:
    return complex(obj["re"], obj["im"])


class FamilyRef:
    """Everything an analyze report should say about one family."""

    def __init__(self, vecs: np.ndarray):
        from qpc.oracles import oracle_bargmann_direct
        from qpc.states import QubitState, StateFamily

        self.n = n = len(vecs)
        self.gram = vecs.conj() @ vecs.T
        self.mod = np.abs(self.gram)
        self.support = self.mod > ZERO_TOL
        np.fill_diagonal(self.support, False)
        pairs = np.array(list(combinations(range(n), 2)))
        self.ortho = [tuple(p) for p in pairs[~self.support[pairs[:, 0], pairs[:, 1]]].tolist()]
        self.n_support_pairs = len(pairs) - len(self.ortho)
        triples = np.array(list(combinations(range(n), 3)))
        i, j, k = triples.T
        keep = self.support[i, j] & self.support[j, k] & self.support[k, i]
        self.triples = triples[keep]
        a, b = vecs[:, 0], vecs[:, 1]
        z = a.conj() * b
        self.bloch = np.column_stack([2 * z.real, 2 * z.imag, np.abs(a) ** 2 - np.abs(b) ** 2])
        self.family = StateFamily(tuple(QubitState(x, y) for x, y in vecs.tolist()))
        self._oracle = oracle_bargmann_direct
        degrees = np.bincount(np.array(self.ortho, dtype=int).ravel(), minlength=n)
        self.matching = bool(degrees.max(initial=0) <= 1)

    def triangle_error(self, t: int, triple, bargmann, defect, panch, omega, amp):
        i, j, k = (int(x) for x in self.triples[t])
        if tuple(int(x) for x in triple) != (i, j, k):
            return f"triangle {t} is {tuple(triple)}, expected {(i, j, k)}"
        b = self._oracle(self.family, i, j, k)
        ni, nj, nk = self.bloch[[i, j, k]]
        ref_omega = -2.0 * math.atan2(float(ni @ np.cross(nj, nk)),
                                      1.0 + float(ni @ nj + nj @ nk + nk @ ni))
        d_omega = (omega - ref_omega + 2 * math.pi) % (4 * math.pi) - 2 * math.pi
        checks = (
            ("bargmann", abs(bargmann - b), TOL),
            ("defect", abs(defect - b / abs(b)), TOL),
            ("pancharatnam", abs(complex(math.cos(panch), math.sin(panch)) - b / abs(b)), TOL),
            ("solid_angle", abs(d_omega), 1e-9),
            ("amplitude", abs(amp - abs(b)), TOL),
        )
        bad = [name for name, err, tol in checks if not err <= tol]
        if bad or not -math.pi < panch <= math.pi:
            return f"triangle {(i, j, k)} wrong in {bad or ['pancharatnam range']}"
        return None


def _sample(rng, count: int, size: int):
    return sorted(rng.choice(count, size=min(size, count), replace=False).tolist()) if count else []


def analyze_text(ref: FamilyRef, text: str, rng) -> str | None:
    lines = text.split("\n")
    n = ref.n
    if lines[0] != f"family of {n} state(s)" or lines[1] != "gram matrix:":
        return "analyze text header"
    g_rows = lines[2:2 + n]
    if lines[2 + n] != "probability matrix:":
        return "analyze text: probability section missing"
    p_rows = lines[3 + n:3 + 2 * n]
    for r in _sample(rng, n, 3):
        g = np.array([_parse_c(x) for x in g_rows[r].split()])
        p = np.array([float(x) for x in p_rows[r].split()])
        if not (len(g) == n and np.max(np.abs(g - ref.gram[r])) <= TOL
                and len(p) == n and np.max(np.abs(p - ref.mod[r] ** 2)) <= TOL):
            return f"analyze text: row {r} of the gram or probability matrix"
    at = 3 + 2 * n
    if lines[at] != "phases on support pairs:":
        return "analyze text: phase section missing"
    phase_lines = lines[at + 1:at + 1 + ref.n_support_pairs]
    at += 1 + ref.n_support_pairs
    for line in (phase_lines[s] for s in _sample(rng, len(phase_lines), SAMPLE)):
        head, rest = line.strip().split(": ", 1)
        i, j = (int(x) for x in head.strip("()").split(", "))
        u, _, angle = rest.split()
        ref_u = ref.gram[i, j] / ref.mod[i, j]
        d_angle = (float(angle) - np.angle(ref_u) + math.pi) % (2 * math.pi) - math.pi
        if not (ref.support[i, j] and abs(_parse_c(u) - ref_u) <= TOL and abs(d_angle) <= 1e-9):
            return f"analyze text: phase of pair ({i}, {j})"
    ortho = ", ".join(f"({i}, {j})" for i, j in ref.ortho) or "none"
    if lines[at] != f"orthogonal pairs: {ortho}":
        return "analyze text: orthogonal pairs"
    if lines[at + 1] != f"orthogonality graph is a matching: {'yes' if ref.matching else 'no'}":
        return "analyze text: matching verdict"
    if lines[at + 2] != "triangles:":
        return "analyze text: triangle section missing"
    tri = lines[at + 3:]
    count = 0
    while count < len(tri) and tri[count].startswith("  ("):
        count += 1
    if count != len(ref.triples):
        return f"analyze text: {count} triangles, expected {len(ref.triples)}"
    for t in _sample(rng, count, SAMPLE):
        m = _TRIANGLE.match(tri[t])
        if not m:
            return f"analyze text: unparsable triangle line {t}"
        g = m.groups()
        err = ref.triangle_error(t, g[:3], _parse_c(g[3]), _parse_c(g[4]),
                                 float(g[5]), float(g[6]), float(g[7]))
        if err:
            return "analyze text: " + err
    return None


def analyze_structured(ref: FamilyRef, text: str, rng) -> str | None:
    doc = json.loads(text)
    n = ref.n
    if doc["n"] != n or doc["gram"]["n"] != n:
        return "analyze structured: n"
    entries = doc["gram"]["entries"]
    probs = doc["probability"]["entries"]
    for e in _sample(rng, n * n, SAMPLE):
        r, c = divmod(e, n)
        if not (abs(_c(entries[e]) - ref.gram[r, c]) <= TOL
                and abs(probs[e] - ref.mod[r, c] ** 2) <= TOL):
            return f"analyze structured: entry ({r}, {c})"
    if len(doc["phase"]["support"]) != ref.n_support_pairs:
        return "analyze structured: phase support size"
    if [tuple(e) for e in doc["orthogonality"]["edges"]] != ref.ortho:
        return "analyze structured: orthogonal pairs"
    if doc["orthogonality"]["matching"] is not ref.matching:
        return "analyze structured: matching verdict"
    tris = doc["triangles"]
    if len(tris) != len(ref.triples):
        return f"analyze structured: {len(tris)} triangles, expected {len(ref.triples)}"
    for t in _sample(rng, len(tris), SAMPLE):
        d = tris[t]
        err = ref.triangle_error(t, d["triple"], _c(d["bargmann"]), _c(d["defect"]),
                                 d["pancharatnam"], d["solid_angle"], d["amplitude_factor"])
        if err:
            return "analyze structured: " + err
    return None


class GramRef:
    """Spectrum of one rank-2 gram input."""

    def __init__(self, g: np.ndarray):
        self.g = g
        self.eigs = np.linalg.eigvalsh((g + g.conj().T) / 2.0)[::-1]


def check_text(ref: GramRef, text: str) -> str | None:
    rows = dict(line.split(": ", 1) for line in text.strip().split("\n"))
    eigs = np.array([float(x) for x in rows["eigenvalues"].split()])
    if len(eigs) != len(ref.eigs) or np.max(np.abs(eigs[:2] - ref.eigs[:2])) > 1e-9 * ref.eigs[0]:
        return "check: eigenvalues differ from numpy's"
    want = {"hermitian": "ok", "unit diagonal": "ok", "positive semidefinite": "ok",
            "rank at most 2": "ok", "rank estimate": "2",
            "verdict": "realizable by qubit states"}
    bad = [k for k, v in want.items() if rows.get(k) != v]
    return f"check: rank-2 input judged wrong on {bad}" if bad else None


def _certificate(doc) -> np.ndarray:
    states = doc["certificate"]["states"]
    return np.array([[_c(s["c0"]), _c(s["c1"])] for s in states])


def realize_gram(ref: GramRef, text: str) -> tuple:
    """(reason or None, certified)"""
    doc = json.loads(text)
    if doc["status"] != "realizable":
        return "realize: rank-2 input not realized", False
    c = _certificate(doc)
    if c.shape != (len(ref.g), 2) or np.max(np.abs(np.sum(np.abs(c) ** 2, axis=1) - 1.0)) > 1e-9:
        return "realize: certificate states not normalized", False
    err = float(np.max(np.abs(c.conj() @ c.T - ref.g)))
    if err > 1e-9:
        return f"realize: certificate reproduces the gram matrix to {err:.2e} only", False
    return None, True


_STATUS_EXIT = {"realizable": 0, "not_realizable": 1, "search_failed": 3}


def realize_phase(data: dict, text: str, rc: int) -> tuple:
    """(reason or None, certified)"""
    doc = json.loads(text)
    if _STATUS_EXIT.get(doc["status"]) != rc:
        return f"realize: status {doc['status']} with exit {rc}", False
    if doc["status"] != "realizable":
        return None, False
    c = _certificate(doc)
    if c.shape != (data["n"], 2):
        return "realize: certificate has the wrong size", False
    edges = np.array(data["edges"], dtype=int).reshape(-1, 2)
    g = np.sum(c[edges[:, 0]].conj() * c[edges[:, 1]], axis=1)
    m = np.abs(g)
    dev = np.where(m > 0, np.abs(g / np.where(m > 0, m, 1.0) - data["phases"]), 2.0)
    worst = float(dev.max(initial=0.0))
    if worst > REALIZE_TOL * (1 + 1e-6):
        return f"realize: certificate misses a phase by {worst:.2e}", False
    return None, True


def gen(data: dict, text: str) -> str | None:
    doc = json.loads(text)
    states = doc["states"]
    if doc["version"] != 1 or len(states) != data["n"]:
        return "gen: wrong family size"
    norms = [abs(_c(s["c0"])) ** 2 + abs(_c(s["c1"])) ** 2 for s in states]
    if max(abs(x - 1.0) for x in norms) > 1e-12:
        return "gen: states not normalized"
    return None


def verify(text: str) -> str | None:
    doc = json.loads(text)
    if doc["all_passed"] is not True or not doc["reports"] \
            or not all(r["passed"] for r in doc["reports"]):
        return "verify: a self-check failed"
    return None
