"""Versioned file formats for state families and comparison matrices.

Both formats are JSON documents with explicit {"re": ..., "im": ...}
complex encoding and a version field.  Serialization uses Python's
shortest round-trip float representation, so save/load is numerically
lossless and canonical output is byte-stable.  Indices in matrix files
are 0-based.

Family files hold one record per state, either as amplitudes

    {"c0": {"re": r, "im": i}, "c1": {"re": r, "im": i}}

or as a Bloch vector {"bloch": [nx, ny, nz]}.  Amplitude records must be
normalized: deviations up to 1e-9 are accepted silently, up to 1e-6 the
record is renormalized with a warning, and anything worse is rejected.
The same windows apply to the length of a Bloch record.

Matrix files carry a kind tag.  Kind "gram" stores the full row-major
complex matrix, "probability" the full row-major real matrix, and
"phase" a support edge list with one unit complex entry per edge.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .comparisons import PhaseMatrix, ProbabilityMatrix
from .states import TOL_NORM, QubitState, StateFamily, from_bloch

FAMILY_VERSION = 1
MATRIX_VERSION = 1

ACCEPT_TOL = 1e-9     # norm deviation accepted silently
RENORM_TOL = 1e-6     # norm deviation renormalized with a warning

MATRIX_KINDS = ("gram", "probability", "phase")


class FileFormatError(ValueError):
    """A document that cannot be parsed into the requested type."""


def _c(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _number(x, where: str) -> float:
    # JSON admits NaN and Infinity (and 1e999 parses as infinity), while a
    # guard written "dev > tol" lets NaN through; refuse them where they enter.
    try:
        v = float(x)
    except TypeError:
        raise FileFormatError(f"{where}: expected a number, got {x!r}") from None
    if not math.isfinite(v):
        raise FileFormatError(f"{where}: non-finite number {v!r}")
    return v


def _parse_c(obj, where: str) -> complex:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise FileFormatError(f"{where}: expected a {{re, im}} pair")
    return complex(_number(obj["re"], where), _number(obj["im"], where))


def dump_doc(doc: dict) -> str:
    """Canonical rendering of a JSON document; stable byte for byte."""
    return json.dumps(doc, indent=2) + "\n"


def family_doc(family: StateFamily) -> dict:
    doc = {
        "version": FAMILY_VERSION,
        "states": [
            {"c0": _c(s.c0), "c1": _c(s.c1)} for s in family.states
        ],
    }
    if family.labels is not None:
        doc["labels"] = list(family.labels)
    return doc


def family_to_json(family: StateFamily) -> str:
    return dump_doc(family_doc(family))


def family_from_json(text: str):
    """Parse a family document.

    Returns (family, warnings); warnings list the records that needed
    renormalization.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be an object")
    if doc.get("version") != FAMILY_VERSION:
        raise FileFormatError(f"unsupported family file version {doc.get('version')!r}")
    records = doc.get("states")
    if not isinstance(records, list) or not records:
        raise FileFormatError("states must be a nonempty list")
    warnings = []
    parsed = []
    for idx, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise FileFormatError(f"state {idx}: expected an object")
        has_amp = "c0" in rec or "c1" in rec
        has_bloch = "bloch" in rec
        if has_amp == has_bloch:
            raise FileFormatError(
                f"state {idx}: exactly one of amplitudes or bloch is required"
            )
        if has_amp:
            if "c0" not in rec or "c1" not in rec:
                raise FileFormatError(f"state {idx}: both c0 and c1 are required")
            c0 = _parse_c(rec["c0"], f"state {idx} c0")
            c1 = _parse_c(rec["c1"], f"state {idx} c1")
            norm = math.hypot(abs(c0), abs(c1))
            dev = abs(norm - 1.0)
            if dev > RENORM_TOL:
                raise FileFormatError(
                    f"state {idx}: not normalized, |amplitudes| = {norm!r}"
                )
            if dev > ACCEPT_TOL:
                warnings.append(
                    f"state {idx}: renormalized, |amplitudes| deviated by {dev:.3e}"
                )
            # mirror the constructor's own acceptance predicate so that
            # records already valid as states are kept bit for bit
            if abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0) > TOL_NORM:
                c0, c1 = c0 / norm, c1 / norm
            parsed.append(QubitState(c0, c1))
        else:
            vec = rec["bloch"]
            if not isinstance(vec, list) or len(vec) != 3:
                raise FileFormatError(f"state {idx}: bloch must be a 3-vector")
            arr = np.array([_number(x, f"state {idx} bloch") for x in vec])
            norm = float(np.linalg.norm(arr))
            dev = abs(norm - 1.0)
            if dev > RENORM_TOL:
                raise FileFormatError(f"state {idx}: not on sphere, |n| = {norm!r}")
            if dev > ACCEPT_TOL:
                warnings.append(
                    f"state {idx}: renormalized, |n| deviated by {dev:.3e}"
                )
            parsed.append(from_bloch(arr / norm))
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise FileFormatError("labels must be a list of strings")
        labels = tuple(labels)
    try:
        family = StateFamily(tuple(parsed), labels)
    except ValueError as e:
        raise FileFormatError(str(e)) from e
    return family, warnings


def matrix_doc(kind: str, data) -> dict:
    """Document for one comparison matrix.

    kind "gram" and "probability" take a square ndarray; kind "phase"
    takes a PhaseMatrix.
    """
    if kind == "gram":
        a = np.asarray(data, dtype=complex)
        entries = [_c(z) for z in a.ravel()]
        doc = {"version": MATRIX_VERSION, "kind": kind, "n": a.shape[0], "entries": entries}
    elif kind == "probability":
        a = np.asarray(data, dtype=float)
        doc = {
            "version": MATRIX_VERSION,
            "kind": kind,
            "n": a.shape[0],
            "entries": [float(x) for x in a.ravel()],
        }
    elif kind == "phase":
        if not isinstance(data, PhaseMatrix):
            raise ValueError("phase kind requires a PhaseMatrix")
        edges = sorted(data.support.edges)
        doc = {
            "version": MATRIX_VERSION,
            "kind": kind,
            "n": data.n,
            "support": [[i, j] for i, j in edges],
            "entries": [_c(data.entries[i, j]) for i, j in edges],
        }
    else:
        raise ValueError(f"unknown matrix kind {kind!r}")
    return doc


def matrix_to_json(kind: str, data) -> str:
    return dump_doc(matrix_doc(kind, data))


def matrix_from_json(text: str):
    """Parse a matrix document.

    Returns (kind, payload): a raw complex ndarray for "gram" (judging
    it is the caller's job), a validated ndarray for "probability", and
    a validated PhaseMatrix for "phase".
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be an object")
    if doc.get("version") != MATRIX_VERSION:
        raise FileFormatError(f"unsupported matrix file version {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind not in MATRIX_KINDS:
        raise FileFormatError(f"unknown matrix kind {kind!r}")
    n = doc.get("n")
    if not isinstance(n, int) or n < 1:
        raise FileFormatError(f"n must be a positive integer, got {n!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise FileFormatError("entries must be a list")
    if kind == "gram":
        if len(entries) != n * n:
            raise FileFormatError(f"expected {n * n} entries, got {len(entries)}")
        a = np.array(
            [_parse_c(e, f"entry {i}") for i, e in enumerate(entries)], dtype=complex
        ).reshape(n, n)
        return kind, a
    if kind == "probability":
        if len(entries) != n * n:
            raise FileFormatError(f"expected {n * n} entries, got {len(entries)}")
        try:
            p = ProbabilityMatrix(
                np.array([_number(x, f"entry {i}") for i, x in enumerate(entries)]).reshape(n, n)
            )
        except ValueError as e:
            raise FileFormatError(f"invalid probability matrix: {e}") from e
        return kind, p.entries
    support = doc.get("support")
    if not isinstance(support, list):
        raise FileFormatError("phase kind requires a support edge list")
    if len(entries) != len(support):
        raise FileFormatError(
            f"{len(support)} support edges but {len(entries)} entries"
        )
    values = {}
    pairs = set()
    for pos, (edge, entry) in enumerate(zip(support, entries)):
        if not isinstance(edge, list) or len(edge) != 2:
            raise FileFormatError(f"support edge {pos} must be a pair")
        i, j = edge
        if not isinstance(i, int) or not isinstance(j, int):
            raise FileFormatError(f"support edge {pos} must hold integers")
        pair = (min(i, j), max(i, j))
        if pair in pairs:
            raise FileFormatError(f"support edge {pos} repeats pair ({i}, {j})")
        pairs.add(pair)
        values[(i, j)] = _parse_c(entry, f"entry {pos}")
    try:
        u = PhaseMatrix.from_edges(n, values)
    except (ValueError, IndexError) as e:
        raise FileFormatError(f"invalid phase matrix: {e}") from e
    return kind, u


def save_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()
