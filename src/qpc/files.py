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

Every number is a finite JSON number, never a string or a boolean, and
version, n and support indices are JSON integers.

Matrix files carry a kind tag.  Kind "gram" stores the full row-major
complex matrix, "probability" the full row-major real matrix, and
"phase" a support edge list with one unit complex entry per edge.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from functools import partial
from itertools import chain

import numpy as np

from .states import QubitState, StateFamily, _is_integer, _length, _modulus, _unit_norm, from_bloch

FAMILY_VERSION = 1
MATRIX_VERSION = 1

ACCEPT_TOL = 1e-9     # norm deviation accepted silently
RENORM_TOL = 1e-6     # norm deviation renormalized with a warning

MATRIX_KINDS = ("gram", "probability", "phase")

# The most states a phase file may declare.  Its edge list does not bound n,
# and loading allocates n x n matrices (16 GiB of complex entries at the limit).
MAX_PHASE_N = 2**15


class FileFormatError(ValueError):
    """A document that cannot be parsed into the requested type."""


def _number(x, where: str, at: int) -> float:
    # where % at names x, and is formatted only in a refusal.  JSON numbers
    # only, never a bool or a string.  JSON admits NaN and Infinity, 1e999
    # parses as infinity and an integer literal past the double range has
    # no float at all; a guard written "dev > tol" lets NaN through, so all
    # of them are refused here as non-finite.
    if not (isinstance(x, float) or _is_integer(type(x))):
        raise FileFormatError(f"{where % at}: expected a number, got {x!r}")
    try:
        v = float(x)
    except OverflowError:
        v = math.inf if x > 0 else -math.inf
    if not math.isfinite(v):
        raise FileFormatError(f"{where % at}: non-finite number {v!r}")
    return v


def _parse_c(obj, where: str, at: int) -> complex:
    """The {re, im} pair obj as a complex; where % at names it in a refusal."""
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise FileFormatError(f"{where % at}: expected a {{re, im}} pair")
    return complex(_number(obj["re"], where, at), _number(obj["im"], where, at))


def _document(text: str, what: str, version: int) -> dict:
    """The top-level object of a document, checked for its version."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # a JSONDecodeError, too many digits, too deep
        raise FileFormatError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be an object")
    if not _is_integer(type(doc.get("version"))) or doc["version"] != version:
        raise FileFormatError(f"unsupported {what} file version {doc.get('version')!r}")
    return doc


def _window(norm: float, idx: int, refusal: str, length: str, warnings: list) -> None:
    """Accept state idx when its length deviates from 1 by up to ACCEPT_TOL,
    warn up to RENORM_TOL (the caller renormalizes), refuse beyond."""
    dev = abs(norm - 1.0)
    if dev > RENORM_TOL:
        raise FileFormatError(f"state {idx}: {refusal}, {length} = {norm!r}")
    if dev > ACCEPT_TOL:
        warnings.append(f"state {idx}: renormalized, {length} deviated by {dev:.3e}")


def re_im(z: np.ndarray) -> dict:
    """The {re, im} record shape of a complex column, for Records."""
    return {"re": z.real, "im": z.imag}


class Records(Sequence):
    """A JSON array of records of one fixed shape, held as columns.

    shape is one record, a nested dict/list/tuple whose leaves are 1-d
    columns of equal length, of finite ints or floats; record t takes
    element t of every column.  The columns are referenced, not copied.
    Records.of_blocks holds its records as blocks of such shapes instead,
    made again on every walk.  Indexing and iteration yield plain
    records, so json.dumps(doc, default=list) encodes a document holding
    Records exactly as dump_doc does.
    """

    def __init__(self, shape):
        shape, columns = _checked(shape)
        rows = len(columns[0])
        # a block of its own for every _FILL_CHUNK records
        self._rows, every = rows, range(rows)
        self._items = lambda: (every[start:start + _FILL_CHUNK] for start in every[::_FILL_CHUNK])
        self._block = lambda block: (shape, [c[block.start:block.stop] for c in columns])

    @classmethod
    def of_blocks(cls, rows: int, blocks, shape):
        """rows records, those of the shapes shape(item) for each item that
        the iterator blocks() yields, in order; len(item) is the number of
        records of shape(item).  blocks is called once per walk of the
        array, so only one block's columns need exist at a time; a block
        that is not a valid shape of len(item) records, or blocks that do
        not hold rows records in all, raise ValueError when the walk reaches
        them.  Blocks of at most _FILL_CHUNK records render as one chunk
        each."""
        records = cls.__new__(cls)
        records._rows, records._items = rows, blocks
        records._block = lambda item: _checked(shape(item))
        return records

    def __len__(self) -> int:
        return self._rows

    def _counted(self, seen: int) -> None:
        if seen != self._rows:
            raise ValueError(f"record blocks hold {seen} records, not {self._rows}")

    def _walk(self):
        """(shape, columns) of each block, in order."""
        seen = 0
        for shape, columns in map(self._block, self._items()):
            seen += len(columns[0])
            yield shape, columns
        self._counted(seen)

    def __iter__(self):
        for shape, columns in self._walk():
            for values in zip(*[c.tolist() for c in columns]):
                yield _fill(shape, iter(values))

    def __getitem__(self, t: int):
        if not -self._rows <= t < self._rows:
            raise IndexError("Records index out of range")
        t %= self._rows
        for shape, columns in self._walk():
            if t < len(columns[0]):
                return _fill(shape, iter([c[t].item() for c in columns]))
            t -= len(columns[0])

    def render(self, level: int):
        """The parts of the array as json.dumps(..., indent=2) writes it at
        level (see doc_parts): strings, and for each block of rows the job
        (self.block_text, (level + 1, item)) that renders it."""
        if not self:
            yield "[]"
            return
        sep, seen = "[", 0
        for item in self._items():
            seen += len(item)
            if len(item):
                yield sep
                yield self.block_text, (level + 1, item)
                sep = ","
        self._counted(seen)
        yield _indent(level) + "]"

    def block_text(self, level: int, item) -> str:
        """The records of the block item at nesting level, joined by commas."""
        shape, columns = self._block(item)
        rows = len(columns[0])
        if rows != len(item):
            raise ValueError(f"a record block holds {rows} records, not {len(item)}")
        row = _indent(level) + _row(shape, level)[0]
        return "".join(run_parts(row_jobs(row, ",", rows, columns)))


def _checked(shape):
    """(shape, its columns), refused unless the columns make valid records."""
    columns = _row(shape, 0)[1]
    if not all(c.ndim == 1 and c.dtype.kind in "iuf" and np.isfinite(c).all()
               for c in columns) or len({len(c) for c in columns}) != 1:
        raise ValueError("record columns must be equally long, of finite ints or floats")
    return shape, columns


_FILL_CHUNK = 1024  # rows per % operation: bounds the template and the values' Python copies


def row_jobs(row: str, sep: str, rows: int, columns: list):
    """The jobs (task, args) that make rows copies of the %-template row,
    joined by sep, one per chunk of _FILL_CHUNK rows and in order, as
    doc_parts yields them: task(*args) is the chunk, and args is (its
    first row,).  The rows are filled with the values of the 1-d array
    columns taken element by element: element 0 of every column, then
    element 1, and so on; each row takes len(column) // rows elements of
    every column.  run_parts runs the jobs in this process."""
    task = partial(_row_chunk, row, sep, rows, columns)
    return ((task, (start,)) for start in range(0, rows, _FILL_CHUNK))


def _row_chunk(row: str, sep: str, rows: int, columns: list, start: int) -> str:
    """The chunk of the rows of row_jobs(row, sep, rows, columns) that begins at row start."""
    per_row = len(columns[0]) // rows
    count = min(_FILL_CHUNK, rows - start)
    part = [c[start * per_row:(start + count) * per_row].tolist() for c in columns]
    template = sep * (start > 0) + sep.join([row] * count)
    return template % tuple(chain.from_iterable(zip(*part)))


def _fill(shape, values):
    if isinstance(shape, dict):
        return {key: _fill(part, values) for key, part in shape.items()}
    if isinstance(shape, (list, tuple)):
        return [_fill(part, values) for part in shape]
    return next(values)


def _indent(level: int) -> str:
    return "\n" + "  " * level


def _layout(obj, level: int, leaf):
    """Yield the pieces of json.dumps(obj, indent=2), with obj at nesting
    level, in document order.  Dicts, lists and tuples are laid out here;
    every other value yields the pieces of leaf(value, its level)."""
    if isinstance(obj, dict):
        # json's own text for each key and its separator: int, float, bool
        # and None keys become strings, any other type raises json's TypeError
        left, right, items = "{", "}", ((json.dumps({k: 0})[1:-2], v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        left, right, items = "[", "]", (("", part) for part in obj)
    else:
        yield from leaf(obj, level)
        return
    sep, inner = left, _indent(level + 1)
    for key, part in items:
        yield sep + inner + key
        yield from _layout(part, level + 1, leaf)
        sep = ","
    yield _indent(level) + right if obj else left + right


def _row(shape, level: int):
    """(template, columns): one record of shape at nesting level with %r, which
    is how json writes floats and ints, at every leaf; the leaves as arrays."""
    columns = []
    # each leaf appends its column and yields the placeholder None
    pieces = _layout(shape, level, lambda leaf, _: columns.append(np.asarray(leaf)) or [None])
    return "".join("%r" if p is None else p.replace("%", "%%") for p in pieces), columns


def _value(obj, level: int):
    return obj.render(level) if isinstance(obj, Records) else [json.dumps(obj)]


def doc_parts(doc):
    """Yield the parts of dump_doc(doc), in order: strings, none longer than
    one other leaf, and for each chunk of rows of a Records array a job
    (function, args) whose function(*args) is that chunk.  The last part
    is "\n".  The jobs may run anywhere, as long as their results take
    their places in order."""
    yield from _layout(doc, 0, _value)
    yield "\n"


def run_parts(parts):
    """Yield each part of parts that is a string as it is, and for each job
    (function, args) function(*args), in this process."""
    return (part if isinstance(part, str) else part[0](*part[1]) for part in parts)


def dump_doc(doc) -> str:
    """Canonical rendering of a JSON document; stable byte for byte.

    The result is exactly json.dumps(doc, indent=2) + "\n", where each
    Records array counts as the list of its records.  One walk lays the
    document out in order: each Records array in chunks of rows from its
    row template, every other leaf by json.dumps.  run_parts(doc_parts(doc))
    yields those pieces as they are made; this joins them.
    """
    return "".join(run_parts(doc_parts(doc)))


def family_doc(family: StateFamily) -> dict:
    v = family.vectors
    doc = {
        "version": FAMILY_VERSION,
        "states": Records({"c0": re_im(v[:, 0]), "c1": re_im(v[:, 1])}),
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
    doc = _document(text, "family", FAMILY_VERSION)
    records = doc.get("states")
    if not isinstance(records, list) or not records:
        raise FileFormatError("states must be a nonempty list")
    warnings = []
    parsed = []
    for idx, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise FileFormatError(f"state {idx}: expected an object")
        has_amp = "c0" in rec or "c1" in rec
        if has_amp == ("bloch" in rec):
            raise FileFormatError(f"state {idx}: exactly one of amplitudes or bloch is required")
        if has_amp:
            if "c0" not in rec or "c1" not in rec:
                raise FileFormatError(f"state {idx}: both c0 and c1 are required")
            c0 = _parse_c(rec["c0"], "state %d c0", idx)
            c1 = _parse_c(rec["c1"], "state %d c1", idx)
            norm = _modulus(c0, c1)
            _window(norm, idx, "not normalized", "|amplitudes|", warnings)
            # records already valid as states are kept bit for bit
            if not _unit_norm(c0, c1):
                c0, c1 = c0 / norm, c1 / norm
            parsed.append(QubitState(c0, c1))
        else:
            vec = rec["bloch"]
            if not isinstance(vec, list) or len(vec) != 3:
                raise FileFormatError(f"state {idx}: bloch must be a 3-vector")
            arr = np.array([_number(x, "state %d bloch", idx) for x in vec])
            norm = _length(arr)
            _window(norm, idx, "not on sphere", "|n|", warnings)
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
    takes a PhaseMatrix.  The arrays of the document are Records.
    """
    if kind == "phase":
        from .comparisons import PhaseMatrix

        if not isinstance(data, PhaseMatrix):
            raise ValueError("phase kind requires a PhaseMatrix")
        i, j = data.support.pairs
        return {"version": MATRIX_VERSION, "kind": kind, "n": data.n,
                "support": Records([i, j]), "entries": Records(re_im(data.entries[i, j]))}
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    a = np.asarray(data, dtype=complex if kind == "gram" else float)
    entries = re_im(a.ravel()) if kind == "gram" else a.ravel()
    return {"version": MATRIX_VERSION, "kind": kind, "n": a.shape[0], "entries": Records(entries)}


def matrix_to_json(kind: str, data) -> str:
    return dump_doc(matrix_doc(kind, data))


def matrix_from_json(text: str):
    """Parse a matrix document.

    Returns (kind, payload): a raw complex ndarray for "gram" (judging
    it is the caller's job), a validated ndarray for "probability", and
    a validated PhaseMatrix for "phase".  A phase file declares at most
    MAX_PHASE_N states, a stated limit checked before any allocation.
    """
    from .comparisons import PhaseMatrix, ProbabilityMatrix

    doc = _document(text, "matrix", MATRIX_VERSION)
    kind = doc.get("kind")
    if kind not in MATRIX_KINDS:
        raise FileFormatError(f"unknown matrix kind {kind!r}")
    n = doc.get("n")
    if not _is_integer(type(n)) or n < 1:
        raise FileFormatError(f"n must be a positive integer, got {n!r}")
    if kind == "phase" and n > MAX_PHASE_N:
        raise FileFormatError(f"n = {n} exceeds the limit of {MAX_PHASE_N} states of a phase file")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise FileFormatError("entries must be a list")
    if kind != "phase":
        if len(entries) != n * n:
            raise FileFormatError(f"expected {n * n} entries, got {len(entries)}")
        if kind == "gram":
            g = [_parse_c(e, "entry %d", i) for i, e in enumerate(entries)]
            return kind, np.array(g).reshape(n, n)
        try:
            p = [_number(x, "entry %d", i) for i, x in enumerate(entries)]
            return kind, ProbabilityMatrix(np.array(p).reshape(n, n)).entries
        except ValueError as e:
            raise FileFormatError(f"invalid probability matrix: {e}") from e
    support = doc.get("support")
    if not isinstance(support, list):
        raise FileFormatError("phase kind requires a support edge list")
    if len(entries) != len(support):
        raise FileFormatError(
            f"{len(support)} support edges but {len(entries)} entries"
        )
    values = []
    for pos, (edge, entry) in enumerate(zip(support, entries)):
        if not isinstance(edge, list) or len(edge) != 2:
            raise FileFormatError(f"support edge {pos} must be a pair")
        if not (_is_integer(type(edge[0])) and _is_integer(type(edge[1]))):
            raise FileFormatError(f"support edge {pos} must hold integers")
        values.append(_parse_c(entry, "entry %d", pos))
    try:
        u = PhaseMatrix._of_pairs(n, support, values)
    except ValueError as e:
        raise FileFormatError(f"invalid phase matrix: {e}") from e
    return kind, u


def save_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()
