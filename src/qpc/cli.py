"""Command line interface.

Subcommands:

    gen       write a seeded random state family
    analyze   full comparison report of a family file
    check     judge a gram matrix file against the four conditions
    realize   reconstruct states from a gram or phase matrix file
    verify    run the registered self-check properties

Exit codes: 0 success or a positive verdict, 1 a negative verdict,
2 usage or parse errors, 3 an inconclusive search, 130 an interrupt
(Ctrl-C).  The environment variable QPC_SEED supplies a default seed
when --seed is absent.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import threading
from contextlib import closing, nullcontext
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import comparisons, invariants, realizability, states, verification
from .files import (
    _FILL_CHUNK,
    FileFormatError,
    Records,
    doc_parts,
    dump_doc,
    family_doc,
    family_from_json,
    family_to_json,
    load_text,
    matrix_doc,
    matrix_from_json,
    matrix_to_json,
    re_im,
    row_chunk,
    row_pieces,
    run_parts,
    save_text,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, what shells report for an interrupted command

DUPLICATE_RAY_TOL = 1e-9
BRANCH_CUT_MARGIN = 1e-6


def _option(parse, ok, rule: str):
    """The argparse type of an option value: parse(text), refused with the
    message "must be {rule}" unless parse accepts the text and ok the value."""
    def value_of(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return value_of


_positive_int = _option(int, lambda value: value >= 1, "a positive integer")
_seed = _option(int, lambda value: value >= 0, "a non-negative integer")
_tolerance = _option(float, lambda value: 0.0 <= value < math.inf, "a finite number >= 0")


# A real number, and a complex one from (real part, imaginary part): the
# imaginary column is imag + 0.0, which turns -0.0 into +0.0, so it prints "+0".
_REAL = "%.15g"
_COMPLEX = "%.15g%+.15gi"


def _complex_columns(z: np.ndarray) -> list:
    """The _COMPLEX values of every entry of a 1-d complex array, as columns."""
    return [z.real, z.imag + 0.0]


def _lines(row: str, rows: int, columns: list):
    """rows lines of the template row filled from columns, each after a
    newline, in chunks of rows."""
    return row_pieces("\n" + row, "", rows, columns)


def _section(heading: str, rows: int, lines):
    """Yield the heading, then the pieces of lines, or "  none" when rows is 0."""
    yield "\n" + heading
    if not rows:
        yield "\n  none"
    yield from lines


# The rows from which analyze runs its check pass and report in forked
# workers, one per usable CPU.  They are counted as the records of the
# structured report: the gram and probability entries, the phase support and
# entries, the orthogonal pairs and the triangles.  On two CPUs the workers
# break even at about 6,500 rows in both formats (n = 28 to 30 states); the
# bound is twice that, a margin for a noisier or slower host.
POOL_MIN_ROWS = 13_000


def _workers(rows: int) -> int:
    """The processes that run analyze's stages of rows rows: every usable CPU
    when there are several, rows reach POOL_MIN_ROWS and this process may
    fork workers (fork is available, no other thread runs that a child could
    inherit holding a lock, and this is no daemonic multiprocessing worker,
    which may start no process); else 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if rows < POOL_MIN_ROWS or cpus < 2 or threading.active_count() > 1:
        return 1
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return 1 if multiprocessing.current_process().daemon else cpus


# The options shared between subcommands; each takes those it reads.
_OPTIONS = {
    "--seed": dict(type=_seed, default=None,
                   help="random seed (falls back to QPC_SEED, then 0)"),
    "--out": dict(default=None, help="write the main output to this path"),
    "--format": dict(choices=("text", "structured"), default="text",
                     help="report style: human text or a JSON document"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpc",
        description="Pairwise comparison geometry of qubit state families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, options):
        p = sub.add_parser(name, help=summary)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func)
        return p

    p_gen = command("gen", cmd_gen, "write a seeded random state family", ["--seed", "--out"])
    p_gen.add_argument("--n", type=_positive_int, required=True,
                       help="number of states to draw")

    p_analyze = command("analyze", cmd_analyze, "full comparison report of a family file",
                        ["--out", "--format"])
    p_analyze.add_argument("family", help="path to a family file")
    p_analyze.add_argument("--zero-tol", type=_tolerance, default=comparisons.DEFAULT_ZERO_TOL,
                           help="overlap modulus at or below this counts as orthogonal")
    p_analyze.add_argument("--emit-gram", default=None, metavar="PATH",
                           help="also write the gram matrix file")
    p_analyze.add_argument("--emit-probability", default=None, metavar="PATH",
                           help="also write the probability matrix file")
    p_analyze.add_argument("--emit-phase", default=None, metavar="PATH",
                           help="also write the phase matrix file")

    p_check = command("check", cmd_check, "judge a gram matrix file", ["--out", "--format"])
    p_check.add_argument("matrix", help="path to a gram matrix file")

    p_realize = command("realize", cmd_realize, "reconstruct states from a matrix file",
                        ["--seed", "--out", "--format"])
    p_realize.add_argument("matrix", help="path to a gram or phase matrix file")
    p_realize.add_argument("--restarts", type=_positive_int, default=32)
    p_realize.add_argument("--max-iters", type=_positive_int, default=500,
                           help="residual evaluations each search restart may spend")
    p_realize.add_argument("--realize-tol", type=_tolerance,
                           default=realizability.REALIZE_TOL)

    p_verify = command("verify", cmd_verify, "run the registered self-check properties",
                       ["--seed", "--out", "--format"])
    p_verify.add_argument("--cases", type=_positive_int, default=100,
                          help="random instances per property")

    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QPC_SEED", "0")
    try:
        return _seed(env)
    except argparse.ArgumentTypeError:
        raise FileFormatError(f"QPC_SEED must be a non-negative integer, got {env!r}")


def _emit(path, pieces) -> None:
    """Write the strings of pieces in order to the file at path, or to stdout.

    A pipe whose reader has gone can take part of a large write without
    an error: the buffered writer returns the short count, and only the
    next write raises.  So the last character of the output goes out on
    its own, after the rest, and a closed stdout fails every command
    that writes more than a pipe holds.
    """
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as out:
        last = ""
        for piece in pieces:
            out.write(last)
            last = piece
        out.write(last[:-1])
        out.write(last[-1:])
        out.flush()


def cmd_gen(args) -> int:
    family = states.random_family(args.n, _resolve_seed(args))
    _emit(args.out, [family_to_json(family)])
    return EXIT_OK


def _near_cut(kappa: np.ndarray) -> np.ndarray:
    """Whether the principal angle of each defect lies within
    BRANCH_CUT_MARGIN of pi in modulus.  The angle is taken only where
    real < 0 and |imag| <= -2 BRANCH_CUT_MARGIN real, a superset of
    those defects."""
    near = (kappa.real < 0.0) & (np.abs(kappa.imag) <= -2.0 * BRANCH_CUT_MARGIN * kappa.real)
    angle = comparisons.principal_angle(kappa[near])
    near[near] = np.abs(angle) > math.pi - BRANCH_CUT_MARGIN
    return near


_TRIANGLE_ROW = ("  (%d, %d, %d): bargmann " + _COMPLEX + "  defect " + _COMPLEX
                 + "  pancharatnam " + _REAL + "  solid_angle " + _REAL + "  amplitude " + _REAL)


# Rows of one job of the check pass, four blocks of TRIANGLE_BLOCK rows: the
# kernel takes about a quarter less time per row on them, and each trip to
# a worker carries more work.
_CHECK_ROWS = 4 * invariants.TRIANGLE_BLOCK


def _near_cut_triples(kernel, r) -> list:
    """The triples of the rows of the range r whose defects lie near the
    branch cut.  Where the kernel refuses r, the refusal raised is that of
    the first of its blocks of TRIANGLE_BLOCK rows that holds one, as a
    walk of Triples.ranges(TRIANGLE_BLOCK) through the kernel raises it."""
    try:
        block = kernel(r)
    except ArithmeticError:
        for start in range(0, len(r), invariants.TRIANGLE_BLOCK):
            kernel(r[start:start + invariants.TRIANGLE_BLOCK])
        raise
    return block.triples[_near_cut(block.defect)].tolist()


def _triangle_lines(kernel, r) -> str:
    """The text report's lines of the triangles of the rows of the range r."""
    block = kernel(r)
    return "".join(_lines(_TRIANGLE_ROW, len(block), [
        *block.triples.T, *_complex_columns(block.bargmann), *_complex_columns(block.defect),
        block.pancharatnam, block.solid_angle, block.amplitude_factor]))


def _triangle_record(kernel, r) -> dict:
    block = kernel(r)
    return {
        "triple": list(block.triples.T),
        "bargmann": re_im(block.bargmann),
        "defect": re_im(block.defect),
        "pancharatnam": block.pancharatnam,
        "solid_angle": block.solid_angle,
        "amplitude_factor": block.amplitude_factor,
    }


def _analysis(family, args) -> SimpleNamespace:
    """What the analyze report shows; writes the --emit-* files on the way.

    The triangles are not held but made again on every walk of them:
    triples is the invariants.Triples of the support, and kernel(r) the
    invariants.triangle_table of the rows of its range r, made from the
    gram entries, their moduli and the phase entries computed here once.
    check() is the walk of the check pass: a job of _near_cut_triples of
    the kernel for every _CHECK_ROWS rows.  rows counts the records of the
    structured report, and warnings are those of the duplicate rays."""
    zero_tol = args.zero_tol
    g = comparisons.gram(family)
    p = comparisons.probabilities(g)
    u = comparisons.phases(g, zero_tol)
    if args.emit_gram:
        save_text(args.emit_gram, matrix_to_json("gram", g.entries))
    if args.emit_probability:
        save_text(args.emit_probability, matrix_to_json("probability", p.entries))
    if args.emit_phase:
        save_text(args.emit_phase, matrix_to_json("phase", u))
    og = comparisons.orthogonality_graph(g, zero_tol)
    triples, m = invariants.Triples(u.support.mask), comparisons.moduli(g.entries)
    kernel = lambda r: invariants.triangle_table(g.entries, m, u.entries, triples.rows(r))
    near_cut = partial(_near_cut_triples, kernel)
    n, pairs, edges = len(family), len(u.support.pairs[0]), len(og.pairs[0])
    # the test of states.rays_equal, 1 - |g_ij|^2 <= tol, on every pair i < j
    warnings = [
        f"states {i} and {j} represent the same ray; the "
        "orthogonality matching criterion assumes distinct rays"
        for i, j in zip(*np.nonzero(np.triu(1.0 - p.entries <= DUPLICATE_RAY_TOL, 1)))
    ]
    return SimpleNamespace(
        zero_tol=zero_tol, g=g, p=p, u=u, og=og, matching=comparisons.check_matching(og),
        triples=triples, kernel=kernel,
        check=lambda: ((near_cut, (r,)) for r in triples.ranges(_CHECK_ROWS)),
        rows=2 * n * n + 2 * pairs + edges + len(triples), warnings=warnings)


def _branch_cut_warnings(a: SimpleNamespace, results=None) -> list:
    """The check pass: the results of the walk a.check, as pool.Pool.walk
    yields them, or run here; it raises the consistency refusal and takes
    no angle.  The warnings of the triangles near the branch cut."""
    return [
        f"triangle ({i}, {j}, {k}) is near the phase branch cut; "
        "its solid angle is reported on the principal branch"
        for near in (run_parts(a.check()) if results is None else results) for i, j, k in near
    ]


def _analysis_doc(family, a: SimpleNamespace, warnings: list) -> dict:
    return {
        "version": 1,
        "n": len(family),
        "labels": list(family.labels) if family.labels is not None else None,
        "zero_tol": a.zero_tol,
        "gram": matrix_doc("gram", a.g.entries),
        "probability": matrix_doc("probability", a.p.entries),
        "phase": matrix_doc("phase", a.u),
        "orthogonality": {
            "edges": Records(list(a.og.pairs)),
            "matching": a.matching,
        },
        "triangles": Records.of_blocks(len(a.triples),
                                       partial(a.triples.ranges, invariants.TRIANGLE_BLOCK),
                                       partial(_triangle_record, a.kernel)),
        "warnings": warnings,
    }


def _analysis_text(family, a: SimpleNamespace, warnings: list):
    """Yield the parts of the text report (see files.doc_parts): strings,
    and the jobs that make its rows, each one chunk of rows: a row_chunk
    of its first row, or of the triangles, _triangle_lines of a block."""

    def chunks(row, sep, rows, columns):
        task = partial(row_chunk, row, sep, rows, columns)
        return ((task, (start,)) for start in range(0, rows, _FILL_CHUNK))

    n = len(family)
    yield f"family of {n} state(s)"
    if family.labels is not None:
        yield "\nlabels: " + ", ".join(family.labels)
    yield from _section("gram matrix:", n, chunks(
        "\n" + ("  " + _COMPLEX) * n, "", n, _complex_columns(a.g.entries.ravel())))
    yield from _section("probability matrix:", n, chunks(
        "\n" + ("  " + _REAL) * n, "", n, [a.p.entries.ravel()]))
    i, j = a.u.support.pairs
    z = a.u.entries[i, j]
    yield from _section("phases on support pairs:", len(z), chunks(
        "\n  (%d, %d): " + _COMPLEX + "  angle " + _REAL, "", len(z),
        [i, j, *_complex_columns(z), comparisons.principal_angle(z)]))
    yield "\northogonal pairs: "
    oi, oj = a.og.pairs
    yield from chunks("(%d, %d)", ", ", len(oi), [oi, oj]) if len(oi) else ["none"]
    yield f"\northogonality graph is a matching: {'yes' if a.matching else 'no'}"
    triangles = partial(_triangle_lines, a.kernel)
    yield from _section("triangles:", len(a.triples), (
        (triangles, (r,)) for r in a.triples.ranges(invariants.TRIANGLE_BLOCK)))
    yield "".join(f"\nwarning: {w}" for w in warnings)
    yield "\n"


def cmd_analyze(args) -> int:
    family, load_warnings = family_from_json(load_text(args.family))
    a = _analysis(family, args)
    # the check pass below adds the branch-cut warnings to this list
    warnings = list(load_warnings) + a.warnings
    if args.format == "structured":
        report = partial(doc_parts, _analysis_doc(family, a, warnings))
    else:
        report = partial(_analysis_text, family, a, warnings)
    from .pool import Pool

    # The workers are forked here and walk the check pass and the report
    # themselves, each running its share of their jobs.  The warnings grow
    # after the fork, so only the report's strings may read them, no job.
    # The check pass, its warnings and the consistency refusal come before
    # --out is opened; the report is closed before the pool, which ends the
    # workers.
    with Pool([a.check, report], _workers(a.rows)) as pool:
        warnings += _branch_cut_warnings(a, pool.walk())
        with closing(pool.walk()) as pieces:
            _emit(args.out, pieces)
    return EXIT_OK


def _verdict_doc(verdict) -> dict:
    return {
        "hermitian_ok": verdict.hermitian_ok,
        "unit_diag_ok": verdict.unit_diag_ok,
        "psd_ok": verdict.psd_ok,
        "rank_ok": verdict.rank_ok,
        "rank_estimate": verdict.rank_estimate,
        "eigenvalues": list(verdict.eigenvalues),
        "worst_violation": verdict.worst_violation,
        "realizable": verdict.all_ok,
    }


def _verdict_text(verdict) -> str:
    lines = [f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in verdict.conditions()]
    lines.append(f"rank estimate: {verdict.rank_estimate}")
    lines.append("eigenvalues: " + "  ".join(_REAL % x for x in verdict.eigenvalues))
    lines.append("worst violation: " + _REAL % verdict.worst_violation)
    lines.append(
        "verdict: realizable by qubit states"
        if verdict.all_ok
        else "verdict: not realizable by qubit states"
    )
    return "\n".join(lines) + "\n"


def _emit_verdict(args, verdict) -> int:
    """Write a Gram verdict in the chosen format; its exit code."""
    if args.format == "structured":
        _emit(args.out, [dump_doc(_verdict_doc(verdict))])
    else:
        _emit(args.out, [_verdict_text(verdict)])
    return EXIT_OK if verdict.all_ok else EXIT_NEGATIVE


def cmd_check(args) -> int:
    kind, payload = matrix_from_json(load_text(args.matrix))
    if kind != "gram":
        raise FileFormatError(f"check requires a gram matrix file, got kind {kind!r}")
    return _emit_verdict(args, realizability.check_gram(payload))


def _result_doc(result) -> dict:
    cert = result.certificate
    return {
        "status": result.status,
        "residual": result.residual,
        "diagnostics": result.diagnostics,
        "certificate": family_doc(cert) if cert is not None else None,
    }


def _result_text(result) -> str:
    text = f"status: {result.status}\nresidual: " + _REAL % result.residual
    if result.diagnostics:
        text += f"\ndiagnostics: {result.diagnostics}"
    if result.certificate is not None:
        v = result.certificate.vectors
        text += "".join(_section("certificate states:", len(v), _lines(
            ("  " + _COMPLEX) * 2, len(v), _complex_columns(v.ravel()))))
    return text + "\n"


_RESULT_EXIT = {
    realizability.REALIZABLE: EXIT_OK,
    realizability.NOT_REALIZABLE: EXIT_NEGATIVE,
    realizability.SEARCH_FAILED: EXIT_INCONCLUSIVE,
}


def cmd_realize(args) -> int:
    kind, payload = matrix_from_json(load_text(args.matrix))
    if kind == "probability":
        raise FileFormatError(
            "realize requires a gram or phase matrix file, got kind 'probability'"
        )
    if kind == "gram":
        try:
            result = realizability.realize_gram(payload)
        except realizability.GramRefusal as e:
            return _emit_verdict(args, e.verdict)
    else:
        cfg = realizability.SearchConfig(
            restarts=args.restarts,
            max_iters=args.max_iters,
            seed=_resolve_seed(args),
            realize_tol=args.realize_tol,
        )
        result = realizability.realize_phases(payload, cfg)
    text = dump_doc(_result_doc(result)) if args.format == "structured" else _result_text(result)
    if args.out and result.certificate is not None:
        save_text(args.out, family_to_json(result.certificate))
        _emit(None, [text])
    else:
        _emit(args.out, [text])
    return _RESULT_EXIT[result.status]


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    reports = verification.run_all(args.cases, seed)
    failed = [idx for idx, r in enumerate(reports) if not r.passed]
    if args.format == "structured":
        doc = {
            "cases": args.cases,
            "reports": [{**dataclasses.asdict(r), "passed": r.passed} for r in reports],
            "all_passed": not failed,
        }
        _emit(args.out, [dump_doc(doc)])
    else:
        lines = [r.line() for r in reports]
        lines.append(
            f"{len(reports)} properties, {len(reports) - len(failed)} passed, {len(failed)} failed"
        )
        _emit(args.out, ["\n".join(lines) + "\n"])
    for idx in failed:
        print(f"failed: property {idx} {reports[idx].name} with seed {seed}; "
              f"replay: qpc verify --seed {seed} --cases {args.cases}", file=sys.stderr)
    return EXIT_NEGATIVE if failed else EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # argparse's exit, after its own message
        return int(e.code) if e.code is not None else 0
    # FileFormatError and LinAlgError included; ArithmeticError is analyze's
    # refusal when the two defect routes disagree
    except (OSError, ValueError, MemoryError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED

