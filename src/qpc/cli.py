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
import math
import os
import sys
import threading
from contextlib import closing, nullcontext
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import states
from .files import (
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
    row_jobs,
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
_positive_tolerance = _option(float, lambda value: 0.0 < value < math.inf, "a finite number > 0")


# A real number, and a complex one from (real part, imaginary part): the
# imaginary column is imag + 0.0, which turns -0.0 into +0.0, so it prints "+0".
_REAL = "%.15g"
_COMPLEX = "%.15g%+.15gi"


def _complex_columns(z: np.ndarray) -> list:
    """The _COMPLEX values of every entry of a 1-d complex array, as columns."""
    return [z.real, z.imag + 0.0]


def _section(heading: str, rows: int, lines):
    """Yield the heading, then the pieces of lines, or "  none" when rows is 0."""
    yield "\n" + heading
    if not rows:
        yield "\n  none"
    yield from lines


# The rows from which analyze renders its report on a pool of one process
# per usable CPU, itself and forked workers, after its check pass.  They are
# counted as the records of the structured report: the gram and probability
# entries, the phase support and entries, the orthogonal pairs and the
# triangles.  On two CPUs a pool of two forked workers broke even at about
# 6,500 rows in both formats (n = 28 to 30 states); the bound is twice that,
# a margin for a noisier or slower host.
POOL_MIN_ROWS = 13_000


def _workers(rows: int) -> int:
    """The processes that run analyze's report of rows rows: every usable
    CPU when there are several, rows reach POOL_MIN_ROWS and this process
    may fork workers (os.fork exists, no other thread runs that a child
    could inherit holding a lock, and this is no daemonic multiprocessing
    worker, which may start no process); else 1.  multiprocessing is not
    imported for the last test: a process that never imported it is no
    worker of it."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if rows < POOL_MIN_ROWS or cpus < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    multiprocessing = sys.modules.get("multiprocessing")
    return 1 if multiprocessing and multiprocessing.current_process().daemon else cpus


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
    # None is comparisons.DEFAULT_ZERO_TOL, read where analyze runs
    p_analyze.add_argument("--zero-tol", type=_tolerance, default=None,
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
    # None leaves the search option at its realizability.SearchConfig default
    p_realize.add_argument("--restarts", type=_positive_int, default=None)
    p_realize.add_argument("--max-iters", type=_positive_int, default=None,
                           help="residual evaluations each search restart may spend")
    p_realize.add_argument("--realize-tol", type=_positive_tolerance, default=None)

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
    from .comparisons import principal_angle

    near = (kappa.real < 0.0) & (np.abs(kappa.imag) <= -2.0 * BRANCH_CUT_MARGIN * kappa.real)
    angle = principal_angle(kappa[near])
    near[near] = np.abs(angle) > math.pi - BRANCH_CUT_MARGIN
    return near


_TRIANGLE_ROW = ("  (%d, %d, %d): bargmann " + _COMPLEX + "  defect " + _COMPLEX
                 + "  pancharatnam " + _REAL + "  solid_angle " + _REAL + "  amplitude " + _REAL)


# Blocks of TRIANGLE_BLOCK rows in one range of the check pass: the kernel
# takes about a quarter less time per row on four.
_CHECK_BLOCKS = 4


def _triangle_lines(kernel, r) -> str:
    """The text report's lines of the triangles of the rows of the range r."""
    block = kernel(r)
    return "".join(run_parts(row_jobs("\n" + _TRIANGLE_ROW, "", len(block), [
        *block.triples.T, *_complex_columns(block.bargmann), *_complex_columns(block.defect),
        block.pancharatnam, block.solid_angle, block.amplitude_factor])))


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
    gram entries, their moduli and the phase entries computed here once;
    blocks() walks its ranges of invariants.TRIANGLE_BLOCK rows.  rows
    counts the records of the structured report, and warnings are those
    of the duplicate rays."""
    from . import comparisons, invariants

    zero_tol = comparisons.DEFAULT_ZERO_TOL if args.zero_tol is None else args.zero_tol
    g = comparisons.gram(family)
    p = comparisons.probabilities(g)
    u = comparisons.phases(g, zero_tol)
    if args.emit_gram:
        save_text(args.emit_gram, matrix_to_json("gram", g.entries))
    if args.emit_probability:
        save_text(args.emit_probability, matrix_to_json("probability", p.entries))
    if args.emit_phase:
        save_text(args.emit_phase, matrix_to_json("phase", u))
    og = u.support.complement()
    triples, m = invariants.Triples(u.support.mask), comparisons.moduli(g.entries)
    kernel = lambda r: invariants.triangle_table(g.entries, m, u.entries, triples.rows(r))
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
        blocks=partial(triples.ranges, invariants.TRIANGLE_BLOCK),
        rows=2 * n * n + 2 * pairs + edges + len(triples), warnings=warnings)


def _branch_cut_warnings(a: SimpleNamespace) -> list:
    """The check pass, run here: the kernel on the ranges of a.triples of
    _CHECK_BLOCKS blocks each.  It raises the consistency refusal and takes
    no angle.  The warnings of the triangles near the branch cut."""
    from .invariants import TRIANGLE_BLOCK

    return [
        f"triangle ({i}, {j}, {k}) is near the phase branch cut; "
        "its solid angle is reported on the principal branch"
        for block in map(a.kernel, a.triples.ranges(_CHECK_BLOCKS * TRIANGLE_BLOCK))
        for i, j, k in block.triples[_near_cut(block.defect)].tolist()
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
        "triangles": Records.of_blocks(len(a.triples), a.blocks,
                                       partial(_triangle_record, a.kernel)),
        "warnings": warnings,
    }


def _analysis_text(family, a: SimpleNamespace, warnings: list):
    """Yield the parts of the text report (see files.doc_parts): strings,
    and the jobs that make its rows, each one chunk of rows: those of
    files.row_jobs, or of the triangles, _triangle_lines of a block."""
    from .comparisons import principal_angle

    n = len(family)
    yield f"family of {n} state(s)"
    if family.labels is not None:
        yield "\nlabels: " + ", ".join(family.labels)
    yield from _section("gram matrix:", n, row_jobs(
        "\n" + ("  " + _COMPLEX) * n, "", n, _complex_columns(a.g.entries.ravel())))
    yield from _section("probability matrix:", n, row_jobs(
        "\n" + ("  " + _REAL) * n, "", n, [a.p.entries.ravel()]))
    i, j = a.u.support.pairs
    z = a.u.entries[i, j]
    yield from _section("phases on support pairs:", len(z), row_jobs(
        "\n  (%d, %d): " + _COMPLEX + "  angle " + _REAL, "", len(z),
        [i, j, *_complex_columns(z), principal_angle(z)]))
    yield "\northogonal pairs: "
    oi, oj = a.og.pairs
    yield from row_jobs("(%d, %d)", ", ", len(oi), [oi, oj]) if len(oi) else ["none"]
    yield f"\northogonality graph is a matching: {'yes' if a.matching else 'no'}"
    triangles = partial(_triangle_lines, a.kernel)
    yield from _section("triangles:", len(a.triples), (
        (triangles, (r,)) for r in a.blocks()))
    yield "".join(f"\nwarning: {w}" for w in warnings)
    yield "\n"


def cmd_analyze(args) -> int:
    family, load_warnings = family_from_json(load_text(args.family))
    a = _analysis(family, args)
    warnings = [*load_warnings, *a.warnings, *_branch_cut_warnings(a)]
    if args.format == "structured":
        report = partial(doc_parts, _analysis_doc(family, a, warnings))
    else:
        report = partial(_analysis_text, family, a, warnings)
    from .pool import Pool

    # The check pass above, its warnings and the consistency refusal come
    # before any worker is forked and before --out is opened, so every part
    # of the report is fixed at the fork.  The report is closed before the
    # pool, which ends the workers.
    with Pool(report, _workers(a.rows)) as pool, closing(pool.walk()) as pieces:
        _emit(args.out, pieces)
    return EXIT_OK


def _json_number(x: float):
    """x, or None where it is infinite or NaN, which strict JSON cannot write."""
    return x if math.isfinite(x) else None


def _verdict_doc(verdict) -> dict:
    return {
        "hermitian_ok": verdict.hermitian_ok,
        "unit_diag_ok": verdict.unit_diag_ok,
        "psd_ok": verdict.psd_ok,
        "rank_ok": verdict.rank_ok,
        "rank_estimate": verdict.rank_estimate,
        "eigenvalues": list(verdict.eigenvalues),
        "worst_violation": _json_number(verdict.worst_violation),
        "realizable": verdict.all_ok,
    }


def _verdict_text(verdict) -> str:
    lines = [f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in verdict.conditions()]
    lines.append(f"rank estimate: {verdict.rank_estimate}")
    lines.append("eigenvalues: " + "  ".join(_REAL % x for x in verdict.eigenvalues))
    lines.append("worst violation: " + _REAL % verdict.worst_violation)
    lines.append(f"verdict: {'realizable' if verdict.all_ok else 'not realizable'} by qubit states")
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    from . import realizability

    kind, payload = matrix_from_json(load_text(args.matrix))
    if kind != "gram":
        raise FileFormatError(f"check requires a gram matrix file, got kind {kind!r}")
    verdict = realizability.check_gram(payload)
    text = _verdict_text(verdict) if args.format == "text" else dump_doc(_verdict_doc(verdict))
    _emit(args.out, [text])
    return EXIT_OK if verdict.all_ok else EXIT_NEGATIVE


def _result_doc(result) -> dict:
    cert = result.certificate
    return {
        "status": result.status,
        "residual": _json_number(result.residual),
        "diagnostics": result.diagnostics,
        "certificate": family_doc(cert) if cert is not None else None,
    }


def _result_text(result) -> str:
    text = f"status: {result.status}\nresidual: " + _REAL % result.residual
    if result.diagnostics:
        text += f"\ndiagnostics: {result.diagnostics}"
    if result.certificate is not None:
        v = result.certificate.vectors
        text += "".join(run_parts(_section("certificate states:", len(v), row_jobs(
            "\n" + ("  " + _COMPLEX) * 2, "", len(v), _complex_columns(v.ravel())))))
    return text + "\n"


def cmd_realize(args) -> int:
    from . import realizability

    kind, payload = matrix_from_json(load_text(args.matrix))
    if kind == "probability":
        raise FileFormatError(
            "realize requires a gram or phase matrix file, got kind 'probability'"
        )
    if kind == "gram":
        result = realizability.realize_gram(payload)
    else:
        given = {name: getattr(args, name) for name in ("restarts", "max_iters", "realize_tol")
                 if getattr(args, name) is not None}
        cfg = realizability.SearchConfig(seed=_resolve_seed(args), **given)
        result = realizability.realize_phases(payload, cfg)
    text = dump_doc(_result_doc(result)) if args.format == "structured" else _result_text(result)
    if args.out and result.certificate is not None:
        save_text(args.out, family_to_json(result.certificate))
    _emit(None, [text])
    return {
        realizability.REALIZABLE: EXIT_OK,
        realizability.NOT_REALIZABLE: EXIT_NEGATIVE,
        realizability.SEARCH_FAILED: EXIT_INCONCLUSIVE,
    }[result.status]


def cmd_verify(args) -> int:
    from . import verification

    seed = _resolve_seed(args)
    reports = verification.run_all(args.cases, seed)
    failed = [idx for idx, r in enumerate(reports) if not r.passed]
    if args.format == "structured":
        doc = {
            "cases": args.cases,
            "reports": [{"name": r.name, "cases_run": r.cases_run,
                         "max_discrepancy": _json_number(r.max_discrepancy),
                         "tolerance": r.tolerance, "passed": r.passed} for r in reports],
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
        case = reports[idx].first_failure
        at = "" if case is None else f" at case {case}"
        print(f"failed: property {idx} {reports[idx].name}{at} with seed {seed}; "
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

