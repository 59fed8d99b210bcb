"""Command line interface.

Subcommands:

    gen       write a seeded random state family
    analyze   full comparison report of a family file
    check     judge a gram matrix file against the four conditions
    realize   reconstruct states from a gram or phase matrix file
    verify    run the registered self-check properties

Exit codes: 0 success or a positive verdict, 1 a negative verdict,
2 usage or parse errors, 3 an inconclusive search.  The environment
variable QPC_SEED supplies a default seed when --seed is absent.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from contextlib import nullcontext
from functools import partial

import numpy as np

from . import comparisons, invariants, realizability, states, verification
from .files import (
    FileFormatError,
    Records,
    doc_pieces,
    dump_doc,
    family_doc,
    family_from_json,
    family_to_json,
    load_text,
    matrix_doc,
    matrix_from_json,
    matrix_to_json,
    re_im,
    row_pieces,
    save_text,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

DUPLICATE_RAY_TOL = 1e-9
BRANCH_CUT_MARGIN = 1e-6


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {value}")
    return value


# A real number, and a complex one from (real part, sign, |imag|): the
# sign is "+" when imag >= 0, so an imaginary part of -0.0 prints "+0".
_REAL = "%.15g"
_COMPLEX = "%.15g%s%.15gi"


def _complex_columns(z: np.ndarray) -> list:
    """The _COMPLEX values of every entry of a 1-d complex array, as columns."""
    return [z.real, np.where(z.imag >= 0, "+", "-"), np.abs(z.imag)]


def _section(heading: str, row: str, rows: int, blocks):
    """Yield the heading, then rows lines of the template row or "  none",
    each line after a newline and the rows in chunks.  blocks yields
    (count, columns) pairs: count lines filled from columns, in order."""
    yield "\n" + heading
    if not rows:
        yield "\n  none"
    for count, columns in blocks:
        yield from row_pieces("\n" + row, "", count, columns)


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


def _triangle_columns(block) -> list:
    return [*block.triples.T, *_complex_columns(block.bargmann),
            *_complex_columns(block.defect), block.pancharatnam, block.solid_angle,
            block.amplitude_factor]


def _triangle_record(block) -> dict:
    return {
        "triple": list(block.triples.T),
        "bargmann": re_im(block.bargmann),
        "defect": re_im(block.defect),
        "pancharatnam": block.pancharatnam,
        "solid_angle": block.solid_angle,
        "amplitude_factor": block.amplitude_factor,
    }


def _analysis(family, args):
    """Everything the analyze report shows; writes the --emit-* files on the way.

    The triangles are not held: one walk of triangle_blocks here counts
    them, collects the branch-cut warnings and raises the consistency
    refusal, all before --out is opened, and takes no angle.  The report
    then walks the same blocks again and renders them as they are made.
    """
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
    matching = comparisons.check_matching(og)
    blocks = partial(invariants.triangle_blocks, g, zero_tol)
    rows, near_cut = 0, []
    for block in blocks():
        rows += len(block)
        near_cut += block.triples[_near_cut(block.defect)].tolist()
    # the test of states.rays_equal, 1 - |g_ij|^2 <= tol, on every pair i < j
    warnings = [
        f"states {i} and {j} represent the same ray; the "
        "orthogonality matching criterion assumes distinct rays"
        for i, j in zip(*np.nonzero(np.triu(1.0 - p.entries <= DUPLICATE_RAY_TOL, 1)))
    ]
    warnings += [
        f"triangle ({i}, {j}, {k}) is near the phase branch cut; "
        "its solid angle is reported on the principal branch"
        for i, j, k in near_cut
    ]
    return g, p, u, og, matching, (rows, blocks), warnings


def _analysis_doc(family, load_warnings, args) -> dict:
    g, p, u, og, matching, (rows, blocks), warnings = _analysis(family, args)
    return {
        "version": 1,
        "n": len(family),
        "labels": list(family.labels) if family.labels is not None else None,
        "zero_tol": args.zero_tol,
        "gram": matrix_doc("gram", g.entries),
        "probability": matrix_doc("probability", p.entries),
        "phase": matrix_doc("phase", u),
        "orthogonality": {
            "edges": Records(list(og.pairs)),
            "matching": matching,
        },
        "triangles": Records.of_blocks(rows, lambda: map(_triangle_record, blocks())),
        "warnings": list(load_warnings) + warnings,
    }


def _analysis_text(family, load_warnings, analysis):
    """Yield the text report in pieces, none longer than one chunk of rows."""
    g, p, u, og, matching, (rows, blocks), warnings = analysis
    n = len(family)
    yield f"family of {n} state(s)"
    if family.labels is not None:
        yield "\nlabels: " + ", ".join(family.labels)
    yield from _section("gram matrix:", ("  " + _COMPLEX) * n, n,
                        [(n, _complex_columns(g.entries.ravel()))])
    yield from _section("probability matrix:", ("  " + _REAL) * n, n,
                        [(n, [p.entries.ravel()])])
    i, j = u.support.pairs
    z = u.entries[i, j]
    yield from _section("phases on support pairs:",
                        "  (%d, %d): " + _COMPLEX + "  angle " + _REAL,
                        len(z), [(len(z), [i, j, *_complex_columns(z),
                                           comparisons.principal_angle(z)])])
    i, j = og.pairs
    yield "\northogonal pairs: "
    yield from row_pieces("(%d, %d)", ", ", len(i), [i, j]) if len(i) else ["none"]
    yield f"\northogonality graph is a matching: {'yes' if matching else 'no'}"
    yield from _section("triangles:", "  (%d, %d, %d): bargmann " + _COMPLEX + "  defect "
                        + _COMPLEX + "  pancharatnam " + _REAL + "  solid_angle " + _REAL
                        + "  amplitude " + _REAL,
                        rows, ((len(b), _triangle_columns(b)) for b in blocks()))
    yield "".join(f"\nwarning: {w}" for w in list(load_warnings) + warnings)
    yield "\n"


def cmd_analyze(args) -> int:
    family, load_warnings = family_from_json(load_text(args.family))
    # the whole analysis, --emit-* files included, runs before --out is opened
    if args.format == "structured":
        _emit(args.out, doc_pieces(_analysis_doc(family, load_warnings, args)))
    else:
        _emit(args.out, _analysis_text(family, load_warnings, _analysis(family, args)))
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
        text += "".join(_section("certificate states:", ("  " + _COMPLEX) * 2, len(v),
                                 [(len(v), _complex_columns(v.ravel()))]))
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return args.func(args)
    # FileFormatError and LinAlgError included; ArithmeticError is analyze's
    # refusal when the two defect routes disagree
    except (OSError, ValueError, MemoryError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())
