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

import numpy as np

from . import comparisons, invariants, realizability, states, verification
from .files import (
    FileFormatError,
    Records,
    dump_doc,
    family_doc,
    family_from_json,
    family_to_json,
    fill_rows,
    load_text,
    matrix_doc,
    matrix_from_json,
    matrix_to_json,
    re_im,
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


def _section(lines: list, heading: str, row: str, rows: int, columns: list) -> None:
    """Append the heading, then rows lines of the template row or "  none"."""
    lines += [heading, fill_rows(row, "\n", rows, columns) if rows else "  none"]


# The options shared between subcommands; each takes those it reads.
_OPTIONS = {
    "--seed": dict(type=int, default=None,
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
    p_realize.add_argument("--max-iters", type=_positive_int, default=500)
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
    env = os.environ.get("QPC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise FileFormatError(f"QPC_SEED must be an integer, got {env!r}")
    return 0


def _emit(args, text: str) -> None:
    if args.out:
        save_text(args.out, text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    family = states.random_family(args.n, _resolve_seed(args))
    _emit(args, family_to_json(family))
    return EXIT_OK


def _analysis(family, args):
    """Everything the analyze report shows; writes the --emit-* files on the way."""
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
    triangles = invariants.all_triangles(g, zero_tol)
    # the test of states.rays_equal, 1 - |g_ij|^2 <= tol, on every pair i < j
    warnings = [
        f"states {i} and {j} represent the same ray; the "
        "orthogonality matching criterion assumes distinct rays"
        for i, j in zip(*np.nonzero(np.triu(1.0 - p.entries <= DUPLICATE_RAY_TOL, 1)))
    ]
    near_cut = np.abs(triangles.pancharatnam) > math.pi - BRANCH_CUT_MARGIN
    warnings += [
        f"triangle ({i}, {j}, {k}) is near the phase branch cut; "
        "its solid angle is reported on the principal branch"
        for i, j, k in triangles.triples[near_cut].tolist()
    ]
    return g, p, u, og, matching, triangles, warnings


def _analysis_doc(family, load_warnings, args) -> dict:
    g, p, u, og, matching, triangles, warnings = _analysis(family, args)
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
        "triangles": Records({
            "triple": list(triangles.triples.T),
            "bargmann": re_im(triangles.bargmann),
            "defect": re_im(triangles.defect),
            "pancharatnam": triangles.pancharatnam,
            "solid_angle": triangles.solid_angle,
            "amplitude_factor": triangles.amplitude_factor,
        }),
        "warnings": list(load_warnings) + warnings,
    }


def _analysis_text(family, load_warnings, args) -> str:
    g, p, u, og, matching, triangles, warnings = _analysis(family, args)
    n = len(family)
    lines = [f"family of {n} state(s)"]
    if family.labels is not None:
        lines.append("labels: " + ", ".join(family.labels))
    _section(lines, "gram matrix:", ("  " + _COMPLEX) * n, n, _complex_columns(g.entries.ravel()))
    _section(lines, "probability matrix:", ("  " + _REAL) * n, n, [p.entries.ravel()])
    i, j = u.support.pairs
    z = u.entries[i, j]
    _section(lines, "phases on support pairs:", "  (%d, %d): " + _COMPLEX + "  angle " + _REAL,
             len(z), [i, j, *_complex_columns(z), comparisons.principal_angle(z)])
    i, j = og.pairs
    ortho = fill_rows("(%d, %d)", ", ", len(i), [i, j]) if len(i) else "none"
    lines.append("orthogonal pairs: " + ortho)
    lines.append(f"orthogonality graph is a matching: {'yes' if matching else 'no'}")
    _section(lines, "triangles:", "  (%d, %d, %d): bargmann " + _COMPLEX + "  defect " + _COMPLEX
             + "  pancharatnam " + _REAL + "  solid_angle " + _REAL + "  amplitude " + _REAL,
             len(triangles), [*triangles.triples.T, *_complex_columns(triangles.bargmann),
              *_complex_columns(triangles.defect), triangles.pancharatnam,
              triangles.solid_angle, triangles.amplitude_factor])
    lines += [f"warning: {w}" for w in list(load_warnings) + warnings]
    return "\n".join(lines + [""])


def cmd_analyze(args) -> int:
    family, load_warnings = family_from_json(load_text(args.family))
    if args.format == "structured":
        _emit(args, dump_doc(_analysis_doc(family, load_warnings, args)))
    else:
        _emit(args, _analysis_text(family, load_warnings, args))
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
        _emit(args, dump_doc(_verdict_doc(verdict)))
    else:
        _emit(args, _verdict_text(verdict))
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
    lines = [f"status: {result.status}", "residual: " + _REAL % result.residual]
    if result.diagnostics:
        lines.append(f"diagnostics: {result.diagnostics}")
    if result.certificate is not None:
        v = result.certificate.vectors
        _section(lines, "certificate states:", ("  " + _COMPLEX) * 2, len(v),
                 _complex_columns(v.ravel()))
    return "\n".join(lines) + "\n"


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
        sys.stdout.write(text)
    else:
        _emit(args, text)
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
        _emit(args, dump_doc(doc))
    else:
        lines = [r.line() for r in reports]
        lines.append(
            f"{len(reports)} properties, {len(reports) - len(failed)} passed, {len(failed)} failed"
        )
        _emit(args, "\n".join(lines) + "\n")
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
    except (OSError, ValueError, MemoryError) as e:  # FileFormatError, LinAlgError included
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())
