"""Command-line front end.

Subcommands: eval, equal, verify-theorem, identity, poincare, hodge,
decompose.  Results go to stdout (or --out PATH), diagnostics to stderr.
Exit codes: 0 success / all checks pass, 1 a checked statement is false,
2 usage or expression parse error, 3 evaluation error.

Output is deterministic: every command computes its results serially in
ascending parameter order, so identical inputs produce byte-identical
output.  --jobs is accepted and validated but changes nothing.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import dsl
from .core import MotiveClass
from .formulas import (
    moduli_motive_conjectural,
    moduli_motive_delbano,
    proof_chain_check,
    sym_power_curve,
)
from .realization import (
    atiyah_bott_oracle,
    block_decomposition_report,
    hodge_diamond_rows,
    hodge_polynomial,
    key_identity_sides,
    macdonald_series,
    poincare_polynomial,
    render_hodge_diamond,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_EVAL = 3

DEFAULT_GENUS_MIN = 2
DEFAULT_GENUS_MAX = 30
DEFAULT_M_MIN = 1
DEFAULT_M_MAX = 100


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--json", dest="format", action="store_const", const="json",
                        help="shorthand for --format json")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the result to PATH instead of stdout")


def _add_single_genus(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--genus", type=int, required=True, help="curve genus (>= 2)")


def _add_genus_range(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--genus", type=int, default=None, help="single genus (>= 2)")
    parser.add_argument("--genus-min", type=int, default=None,
                        help=f"range start (default {DEFAULT_GENUS_MIN})")
    parser.add_argument("--genus-max", type=int, default=None,
                        help=f"range end (default {DEFAULT_GENUS_MAX})")


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="accepted for compatibility (N >= 1); work runs serially")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvemotives",
        description="Exact motive arithmetic for symmetric powers of a curve "
                    "and the rank-2 fixed-determinant moduli space.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression at one genus", allow_abbrev=False)
    p.add_argument("expr", help="DSL expression, e.g. 'Sym(2) * (1 + L)'")
    _add_single_genus(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_eval, parser=p)

    p = sub.add_parser("equal", help="compare two expressions over a genus range", allow_abbrev=False)
    p.add_argument("expr1")
    p.add_argument("expr2")
    _add_genus_range(p)
    _add_output_options(p)
    _add_jobs(p)
    p.set_defaults(func=cmd_equal, parser=p)

    p = sub.add_parser("verify-theorem",
                       help="check the moduli decomposition, its proof chain and both oracles",
                       allow_abbrev=False)
    _add_genus_range(p)
    _add_output_options(p)
    _add_jobs(p)
    p.set_defaults(func=cmd_verify_theorem, parser=p)

    p = sub.add_parser("identity", help="check the Lefschetz-power identity over an m range",
                       allow_abbrev=False)
    p.add_argument("--m-min", type=int, default=DEFAULT_M_MIN)
    p.add_argument("--m-max", type=int, default=DEFAULT_M_MAX)
    _add_output_options(p)
    _add_jobs(p)
    p.set_defaults(func=cmd_identity, parser=p)

    p = sub.add_parser("poincare", help="Poincare polynomial of an expression", allow_abbrev=False)
    p.add_argument("expr")
    _add_single_genus(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_poincare, parser=p)

    p = sub.add_parser("hodge", help="Hodge polynomial (or diamond) of an expression",
                       allow_abbrev=False)
    p.add_argument("expr")
    p.add_argument("--diamond", action="store_true", help="render the centered diamond layout")
    _add_single_genus(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_hodge, parser=p)

    p = sub.add_parser("decompose", help="per-block Hodge report of the moduli decomposition",
                       allow_abbrev=False)
    _add_genus_range(p)
    _add_output_options(p)
    _add_jobs(p)
    p.set_defaults(func=cmd_decompose, parser=p)

    return parser


def _resolve_genus_range(args: argparse.Namespace) -> tuple:
    if args.genus is not None:
        if args.genus_min is not None or args.genus_max is not None:
            args.parser.error("--genus cannot be combined with --genus-min/--genus-max")
        lo = hi = args.genus
    else:
        lo = args.genus_min if args.genus_min is not None else DEFAULT_GENUS_MIN
        hi = args.genus_max if args.genus_max is not None else DEFAULT_GENUS_MAX
    if lo < 2 or hi < lo:
        args.parser.error(f"genus range must satisfy 2 <= min <= max, got {lo}..{hi}")
    return lo, hi


def _check_single_genus(args: argparse.Namespace) -> int:
    if args.genus < 2:
        args.parser.error(f"--genus must be >= 2, got {args.genus}")
    return args.genus


def _check_jobs(args: argparse.Namespace) -> None:
    if args.jobs < 1:
        args.parser.error(f"--jobs must be >= 1, got {args.jobs}")


def _render(args: argparse.Namespace, text, obj, header, rows) -> None:
    """Write a result to stdout, or to ``--out PATH``, in ``--format``.

    ``text`` returns the text without its final newline, ``obj`` the value
    for one compact JSON line and ``rows`` the CSV rows under ``header``.
    The three are callables and only the one for the requested format runs.
    """
    if args.format == "text":
        payload = text() + "\n"
    elif args.format == "json":
        payload = json.dumps(obj(), separators=(",", ":")) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows())
        payload = buffer.getvalue()
    if args.out is None:
        sys.stdout.write(payload)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)


# --- eval -----------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    genus = _check_single_genus(args)
    motive = dsl.evaluate(dsl.parse(args.expr), genus)
    _render(
        args,
        text=lambda: str(motive),
        obj=motive.to_dict,
        header=("lambda", "lefschetz", "mult"),
        rows=lambda: (
            (key.lambda_index, key.lefschetz_power, str(mult)) for key, mult in motive.items()
        ),
    )
    return EXIT_OK


# --- equal ----------------------------------------------------------------

def _diff_terms(a: MotiveClass, b: MotiveClass) -> list:
    left, right = dict(a.items()), dict(b.items())
    return [
        (key, left.get(key, 0), right.get(key, 0))
        for key in sorted(left.keys() | right.keys())
        if left.get(key, 0) != right.get(key, 0)
    ]


def _not_equal_text(results) -> str:
    lines = ["NOT EQUAL"]
    for genus, diff in results:
        lines.append(f"genus {genus}: {'differs' if diff else 'equal'}")
        for key, m_left, m_right in diff:
            lines.append(
                f"  lambda={key.lambda_index} lefschetz={key.lefschetz_power}: "
                f"left={m_left} right={m_right}"
            )
    return "\n".join(lines)


def cmd_equal(args: argparse.Namespace) -> int:
    lo, hi = _resolve_genus_range(args)
    _check_jobs(args)
    left = dsl.parse(args.expr1)
    right = dsl.parse(args.expr2)
    results = [
        (genus, _diff_terms(dsl.evaluate(left, genus), dsl.evaluate(right, genus)))
        for genus in range(lo, hi + 1)
    ]
    all_equal = all(not diff for _, diff in results)
    _render(
        args,
        text=lambda: "EQUAL" if all_equal else _not_equal_text(results),
        obj=lambda: {
            "equal": all_equal,
            "results": [
                {
                    "genus": genus,
                    "equal": not diff,
                    "diff": [
                        {
                            "lambda": key.lambda_index,
                            "lefschetz": key.lefschetz_power,
                            "left": str(m_left),
                            "right": str(m_right),
                        }
                        for key, m_left, m_right in diff
                    ],
                }
                for genus, diff in results
            ],
        },
        header=("genus", "equal"),
        rows=lambda: ((genus, str(not diff).lower()) for genus, diff in results),
    )
    return EXIT_OK if all_equal else EXIT_FALSE


# --- verify-theorem -------------------------------------------------------

def _verify_genus(genus: int) -> tuple:
    """Run the four check categories at one genus.

    Returns (genus, {check: "pass" or "fail"}, {check: first failing index}),
    the checks in the order main_equality, proof_chain, atiyah_bott, macdonald.
    """
    checks = {}
    detail = {}

    delbano = moduli_motive_delbano(genus)
    checks["main_equality"] = delbano == moduli_motive_conjectural(genus)

    bad_i = next((i for i in range(genus + 1) if not proof_chain_check(genus, i)), None)
    checks["proof_chain"] = bad_i is None
    if bad_i is not None:
        detail["proof_chain"] = bad_i

    checks["atiyah_bott"] = atiyah_bott_oracle(genus) == poincare_polynomial(delbano)

    series = macdonald_series(genus, 2 * genus)
    bad_n = next(
        (
            n
            for n in range(2 * genus + 1)
            if series[n] != poincare_polynomial(sym_power_curve(n, genus))
        ),
        None,
    )
    checks["macdonald"] = bad_n is None
    if bad_n is not None:
        detail["macdonald"] = bad_n

    return genus, {name: "pass" if ok else "fail" for name, ok in checks.items()}, detail


def _first_failure(results) -> dict | None:
    for genus, checks, detail in results:
        for name, verdict in checks.items():
            if verdict == "fail":
                return {"genus": genus, "check": name, "index": detail.get(name)}
    return None


def _verify_text(results, failure, lo: int, hi: int) -> str:
    lines = [
        f"g={genus}: " + " ".join(f"{name}={verdict}" for name, verdict in checks.items())
        for genus, checks, _ in results
    ]
    if failure is None:
        lines.append(f"all checks passed for genus {lo}..{hi}")
    else:
        where = "" if failure["index"] is None else f" at index {failure['index']}"
        lines.append(f"FAILED: g={failure['genus']} check={failure['check']}{where}")
    return "\n".join(lines)


def cmd_verify_theorem(args: argparse.Namespace) -> int:
    lo, hi = _resolve_genus_range(args)
    _check_jobs(args)
    results = [_verify_genus(genus) for genus in range(lo, hi + 1)]
    failure = _first_failure(results)
    _render(
        args,
        text=lambda: _verify_text(results, failure, lo, hi),
        obj=lambda: {
            "genus_min": lo,
            "genus_max": hi,
            "results": [
                {"genus": genus, "checks": checks} for genus, checks, _ in results
            ],
            "all_pass": failure is None,
            "first_failure": failure,
        },
        header=("genus", "check", "result"),
        rows=lambda: (
            (genus, name, verdict)
            for genus, checks, _ in results
            for name, verdict in checks.items()
        ),
    )
    return EXIT_OK if failure is None else EXIT_FALSE


# --- identity -------------------------------------------------------------

def _identity_text(results, first_bad, m_min: int, m_max: int) -> str:
    lines = [
        f"m={m}: ok  both sides: {lhs}" if ok else f"m={m}: FAIL  lhs: {lhs}  rhs: {rhs}"
        for m, lhs, rhs, ok in results
    ]
    if first_bad is None:
        lines.append(f"identity holds for m={m_min}..{m_max}")
    else:
        lines.append(f"FAILED at m={first_bad}")
    return "\n".join(lines)


def cmd_identity(args: argparse.Namespace) -> int:
    if args.m_min < 1 or args.m_max < args.m_min:
        args.parser.error(
            f"m range must satisfy 1 <= min <= max, got {args.m_min}..{args.m_max}"
        )
    _check_jobs(args)

    def check(m: int):
        lhs, rhs = key_identity_sides(m)
        return m, lhs, rhs, lhs == rhs

    results = [check(m) for m in range(args.m_min, args.m_max + 1)]
    first_bad = next((m for m, _, _, ok in results if not ok), None)
    _render(
        args,
        text=lambda: _identity_text(results, first_bad, args.m_min, args.m_max),
        obj=lambda: {
            "m_min": args.m_min,
            "m_max": args.m_max,
            "results": [
                {"m": m, "ok": ok, "lhs": str(lhs), "rhs": str(rhs)}
                for m, lhs, rhs, ok in results
            ],
            "all_pass": first_bad is None,
        },
        header=("m", "ok"),
        rows=lambda: ((m, str(ok).lower()) for m, _, _, ok in results),
    )
    return EXIT_OK if first_bad is None else EXIT_FALSE


# --- poincare / hodge -----------------------------------------------------

def cmd_poincare(args: argparse.Namespace) -> int:
    genus = _check_single_genus(args)
    poly = poincare_polynomial(dsl.evaluate(dsl.parse(args.expr), genus))
    _render(
        args,
        text=lambda: str(poly),
        obj=lambda: {
            "variable": "t",
            "terms": [[degree, str(coeff)] for degree, coeff in poly.items()],
        },
        header=("degree", "coeff"),
        rows=lambda: ((degree, str(coeff)) for degree, coeff in poly.items()),
    )
    return EXIT_OK


def _hodge_obj(poly, diamond: bool) -> dict:
    obj = {
        "variables": ["u", "v"],
        "terms": [[p, q, str(coeff)] for (p, q), coeff in poly.items()],
    }
    if diamond:
        obj["diamond"] = [[str(v) for v in row] for row in hodge_diamond_rows(poly)]
    return obj


def cmd_hodge(args: argparse.Namespace) -> int:
    genus = _check_single_genus(args)
    poly = hodge_polynomial(dsl.evaluate(dsl.parse(args.expr), genus))
    _render(
        args,
        text=lambda: render_hodge_diamond(poly) if args.diamond else str(poly),
        obj=lambda: _hodge_obj(poly, args.diamond),
        header=("p", "q", "coeff"),
        rows=lambda: ((p, q, str(coeff)) for (p, q), coeff in poly.items()),
    )
    return EXIT_OK


# --- decompose ------------------------------------------------------------

def _block_table(report) -> str:
    label_width = max(len(block.label) for block in report.blocks)
    label_width = max(label_width, len("total"))
    twist_width = max(len("twist"), max(len(str(b.twist)) for b in report.blocks))
    lines = [f"genus {report.genus}: {len(report.blocks)} blocks"]
    lines.append(f"  {'block'.ljust(label_width)}  {'twist'.rjust(twist_width)}  hodge")
    for block in report.blocks:
        lines.append(
            f"  {block.label.ljust(label_width)}  {str(block.twist).rjust(twist_width)}  {block.hodge}"
        )
    lines.append(f"  {'total'.ljust(label_width)}  {' ' * twist_width}  {report.total}")
    return "\n".join(lines)


def cmd_decompose(args: argparse.Namespace) -> int:
    lo, hi = _resolve_genus_range(args)
    _check_jobs(args)
    reports = [block_decomposition_report(genus) for genus in range(lo, hi + 1)]
    _render(
        args,
        text=lambda: "\n\n".join(_block_table(report) for report in reports),
        obj=lambda: reports[0].to_dict() if lo == hi else [r.to_dict() for r in reports],
        header=("genus", "sym_power", "twist", "p", "q", "coeff"),
        rows=lambda: (
            (report.genus, block.sym_power, block.twist, p, q, str(coeff))
            for report in reports
            for block in report.blocks
            for (p, q), coeff in block.hodge.items()
        ),
    )
    return EXIT_OK


# --- entry ----------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses.  parse_args never changes a parser, so one built
    per process serves every main call; a process that calls main once, as
    the entry point does, builds it once either way.  Kept private so no
    caller can change it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse, also parser.error inside a handler
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except (dsl.ParseError, OSError) as exc:  # ParseError is a ValueError: caught first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:  # NonTateTensor is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
