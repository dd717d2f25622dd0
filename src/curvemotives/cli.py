"""Command-line front end.

Subcommands: eval, equal, verify-theorem, identity, poincare, hodge,
decompose.  Results go to stdout (or --out PATH), diagnostics to stderr.
Exit codes: 0 success / all checks pass, 1 a checked statement is false,
2 usage or expression parse error, 3 evaluation error.

Output is deterministic: identical inputs produce byte-identical output
regardless of --jobs, because per-parameter work is fanned out to threads
over immutable values and reassembled in ascending parameter order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from . import dsl
from .core import MotiveClass, NonTateTensor
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
                        help="worker threads for per-parameter fan-out")


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


def _check_jobs(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        args.parser.error(f"--jobs must be >= 1, got {args.jobs}")
    return args.jobs


def _map_ordered(fn, items, jobs: int) -> list:
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _emit(payload: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(payload)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(payload)


def _json_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _csv_payload(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# --- eval -----------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    genus = _check_single_genus(args)
    motive = dsl.evaluate(dsl.parse(args.expr), genus)
    if args.format == "text":
        payload = str(motive) + "\n"
    elif args.format == "json":
        payload = motive.to_json() + "\n"
    else:
        rows = [
            (key.lambda_index, key.lefschetz_power, str(mult))
            for key, mult in motive.items()
        ]
        payload = _csv_payload(("lambda", "lefschetz", "mult"), rows)
    _emit(payload, args.out)
    return EXIT_OK


# --- equal ----------------------------------------------------------------

def _diff_terms(a: MotiveClass, b: MotiveClass) -> list:
    keys = sorted(set(dict(a.items())) | set(dict(b.items())))
    return [
        (key, a.multiplicity(key), b.multiplicity(key))
        for key in keys
        if a.multiplicity(key) != b.multiplicity(key)
    ]


def cmd_equal(args: argparse.Namespace) -> int:
    lo, hi = _resolve_genus_range(args)
    jobs = _check_jobs(args)
    left = dsl.parse(args.expr1)
    right = dsl.parse(args.expr2)

    def compare(genus: int):
        diff = _diff_terms(dsl.evaluate(left, genus), dsl.evaluate(right, genus))
        return genus, diff

    results = _map_ordered(compare, range(lo, hi + 1), jobs)
    all_equal = all(not diff for _, diff in results)

    if args.format == "text":
        if all_equal:
            payload = "EQUAL\n"
        else:
            lines = ["NOT EQUAL"]
            for genus, diff in results:
                if not diff:
                    lines.append(f"genus {genus}: equal")
                    continue
                lines.append(f"genus {genus}: differs")
                for key, m_left, m_right in diff:
                    lines.append(
                        f"  lambda={key.lambda_index} lefschetz={key.lefschetz_power}: "
                        f"left={m_left} right={m_right}"
                    )
            payload = "\n".join(lines) + "\n"
    elif args.format == "json":
        payload = _json_line({
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
        })
    else:
        rows = [(genus, str(not diff).lower()) for genus, diff in results]
        payload = _csv_payload(("genus", "equal"), rows)
    _emit(payload, args.out)
    return EXIT_OK if all_equal else EXIT_FALSE


# --- verify-theorem -------------------------------------------------------

_CHECK_NAMES = ("main_equality", "proof_chain", "atiyah_bott", "macdonald")


def _verify_genus(genus: int) -> tuple:
    """Run the four check categories at one genus.

    Returns (genus, {check: bool}, {check: first failing index}).
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

    return genus, checks, detail


def _first_failure(results) -> dict | None:
    for genus, checks, detail in results:
        for name in _CHECK_NAMES:
            if not checks[name]:
                return {"genus": genus, "check": name, "index": detail.get(name)}
    return None


def cmd_verify_theorem(args: argparse.Namespace) -> int:
    lo, hi = _resolve_genus_range(args)
    jobs = _check_jobs(args)
    results = _map_ordered(_verify_genus, range(lo, hi + 1), jobs)
    failure = _first_failure(results)

    if args.format == "text":
        lines = []
        for genus, checks, _ in results:
            status = " ".join(
                f"{name}={'pass' if checks[name] else 'fail'}" for name in _CHECK_NAMES
            )
            lines.append(f"g={genus}: {status}")
        if failure is None:
            lines.append(f"all checks passed for genus {lo}..{hi}")
        else:
            where = "" if failure["index"] is None else f" at index {failure['index']}"
            lines.append(
                f"FAILED: g={failure['genus']} check={failure['check']}{where}"
            )
        payload = "\n".join(lines) + "\n"
    elif args.format == "json":
        payload = _json_line({
            "genus_min": lo,
            "genus_max": hi,
            "results": [
                {
                    "genus": genus,
                    "checks": {
                        name: "pass" if checks[name] else "fail" for name in _CHECK_NAMES
                    },
                }
                for genus, checks, _ in results
            ],
            "all_pass": failure is None,
            "first_failure": failure,
        })
    else:
        rows = [
            (genus, name, "pass" if checks[name] else "fail")
            for genus, checks, _ in results
            for name in _CHECK_NAMES
        ]
        payload = _csv_payload(("genus", "check", "result"), rows)
    _emit(payload, args.out)
    return EXIT_OK if failure is None else EXIT_FALSE


# --- identity -------------------------------------------------------------

def cmd_identity(args: argparse.Namespace) -> int:
    if args.m_min < 1 or args.m_max < args.m_min:
        args.parser.error(
            f"m range must satisfy 1 <= min <= max, got {args.m_min}..{args.m_max}"
        )
    jobs = _check_jobs(args)

    def check(m: int):
        lhs, rhs = key_identity_sides(m)
        return m, lhs, rhs, lhs == rhs

    results = _map_ordered(check, range(args.m_min, args.m_max + 1), jobs)
    first_bad = next((m for m, _, _, ok in results if not ok), None)

    if args.format == "text":
        lines = []
        for m, lhs, rhs, ok in results:
            if ok:
                lines.append(f"m={m}: ok  both sides: {lhs}")
            else:
                lines.append(f"m={m}: FAIL  lhs: {lhs}  rhs: {rhs}")
        if first_bad is None:
            lines.append(f"identity holds for m={args.m_min}..{args.m_max}")
        else:
            lines.append(f"FAILED at m={first_bad}")
        payload = "\n".join(lines) + "\n"
    elif args.format == "json":
        payload = _json_line({
            "m_min": args.m_min,
            "m_max": args.m_max,
            "results": [
                {"m": m, "ok": ok, "lhs": str(lhs), "rhs": str(rhs)}
                for m, lhs, rhs, ok in results
            ],
            "all_pass": first_bad is None,
        })
    else:
        rows = [(m, str(ok).lower()) for m, _, _, ok in results]
        payload = _csv_payload(("m", "ok"), rows)
    _emit(payload, args.out)
    return EXIT_OK if first_bad is None else EXIT_FALSE


# --- poincare / hodge -----------------------------------------------------

def cmd_poincare(args: argparse.Namespace) -> int:
    genus = _check_single_genus(args)
    poly = poincare_polynomial(dsl.evaluate(dsl.parse(args.expr), genus))
    if args.format == "text":
        payload = str(poly) + "\n"
    elif args.format == "json":
        payload = _json_line({
            "variable": "t",
            "terms": [[degree, str(coeff)] for degree, coeff in poly.items()],
        })
    else:
        rows = [(degree, str(coeff)) for degree, coeff in poly.items()]
        payload = _csv_payload(("degree", "coeff"), rows)
    _emit(payload, args.out)
    return EXIT_OK


def cmd_hodge(args: argparse.Namespace) -> int:
    genus = _check_single_genus(args)
    poly = hodge_polynomial(dsl.evaluate(dsl.parse(args.expr), genus))
    if args.format == "text":
        payload = (render_hodge_diamond(poly) if args.diamond else str(poly)) + "\n"
    elif args.format == "json":
        obj = {
            "variables": ["u", "v"],
            "terms": [[p, q, str(coeff)] for (p, q), coeff in poly.items()],
        }
        if args.diamond:
            obj["diamond"] = [[str(v) for v in row] for row in hodge_diamond_rows(poly)]
        payload = _json_line(obj)
    else:
        rows = [(p, q, str(coeff)) for (p, q), coeff in poly.items()]
        payload = _csv_payload(("p", "q", "coeff"), rows)
    _emit(payload, args.out)
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
    jobs = _check_jobs(args)
    reports = _map_ordered(block_decomposition_report, range(lo, hi + 1), jobs)

    if args.format == "text":
        payload = "\n\n".join(_block_table(report) for report in reports) + "\n"
    elif args.format == "json":
        if lo == hi:
            payload = _json_line(reports[0].to_dict())
        else:
            payload = _json_line([report.to_dict() for report in reports])
    else:
        rows = [
            (report.genus, block.sym_power, block.twist, p, q, str(coeff))
            for report in reports
            for block in report.blocks
            for (p, q), coeff in block.hodge.items()
        ]
        payload = _csv_payload(("genus", "sym_power", "twist", "p", "q", "coeff"), rows)
    _emit(payload, args.out)
    return EXIT_OK


# --- entry ----------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except SystemExit as exc:  # parser.error inside a handler
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except dsl.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonTateTensor as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
