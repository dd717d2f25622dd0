"""Command-line front end.

Subcommands: eval, equal, verify-theorem, identity, poincare, hodge,
decompose.  Results go to stdout (or --out PATH), diagnostics to stderr.
Exit codes: 0 success / all checks pass, 1 a checked statement is false,
2 usage or expression parse error, 3 evaluation error or out of memory.

Output is deterministic: every command computes its results serially in
ascending parameter order, so identical inputs produce byte-identical
output.  --jobs is accepted and validated but changes nothing.  decompose
makes, renders and writes one genus at a time, so a range needs the memory
of its largest genus; a range that fails partway leaves the earlier genera
written, and --out is opened only when the first genus is rendered.
verify-theorem builds and checks one genus at a time and keeps only its
verdicts, so a sweep, like decompose, needs the memory of its largest genus.

Each subcommand is one row of ``_COMMANDS`` (name, help, handler, arguments),
from which ``build_parser`` makes its subparser.  ``main`` runs ``_check``, the
one holder of the numeric-option rules, before the handler, so handlers read
checked values and validate nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import dsl
from .core import MotiveClass
from .formulas import _conjectural, _delbano, _proof_chain, sym_power_curve
from .realization import (
    _realize_in_order,
    atiyah_bott_oracle,
    block_decomposition_report,
    hodge_diamond_rows,
    hodge_polynomial,
    key_identity_sides,
    macdonald_series,
    pair_table,
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


def _render(args: argparse.Namespace, results, text, json_text, header, csv_text,
            many=False) -> None:
    """Write ``results`` to stdout, or to ``--out PATH``, in ``--format``,
    one write per result as it is made.

    ``text`` maps a result to its text without the final newline,
    ``json_text`` to its compact JSON text and ``csv_text`` to the text of
    its CSV rows, each ending in a newline, under the CSV row ``header``;
    only the one for the requested format runs.  A command whose results
    are plain values passes ``_compact`` of a value and ``_csv_text`` of its
    rows; ``decompose`` passes the ``BlockReport`` renderers, which write
    the text straight from each report's terms.  ``many`` results
    print as texts joined by a blank line, one JSON list or one CSV table.
    ``results`` may be lazy: each is rendered, written and dropped before the
    next is made, and nothing is written, nor ``--out`` opened, before the
    first is rendered.
    """
    if args.format == "text":
        head, sep, tail, piece = "", "\n\n", "\n", text
    elif args.format == "json":
        head, sep, tail = ("[", ",", "]\n") if many else ("", "", "\n")
        piece = json_text
    else:
        head, sep, tail, piece = _csv_text((header,)), "", "", csv_text
    handle = None
    try:
        for index, chunk in enumerate(map(piece, results)):  # map keeps no result
            if handle is None:
                handle = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8")
            handle.write((sep if index else head) + chunk)
        handle.write(tail)
    finally:
        if handle is not None and args.out is not None:
            handle.close()


def _compact(value) -> str:
    """``value`` as compact JSON text."""
    return json.dumps(value, separators=(",", ":"))


def _csv_text(rows) -> str:
    """``rows`` as CSV lines; no field (an int, a decimal string, true, false
    or a name) needs quoting, so commas join them, as in ``BlockReport.to_csv``."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


# --- eval -----------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    motive = dsl.evaluate(dsl.parse(args.expr), args.genus)
    _render(
        args,
        (motive,),
        text=str,
        json_text=MotiveClass.to_json,
        header=("lambda", "lefschetz", "mult"),
        csv_text=lambda motive: _csv_text(
            (key.lambda_index, key.lefschetz_power, str(mult)) for key, mult in motive.items()
        ),
    )
    return EXIT_OK


# --- equal ----------------------------------------------------------------

def _diff_terms(a: MotiveClass, b: MotiveClass) -> list:
    if a == b:  # the common case, compared without listing terms
        return []
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
    left = dsl.parse(args.expr1)
    right = dsl.parse(args.expr2)
    results = [
        (genus, _diff_terms(dsl.evaluate(left, genus), dsl.evaluate(right, genus)))
        for genus in range(args.genus_min, args.genus_max + 1)
    ]
    all_equal = all(not diff for _, diff in results)
    _render(
        args,
        (results,),
        text=lambda results: "EQUAL" if all_equal else _not_equal_text(results),
        json_text=lambda results: _compact({
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
        }),
        header=("genus", "equal"),
        csv_text=lambda results: _csv_text(
            (genus, str(not diff).lower()) for genus, diff in results
        ),
    )
    return EXIT_OK if all_equal else EXIT_FALSE


# --- verify-theorem -------------------------------------------------------

def _verify_genus(genus: int) -> dict:
    """The four checks at one genus, in the order main_equality, proof_chain,
    atiyah_bott, macdonald, each mapped to "pass" or else to its first
    failing index (None for the two checks that have no index).  Both forms
    are built here, once, and not cached, so a sweep holds one genus; the
    symmetric-power form builds its own powers, apart from the ones the
    Macdonald check realizes, so a wrong Sym^n fails only that check."""
    delbano, conjectural = _delbano(genus), _conjectural(genus)
    series = macdonald_series(genus, 2 * genus)
    powers = _realize_in_order(sym_power_curve(n, genus) for n in range(2 * genus + 1))
    return {
        "main_equality": "pass" if delbano == conjectural else None,
        "proof_chain": next(
            (i for i in range(genus + 1) if not _proof_chain(delbano, conjectural, i)), "pass"
        ),
        "atiyah_bott": "pass" if atiyah_bott_oracle(genus) == poincare_polynomial(delbano) else None,
        "macdonald": next((n for n, power in enumerate(powers) if power != series[n]), "pass"),
    }


def _verify_text(results, failure, lo: int, hi: int) -> str:
    lines = [
        f"g={genus}: " + " ".join(f"{name}={verdict}" for name, verdict in checks.items())
        for genus, checks in results
    ]
    if failure is None:
        lines.append(f"all checks passed for genus {lo}..{hi}")
    else:
        where = "" if failure["index"] is None else f" at index {failure['index']}"
        lines.append(f"FAILED: g={failure['genus']} check={failure['check']}{where}")
    return "\n".join(lines)


def cmd_verify_theorem(args: argparse.Namespace) -> int:
    lo, hi = args.genus_min, args.genus_max
    outcomes = [(genus, _verify_genus(genus)) for genus in range(lo, hi + 1)]
    failure = next(
        ({"genus": genus, "check": name, "index": index}
         for genus, checks in outcomes for name, index in checks.items() if index != "pass"),
        None,
    )
    results = [
        (genus, {name: "pass" if index == "pass" else "fail" for name, index in checks.items()})
        for genus, checks in outcomes
    ]
    _render(
        args,
        (results,),
        text=lambda results: _verify_text(results, failure, lo, hi),
        json_text=lambda results: _compact({
            "genus_min": lo,
            "genus_max": hi,
            "results": [{"genus": genus, "checks": checks} for genus, checks in results],
            "all_pass": failure is None,
            "first_failure": failure,
        }),
        header=("genus", "check", "result"),
        csv_text=lambda results: _csv_text(
            (genus, name, verdict) for genus, checks in results for name, verdict in checks.items()
        ),
    )
    return EXIT_OK if failure is None else EXIT_FALSE


# --- identity -------------------------------------------------------------

def _identity_text(results, first_bad, m_min: int, m_max: int) -> str:
    lines = [
        f"m={m}: ok  both sides: {lhs:x}" if ok else f"m={m}: FAIL  lhs: {lhs:x}  rhs: {rhs:x}"
        for m, lhs, rhs, ok in results
    ]
    if first_bad is None:
        lines.append(f"identity holds for m={m_min}..{m_max}")
    else:
        lines.append(f"FAILED at m={first_bad}")
    return "\n".join(lines)


def cmd_identity(args: argparse.Namespace) -> int:
    sides = [(m, *key_identity_sides(m)) for m in range(args.m_min, args.m_max + 1)]
    results = [(m, lhs, rhs, lhs == rhs) for m, lhs, rhs in sides]
    first_bad = next((m for m, _, _, ok in results if not ok), None)
    _render(
        args,
        (results,),
        text=lambda results: _identity_text(results, first_bad, args.m_min, args.m_max),
        json_text=lambda results: _compact({
            "m_min": args.m_min,
            "m_max": args.m_max,
            "results": [
                {"m": m, "ok": ok, "lhs": f"{lhs:x}", "rhs": f"{rhs:x}"}
                for m, lhs, rhs, ok in results
            ],
            "all_pass": first_bad is None,
        }),
        header=("m", "ok"),
        csv_text=lambda results: _csv_text((m, str(ok).lower()) for m, _, _, ok in results),
    )
    return EXIT_OK if first_bad is None else EXIT_FALSE


# --- poincare / hodge -----------------------------------------------------

def cmd_poincare(args: argparse.Namespace) -> int:
    poly = poincare_polynomial(dsl.evaluate(dsl.parse(args.expr), args.genus))
    _render(
        args,
        (poly,),
        text=str,
        json_text=lambda poly: _compact({
            "variable": "t",
            "terms": [[degree, str(coeff)] for degree, coeff in poly.items()],
        }),
        header=("degree", "coeff"),
        csv_text=lambda poly: _csv_text((degree, str(coeff)) for degree, coeff in poly.items()),
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
    poly = hodge_polynomial(dsl.evaluate(dsl.parse(args.expr), args.genus))
    _render(
        args,
        (poly,),
        text=render_hodge_diamond if args.diamond else str,
        json_text=lambda poly: _compact(_hodge_obj(poly, args.diamond)),
        header=("p", "q", "coeff"),
        csv_text=lambda poly: _csv_text((p, q, str(coeff)) for (p, q), coeff in poly.items()),
    )
    return EXIT_OK


# --- decompose ------------------------------------------------------------

def cmd_decompose(args: argparse.Namespace) -> int:
    lo, hi = args.genus_min, args.genus_max
    # one pair table for the range, up to 3g - 3 for its largest genus g: the largest exponent
    pairs = pair_table(args.format, 3 * hi - 3)
    _render(
        args,
        (block_decomposition_report(genus) for genus in range(lo, hi + 1)),
        text=lambda report: report.to_text(pairs),
        json_text=lambda report: report.to_json(pairs),
        header=("genus", "sym_power", "twist", "p", "q", "coeff"),
        csv_text=lambda report: report.to_csv(pairs),
        many=lo != hi,
    )
    return EXIT_OK


# --- declaration and validation ------------------------------------------

def _arg(*flags, **options) -> tuple:
    """One argument, stated as its ``add_argument`` call would take it."""
    return flags, options


_GENUS = (_arg("--genus", type=int, required=True, help="curve genus (>= 2)"),)
_GENUS_RANGE = (
    _arg("--genus", type=int, default=None, help="single genus (>= 2)"),
    _arg("--genus-min", type=int, default=None, help=f"range start (default {DEFAULT_GENUS_MIN})"),
    _arg("--genus-max", type=int, default=None, help=f"range end (default {DEFAULT_GENUS_MAX})"),
)
_OUTPUT = (
    _arg("--format", choices=("text", "json", "csv"), default="text",
         help="output format (default: text)"),
    _arg("--json", dest="format", action="store_const", const="json",
         help="shorthand for --format json"),
    _arg("--out", metavar="PATH", default=None, help="write the result to PATH instead of stdout"),
)
_JOBS = (_arg("--jobs", type=int, default=1, metavar="N",
              help="accepted for compatibility (N >= 1); work runs serially"),)

# (name, help, handler, arguments) of each subcommand, in the order --help lists them
_COMMANDS = (
    ("eval", "evaluate an expression at one genus", cmd_eval,
     (_arg("expr", help="DSL expression, e.g. 'Sym(2) * (1 + L)'"), *_GENUS, *_OUTPUT)),
    ("equal", "compare two expressions over a genus range", cmd_equal,
     (_arg("expr1"), _arg("expr2"), *_GENUS_RANGE, *_OUTPUT, *_JOBS)),
    ("verify-theorem", "check the moduli decomposition, its proof chain and both oracles",
     cmd_verify_theorem, (*_GENUS_RANGE, *_OUTPUT, *_JOBS)),
    ("identity", "check the Lefschetz-power identity over an m range", cmd_identity,
     (_arg("--m-min", type=int, default=DEFAULT_M_MIN),
      _arg("--m-max", type=int, default=DEFAULT_M_MAX), *_OUTPUT, *_JOBS)),
    ("poincare", "Poincare polynomial of an expression", cmd_poincare,
     (_arg("expr"), *_GENUS, *_OUTPUT)),
    ("hodge", "Hodge polynomial (or diamond) of an expression", cmd_hodge,
     (_arg("expr"), _arg("--diamond", action="store_true", help="render the centered diamond layout"),
      *_GENUS, *_OUTPUT)),
    ("decompose", "per-block Hodge report of the moduli decomposition", cmd_decompose,
     (*_GENUS_RANGE, *_OUTPUT, *_JOBS)),
)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors print only ``<prog>: error: <message>``,
    one stderr line, and exit 2; ``--help`` still prints the usage."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curvemotives",
        description="Exact motive arithmetic for symmetric powers of a curve "
                    "and the rank-2 fixed-determinant moduli space.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command")  # main requires it, after parsing
    for name, help_text, handler, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=handler, parser=p)
    return parser


def _check(args: argparse.Namespace) -> None:
    """Apply every numeric-option rule of the subcommand, in this order: the
    genus or genus range, the m range, then --jobs.  A genus range is
    resolved in place, so a handler reads ``genus_min..genus_max``."""
    error = args.parser.error
    if "genus_min" in args:
        if args.genus is not None:
            if args.genus_min is not None or args.genus_max is not None:
                error("--genus cannot be combined with --genus-min/--genus-max")
            args.genus_min = args.genus_max = args.genus
        lo = DEFAULT_GENUS_MIN if args.genus_min is None else args.genus_min
        hi = DEFAULT_GENUS_MAX if args.genus_max is None else args.genus_max
        if lo < 2 or hi < lo:
            error(f"genus range must satisfy 2 <= min <= max, got {lo}..{hi}")
        args.genus_min, args.genus_max = lo, hi
    elif "genus" in args and args.genus < 2:
        error(f"--genus must be >= 2, got {args.genus}")
    if "m_min" in args and (args.m_min < 1 or args.m_max < args.m_min):
        error(f"m range must satisfy 1 <= min <= max, got {args.m_min}..{args.m_max}")
    if "jobs" in args and args.jobs < 1:
        error(f"--jobs must be >= 1, got {args.jobs}")


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
        if args.command is None:  # only now, so that an unknown option is named first
            _parser().error("the following arguments are required: command")
        _check(args)  # before the handler, so a bad number is reported before any parse error
        return args.func(args)
    except SystemExit as exc:  # argparse, also parser.error in _check
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except (dsl.ParseError, OSError) as exc:  # ParseError is a ValueError: caught first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:  # NonTateTensor is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except MemoryError:  # the work is unwound, so printing has room again
        print("error: out of memory", file=sys.stderr)
        return EXIT_EVAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
