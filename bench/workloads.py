"""The benchmark's three workloads: request streams, passes and output checks.

A pass issues every request of a workload in order through
``curvemotives.cli.main`` in this process: a closed loop with one client,
so each request starts when the previous one has returned.  Each pass
starts with the three ``lru_cache``s of ``curvemotives.formulas`` cleared,
so a pass stands for one fresh session.

Checks do not rest on the code under test alone:

* ``verify-sweep`` and ``decompose-render`` compare each request's stdout
  with a SHA-256 digest pinned in ``digests.json``;
* ``expr-mix`` checks invariants the benchmark computes itself, from the
  ``eval --json`` terms of each expression (see ``ExprMix.check``).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import re
import time
from dataclasses import dataclass
from math import comb
from pathlib import Path

from curvemotives import cli, formulas
from curvemotives import evaluate as _library_evaluate
from curvemotives import parse as _library_parse

BENCH_DIR = Path(__file__).resolve().parent

# The caches a pass starts without; held here so that a traced pass, which
# replaces the module attributes with wrappers, still clears the originals.
CACHES = (
    formulas.sym_power_curve,
    formulas.moduli_motive_delbano,
    formulas.moduli_motive_conjectural,
)


@dataclass(frozen=True)
class Request:
    argv: tuple
    expect: "Expect | None" = None  # expr-mix only


@dataclass
class Outcome:
    rc: int
    latency_s: float
    digest: str
    nbytes: int
    stdout: str | None  # kept only where the checks need it
    stderr: str


@dataclass
class PassResult:
    outcomes: list
    wall_s: float
    cpu_s: float


class _Sink:
    """Stand-in for stdout/stderr that keeps what a request writes."""

    def __init__(self):
        self._parts = []

    def write(self, text: str) -> int:
        self._parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def take(self) -> str:
        text = "".join(self._parts)
        self._parts = []
        return text


def run_pass(requests, keep_output: bool, tracer=None) -> PassResult:
    """Issue ``requests`` in order and return each one's exit code, latency
    and stdout digest.  ``wall_s`` covers issuing the requests, capturing
    and hashing their output; the checks run afterwards, untimed."""
    for cached in CACHES:
        cached.cache_clear()
    out, err = _Sink(), _Sink()
    outcomes = []
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cpu0 = time.process_time()
            wall0 = time.perf_counter()
            for index, request in enumerate(requests):
                if tracer is not None:
                    tracer.request = index
                start = time.perf_counter()
                rc = cli.main(list(request.argv))  # looked up per call, so a tracer sees it
                latency = time.perf_counter() - start
                data = out.take()
                encoded = data.encode("utf-8")
                outcomes.append(Outcome(
                    rc=rc,
                    latency_s=latency,
                    digest=hashlib.sha256(encoded).hexdigest(),
                    nbytes=len(encoded),
                    stdout=data if keep_output else None,
                    stderr=err.take(),
                ))
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return PassResult(outcomes, wall, cpu)


# --- workloads with pinned digests -----------------------------------------

def _argv_key(argv) -> str:
    return " ".join(argv)


class PinnedWorkload:
    """Fixed requests whose stdout must match digests recorded in
    ``digests.json``; the seed does not change the inputs."""

    keep_output = False

    def __init__(self, name: str, argvs):
        self.name = name
        self._requests = [Request(tuple(argv)) for argv in argvs]

    def requests(self, seed: int, index: int) -> list:
        return self._requests

    def check(self, requests, outcomes) -> list:
        pinned = json.loads((BENCH_DIR / "digests.json").read_text())[self.name]
        failures = []
        for request, outcome in zip(requests, outcomes):
            key = _argv_key(request.argv)
            if outcome.rc != 0 or outcome.stderr:
                failures.append(f"{key}: exit {outcome.rc}, stderr {outcome.stderr!r}")
            elif outcome.digest != pinned.get(key):
                failures.append(f"{key}: stdout digest {outcome.digest} is not the pinned one")
        return failures


VERIFY_SWEEP = PinnedWorkload("verify-sweep", [["verify-theorem", "--jobs", "1"]])

DECOMPOSE_RENDER = PinnedWorkload(
    "decompose-render",
    [[command, "--format", fmt, "--jobs", "2"]
     for command in ("decompose", "identity")
     for fmt in ("text", "json", "csv")],
)


# --- expr-mix ---------------------------------------------------------------
#
# Expressions are trees of ("atom", text, is_tate), ("+", left, right),
# ("*", left, right) and ("^", base, exponent).  No atom is the zero motive
# (lambda indices stay <= 4 < 2g + 1), so whether a subtree is Tate, and
# whether evaluating it tensors two lambda-classes, does not depend on genus.

GENUS_RANGE = (2, 30)
MAX_DEPTH = 3
MAX_POWER = 3
MAX_LAMBDA = 4
MAX_SYM = 6
EQUAL_SPAN = 2           # equal runs over genus g..g+EQUAL_SPAN at most
PARSE_ERROR_SHARE = 0.05
REQUESTS_PER_PASS = 1000
FORMATS = ("text", "json", "csv")

_TATE_ATOMS = ("1", "L", "L", "lam(0)", "Sym(0)")


def _atom(rng: random.Random):
    if rng.random() < 0.5:
        return ("atom", rng.choice(_TATE_ATOMS), True)
    kind = rng.randrange(6)
    text = ("h1", f"lam({rng.randint(1, MAX_LAMBDA)})", "C",
            f"Sym({rng.randint(1, MAX_SYM)})", "M", "Mconj")[kind]
    return ("atom", text, False)


def _tate_tree(rng: random.Random, depth: int):
    """A subtree built only from Tate atoms."""
    if depth == 0 or rng.random() < 0.5:
        return ("atom", rng.choice(_TATE_ATOMS), True)
    op = rng.choice("+*^")
    if op == "^":
        return ("^", _tate_tree(rng, depth - 1), rng.randint(0, MAX_POWER))
    return (op, _tate_tree(rng, depth - 1), _tate_tree(rng, depth - 1))


def _tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return _atom(rng)
    roll = rng.random()
    if roll < 0.45:
        return ("+", _tree(rng, depth - 1), _tree(rng, depth - 1))
    if roll < 0.85:
        # Mostly keep one side Tate, so that a minority of products
        # tensor two lambda-classes and exit 3.
        a = _tree(rng, depth - 1)
        b = _tate_tree(rng, depth - 1) if rng.random() < 0.85 else _tree(rng, depth - 1)
        return ("*", a, b) if rng.random() < 0.5 else ("*", b, a)
    base = _tate_tree(rng, depth - 1) if rng.random() < 0.8 else _tree(rng, depth - 1)
    return ("^", base, rng.randint(0, MAX_POWER))


def _text(node) -> str:
    kind = node[0]
    if kind == "atom":
        return node[1]
    if kind == "^":
        return f"{_wrapped(node[1])}^{node[2]}"
    return f"{_wrapped(node[1])} {kind} {_wrapped(node[2])}"


def _wrapped(node) -> str:
    return _text(node) if node[0] == "atom" else f"({_text(node)})"


def _tate_and_error(node) -> tuple:
    """(evaluates to a Tate motive, evaluation tensors two lambda-classes)."""
    kind = node[0]
    if kind == "atom":
        return node[2], False
    if kind == "^":
        tate, error = _tate_and_error(node[1])
        if node[2] == 0:
            return True, error
        if node[2] == 1:
            return tate, error
        return tate, error or not tate
    left_tate, left_error = _tate_and_error(node[1])
    right_tate, right_error = _tate_and_error(node[2])
    error = left_error or right_error or (kind == "*" and not left_tate and not right_tate)
    return left_tate and right_tate, error


def _commuted(node):
    return (node[0], node[2], node[1]) if node[0] in "+*" else node


def _moduli_swapped(node):
    kind = node[0]
    if kind == "atom":
        text = {"M": "Mconj", "Mconj": "M"}.get(node[1], node[1])
        return ("atom", text, node[2])
    if kind == "^":
        return ("^", _moduli_swapped(node[1]), node[2])
    return (kind, _moduli_swapped(node[1]), _moduli_swapped(node[2]))


def _corrupted(rng: random.Random, text: str) -> str:
    """A variant of ``text`` that the grammar rejects."""
    return rng.choice((
        f"{text} +",
        f"({text}",
        f"{text})",
        f"{text} * L^",
        f"X + {text}",
        f"{text} * 2",
    ))


@dataclass(frozen=True)
class Expect:
    command: str          # eval | poincare | hodge | equal
    exprs: tuple          # the expression texts as issued
    genera: tuple         # every genus the request evaluates at
    fmt: str
    diamond: bool
    rc: int               # exit code the generator predicts
    equal: bool = True    # equal only: whether the two sides agree


def expr_mix_requests(seed: int, index: int, count: int = REQUESTS_PER_PASS) -> list:
    """The seeded request stream of one expr-mix pass."""
    rng = random.Random(seed * 1_000_003 + index)
    return [_expr_request(rng) for _ in range(count)]


def _expr_request(rng: random.Random) -> Request:
    tree = _tree(rng, MAX_DEPTH)
    text = _text(tree)
    _, error = _tate_and_error(tree)
    rc = 3 if error else 0
    if rng.random() < PARSE_ERROR_SHARE:
        text, rc = _corrupted(rng, text), 2
    fmt = rng.choice(FORMATS)
    genus = rng.randint(*GENUS_RANGE)
    roll = rng.random()
    if roll < 0.3:
        argv = ("eval", text, "--genus", str(genus), "--format", fmt)
        return Request(argv, Expect("eval", (text,), (genus,), fmt, False, rc))
    if roll < 0.5:
        argv = ("poincare", text, "--genus", str(genus), "--format", fmt)
        return Request(argv, Expect("poincare", (text,), (genus,), fmt, False, rc))
    if roll < 0.75:
        diamond = rng.random() < 0.5
        argv = ("hodge", text, "--genus", str(genus), "--format", fmt)
        argv += ("--diamond",) if diamond else ()
        return Request(argv, Expect("hodge", (text,), (genus,), fmt, diamond, rc))
    hi = min(genus + rng.randint(0, EQUAL_SPAN), GENUS_RANGE[1])
    variant = rng.randrange(4)
    if rc == 2:
        other, equal = text, True
    elif variant == 0:
        other, equal = text, True
    elif variant == 1:
        other, equal = _text(_commuted(tree)), True
    elif variant == 2:
        other, equal = _text(_moduli_swapped(tree)), True
    else:
        other, equal = f"({text}) + 1", False
    if rc == 0 and not equal:
        rc = 1
    argv = ("equal", text, other, "--genus-min", str(genus), "--genus-max", str(hi),
            "--format", fmt)
    return Request(argv, Expect("equal", (text, other), tuple(range(genus, hi + 1)), fmt,
                                False, rc, equal))


# --- the benchmark's own realizations and output parsers --------------------

def _reference_terms(text: str, genus: int) -> dict:
    """{(lambda, lefschetz): mult} as ``eval --json`` prints them."""
    payload = json.loads(_library_evaluate(_library_parse(text), genus).to_json())
    return {(t["lambda"], t["lefschetz"]): int(t["mult"]) for t in payload["terms"]}


def _poincare_of(terms: dict, genus: int) -> dict:
    """lam(b)*L^c contributes C(2g, b) t^(b+2c)."""
    out: dict = {}
    for (b, c), mult in terms.items():
        out[b + 2 * c] = out.get(b + 2 * c, 0) + mult * comb(2 * genus, b)
    return {d: v for d, v in out.items() if v}


def _sum_of_terms(text: str, parse_term) -> dict:
    text = text.strip()
    out: dict = {}
    if text == "0":
        return out
    for piece in text.split(" + "):
        key, coeff = parse_term(piece)
        out[key] = out.get(key, 0) + coeff
    return out


def _split_coeff(piece: str) -> tuple:
    match = re.fullmatch(r"(\d*)(.*)", piece)
    digits, rest = match.groups()
    if not rest:
        return int(digits), ""
    return (int(digits) if digits else 1), rest


def _poincare_term(piece: str) -> tuple:
    coeff, rest = _split_coeff(piece)
    if not rest:
        return 0, coeff
    match = re.fullmatch(r"t(?:\^(\d+))?", rest)
    if match is None:
        raise ValueError(f"bad Poincare term {piece!r}")
    return int(match.group(1) or 1), coeff


def _hodge_term(piece: str) -> tuple:
    coeff, rest = _split_coeff(piece)
    exps = {"u": 0, "v": 0}
    if rest:
        for part in rest.split("*"):
            match = re.fullmatch(r"([uv])(?:\^(\d+))?", part)
            if match is None:
                raise ValueError(f"bad Hodge term {piece!r}")
            exps[match.group(1)] = int(match.group(2) or 1)
    return (exps["u"], exps["v"]), coeff


def _motive_term(piece: str) -> tuple:
    parts = piece.split("*")
    mult = 1
    if len(parts) > 1 and parts[0].isdigit():
        mult, parts = int(parts[0]), parts[1:]
    b = c = 0
    for part in parts:
        if part == "1":
            continue
        if part == "h1":
            b = 1
        elif (m := re.fullmatch(r"lam\((\d+)\)", part)):
            b = int(m.group(1))
        elif (m := re.fullmatch(r"L(?:\^(\d+))?", part)):
            c = int(m.group(1) or 1)
        else:
            raise ValueError(f"bad motive term {piece!r}")
    return (b, c), mult


def _csv_rows(text: str, header: tuple) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != header:
        raise ValueError(f"csv header {rows[:1]} is not {header}")
    return rows[1:]


def _parsed_motive(stdout: str, fmt: str) -> dict:
    if fmt == "json":
        payload = json.loads(stdout)
        return {(t["lambda"], t["lefschetz"]): int(t["mult"]) for t in payload["terms"]}
    if fmt == "csv":
        return {(int(b), int(c)): int(m)
                for b, c, m in _csv_rows(stdout, ("lambda", "lefschetz", "mult"))}
    return _sum_of_terms(stdout, _motive_term)


def _parsed_poincare(stdout: str, fmt: str) -> dict:
    if fmt == "json":
        payload = json.loads(stdout)
        if payload["variable"] != "t":
            raise ValueError("variable is not t")
        return {d: int(c) for d, c in payload["terms"]}
    if fmt == "csv":
        return {int(d): int(c) for d, c in _csv_rows(stdout, ("degree", "coeff"))}
    return _sum_of_terms(stdout, _poincare_term)


def _diagonal(hodge: dict) -> dict:
    """Specialise u = v = t: (p, q) goes to degree p + q."""
    out: dict = {}
    for (p, q), c in hodge.items():
        out[p + q] = out.get(p + q, 0) + c
    return {d: v for d, v in out.items() if v}


def _diamond_row_sums(rows) -> dict:
    return {d: sum(row) for d, row in enumerate(rows) if sum(row)}


def _hodge_checks(stdout: str, fmt: str, diamond: bool, poincare: dict) -> list:
    """What a hodge output must satisfy: its specialisation at u = v = t,
    and the row sums of its diamond, equal the Poincare polynomial."""
    problems = []
    if fmt == "json":
        payload = json.loads(stdout)
        terms = {(p, q): int(c) for p, q, c in payload["terms"]}
        if diamond:
            rows = [[int(v) for v in row] for row in payload["diamond"]]
            if _diamond_row_sums(rows) != poincare:
                problems.append("diamond rows do not sum to the Poincare polynomial")
    elif fmt == "csv":
        terms = {(int(p), int(q)): int(c) for p, q, c in _csv_rows(stdout, ("p", "q", "coeff"))}
    elif diamond:
        rows = [[int(v) for v in line.split()] for line in stdout.splitlines()]
        if _diamond_row_sums(rows) != poincare:
            problems.append("diamond rows do not sum to the Poincare polynomial")
        return problems
    else:
        terms = _sum_of_terms(stdout, _hodge_term)
    if _diagonal(terms) != poincare:
        problems.append("hodge at u=v=t is not the Poincare polynomial")
    return problems


def _equal_checks(stdout: str, expect: Expect, terms_at) -> list:
    genera = expect.genera
    if expect.fmt == "text":
        lines = stdout.splitlines()
        if expect.equal:
            return [] if stdout == "EQUAL\n" else [f"expected EQUAL, got {stdout[:80]!r}"]
        want = ["NOT EQUAL"]
        for genus in genera:
            m = terms_at(genus).get((0, 0), 0)
            want += [f"genus {genus}: differs",
                     f"  lambda=0 lefschetz=0: left={m} right={m + 1}"]
        return [] if lines == want else ["NOT EQUAL report differs from the expected diff"]
    if expect.fmt == "csv":
        rows = _csv_rows(stdout, ("genus", "equal"))
        want = [[str(g), str(expect.equal).lower()] for g in genera]
        return [] if rows == want else ["csv rows differ"]
    payload = json.loads(stdout)
    problems = []
    if payload["equal"] is not expect.equal:
        problems.append("json 'equal' is wrong")
    if [r["genus"] for r in payload["results"]] != list(genera):
        problems.append("json genera are wrong")
    for result in payload["results"]:
        diff = result["diff"]
        if expect.equal:
            ok = result["equal"] is True and diff == []
        else:
            m = terms_at(result["genus"]).get((0, 0), 0)
            ok = result["equal"] is False and diff == [
                {"lambda": 0, "lefschetz": 0, "left": str(m), "right": str(m + 1)}]
        if not ok:
            problems.append(f"json result for genus {result['genus']} is wrong")
    return problems


class ExprMix:
    """About 1000 short seeded requests per pass; see README.md."""

    name = "expr-mix"
    keep_output = True

    def requests(self, seed: int, index: int) -> list:
        return expr_mix_requests(seed, index)

    def check(self, requests, outcomes) -> list:
        references: dict = {}

        def terms_at(text, genus):
            key = (text, genus)
            if key not in references:
                references[key] = _reference_terms(text, genus)
            return references[key]

        failures = []
        for request, outcome in zip(requests, outcomes):
            problems = self._check_one(request.expect, outcome, terms_at)
            failures += [f"{_argv_key(request.argv)}: {p}" for p in problems]
        return failures

    @staticmethod
    def _check_one(expect: Expect, outcome: Outcome, terms_at) -> list:
        if outcome.rc != expect.rc:
            return [f"exit {outcome.rc}, predicted {expect.rc}"]
        if expect.rc in (2, 3):
            lines = outcome.stderr.splitlines()
            if outcome.stdout or len(lines) != 1 or not lines[0].startswith("error: "):
                return ["an error must print one 'error:' line on stderr and nothing on stdout"]
            return []
        if outcome.stderr:
            return [f"unexpected stderr {outcome.stderr!r}"]
        try:
            if expect.command == "equal":
                return _equal_checks(outcome.stdout, expect,
                                     lambda g: terms_at(expect.exprs[0], g))
            genus = expect.genera[0]
            terms = terms_at(expect.exprs[0], genus)
            if expect.command == "eval":
                same = _parsed_motive(outcome.stdout, expect.fmt) == terms
                return [] if same else ["eval terms differ from the eval --json terms"]
            poincare = _poincare_of(terms, genus)
            if expect.command == "poincare":
                same = _parsed_poincare(outcome.stdout, expect.fmt) == poincare
                return [] if same else ["poincare differs from the benchmark's realization"]
            return _hodge_checks(outcome.stdout, expect.fmt, expect.diamond, poincare)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"output does not parse: {exc}"]


EXPR_MIX = ExprMix()

WORKLOADS = {w.name: w for w in (VERIFY_SWEEP, EXPR_MIX, DECOMPOSE_RENDER)}
