"""Shared strategies, generators and independent oracles for the suite."""

from __future__ import annotations

import csv
import io
import json
import random
from collections import namedtuple
from itertools import accumulate
from math import comb

import hypothesis.strategies as st

from curvemotives import (
    HodgeBlock,
    MotiveClass,
    direct_sum,
    lefschetz,
    sym_power_curve,
    tensor,
    zero,
)
from curvemotives.dsl import (
    Curve,
    LambdaH1,
    Lefschetz,
    ModuliConjectural,
    ModuliDelBano,
    MotiveExpr,
    Power,
    Product,
    Sum,
    SymPower,
    Unit,
)
from curvemotives.polynomials import BiPolynomial, IntPolynomial


# --- hypothesis strategies --------------------------------------------------

def _terms(draw, genus: int, tate: bool, max_terms: int) -> dict:
    count = draw(st.integers(min_value=0, max_value=max_terms))
    terms: dict = {}
    for _ in range(count):
        b = 0 if tate else draw(st.integers(min_value=0, max_value=2 * genus))
        c = draw(st.integers(min_value=0, max_value=8))
        m = draw(st.integers(min_value=1, max_value=4))
        terms[(b, c)] = terms.get((b, c), 0) + m
    return terms


@st.composite
def motives(draw, genus: int | None = None, tate: bool = False, max_terms: int = 6):
    g = genus if genus is not None else draw(st.integers(min_value=2, max_value=5))
    return MotiveClass(g, _terms(draw, g, tate, max_terms))


@st.composite
def motive_pairs(draw, tate_second: bool = False):
    """Two motives at the same genus; optionally force the second Tate."""
    g = draw(st.integers(min_value=2, max_value=5))
    a = MotiveClass(g, _terms(draw, g, False, 6))
    b = MotiveClass(g, _terms(draw, g, tate_second, 6))
    return a, b


@st.composite
def motive_triples(draw, tate_last_two: bool = False):
    g = draw(st.integers(min_value=2, max_value=4))
    a = MotiveClass(g, _terms(draw, g, False, 5))
    b = MotiveClass(g, _terms(draw, g, tate_last_two, 5))
    c = MotiveClass(g, _terms(draw, g, tate_last_two, 5))
    return a, b, c


_ATOMS = st.one_of(
    st.just(Unit()),
    st.just(Lefschetz(1)),
    st.just(LambdaH1(1)),
    st.builds(LambdaH1, st.integers(min_value=0, max_value=9)),
    st.just(Curve()),
    st.builds(SymPower, st.integers(min_value=0, max_value=9)),
    st.just(ModuliDelBano()),
    st.just(ModuliConjectural()),
)

# parser-reachable trees: every atom is denotable by the grammar
expressions = st.recursive(
    _ATOMS,
    lambda children: st.one_of(
        st.builds(Sum, children, children),
        st.builds(Product, children, children),
        st.builds(Power, children, st.integers(min_value=0, max_value=5)),
    ),
    max_leaves=25,
)

int_polynomials = st.builds(
    IntPolynomial,
    st.dictionaries(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=-20, max_value=20),
        max_size=8,
    ),
)


# every node type, with Lefschetz powers other than 1 (printed L^p, which binds as a power)
printable_expressions = st.recursive(
    st.one_of(_ATOMS, st.builds(Lefschetz, st.integers(min_value=0, max_value=3))),
    lambda children: st.one_of(
        st.builds(Sum, children, children),
        st.builds(Product, children, children),
        st.builds(Power, children, st.integers(min_value=0, max_value=5)),
    ),
    max_leaves=25,
)


# --- deterministic tree generator (for the >= 1000 round-trip sweep) --------

def random_expression(rng: random.Random, depth: int = 4):
    """Seeded random parser-reachable tree."""
    if depth <= 0 or rng.random() < 0.35:
        choice = rng.randrange(8)
        if choice == 0:
            return Unit()
        if choice == 1:
            return Lefschetz(1)
        if choice == 2:
            return LambdaH1(1)
        if choice == 3:
            return LambdaH1(rng.randrange(10))
        if choice == 4:
            return Curve()
        if choice == 5:
            return SymPower(rng.randrange(10))
        if choice == 6:
            return ModuliDelBano()
        return ModuliConjectural()
    choice = rng.randrange(3)
    if choice == 0:
        return Sum(random_expression(rng, depth - 1), random_expression(rng, depth - 1))
    if choice == 1:
        return Product(random_expression(rng, depth - 1), random_expression(rng, depth - 1))
    return Power(random_expression(rng, depth - 1), rng.randrange(6))


# --- fixed malformed corpus: (source, expected 1-based byte offset) ----------

MALFORMED = [
    ("", 1),
    ("   ", 4),
    ("+", 1),
    ("1 +", 4),
    ("1 + + L", 5),
    ("L *", 4),
    ("L ^", 4),
    ("L^", 3),
    ("L^^2", 3),
    ("lam", 4),
    ("lam(", 5),
    ("lam(2", 6),
    ("lam 2)", 5),
    ("lam()", 5),
    ("Sym", 4),
    ("Sym()", 5),
    ("Sym(2) * (L + 1", 16),
    ("2", 1),
    ("12 + L", 1),
    ("1 2", 3),
    ("M Mconj", 3),
    ("foo", 1),
    ("h2", 1),
    ("()", 2),
    ("(1", 3),
    ("(1))", 4),
    ("1 & L", 3),
    ("h1*", 4),
    ("L^x", 3),
    ("(L^2^3)", 5),
    ("L^2^3", 4),
    ("(L)^2^3", 6),
    ("((L)", 5),
    ("1 + (2", 6),
    ("(1 2", 4),
    ("L)", 2),
    (")", 1),
    ("^2", 1),
    ("(L^)", 4),
    ("lam(2)^", 8),
    ("Sym(1)(", 7),
    ("(((", 4),
    ("L + (h1 * (M Mconj))", 14),
]


# --- mutated builders (checker sanity) ---------------------------------------

def mutated_conjectural(genus: int) -> MotiveClass:
    """Symmetric-power form with the dual twist 3g-3-2k bumped to 3g-2-2k."""
    total = zero(genus)
    for k in range(0, genus - 1):
        twists = direct_sum(lefschetz(genus, k), lefschetz(genus, 3 * genus - 2 - 2 * k))
        total = direct_sum(total, tensor(sym_power_curve(k, genus), twists))
    last = tensor(sym_power_curve(genus - 1, genus), lefschetz(genus, genus - 1))
    return direct_sum(total, last)


ALTERATIONS = ("gain", "lose", "mult")


def altered_rows(motive: MotiveClass, kind: str) -> list:
    """The lambda indices b at which ``altered_motive`` can apply ``kind``:
    every row, and for ``gain`` also the first index above them (if <= 2g)."""
    rows = [b for b, _ in motive.rows()]
    if kind == "gain":
        above = rows[-1] + 1 if rows else 0
        rows += [above] if above <= 2 * motive.genus else []
    return rows


def altered_motive(motive: MotiveClass, b: int, kind: str) -> MotiveClass:
    """``motive`` with its row at lambda index b changed by one term.
    ``gain`` adds L^(c+1) above the row's highest power c (L^0 to an empty
    row), which for Sym^n is the term that Sym^(n+1) adds to that row;
    ``lose`` drops the highest power, so a one-term row vanishes;
    ``mult`` adds 1 to the multiplicity of the lowest power."""
    terms = dict(motive.items())
    powers = sorted(c for i, c in terms if i == b)
    if kind == "gain":
        terms[(b, powers[-1] + 1 if powers else 0)] = 1
    elif kind == "lose":
        del terms[(b, powers[-1])]
    else:
        terms[(b, powers[0])] += 1
    return MotiveClass(motive.genus, terms)


def mutated_identity_lhs(m: int) -> IntPolynomial:
    """Left side of the key identity with x^(3m-2j+c) bumped by one.  Each
    sum over c is a run of exponents, counted by marking its two ends."""
    runs = [(m, 2 * m)]
    for j in range(0, m):
        runs += [(j, 2 * j), (3 * m - 2 * j + 1, 3 * m - j + 1)]
    marks = [0] * (3 * m + 3)
    for low, high in runs:
        marks[low] += 1
        marks[high + 1] -= 1
    return IntPolynomial(enumerate(accumulate(marks)))


# --- independent termwise oracle for the reindexed bracket --------------------

def termwise_bracket(m: int) -> dict:
    """Exponent -> count of sum_{j<m} sum_{c<=j} (x^(j+c) + x^(3m-2j+c))
    + sum_{c<=m} x^(m+c), adding one term at a time (empty for m < 0)."""
    counts: dict = {}
    for j in range(m):
        for c in range(j + 1):
            for e in (j + c, 3 * m - 2 * j + c):
                counts[e] = counts.get(e, 0) + 1
    for c in range(m + 1):
        counts[m + c] = counts.get(m + c, 0) + 1
    return counts


# --- independent enumeration oracle for symmetric powers ---------------------

def brute_force_sym_terms(n: int, genus: int) -> dict:
    """Term map of the n-th symmetric power by enumerating all triples
    a + b + c = n and dropping the vanishing b > 2g classes."""
    terms: dict = {}
    for a in range(n + 1):
        for b in range(n - a + 1):
            c = n - a - b
            if b > 2 * genus:
                continue
            terms[(b, c)] = terms.get((b, c), 0) + 1
    return terms


# --- independent expansion oracle for the Macdonald series -------------------

def truncated_macdonald(n: int, genus: int) -> IntPolynomial:
    """Coefficient of x^n in (1+tx)^2g / ((1-x)(1-t^2 x)), by expanding the
    three factors as power series in x truncated at order n and convolving
    them; no recurrence and no motive algebra."""
    binomial_factor = [
        IntPolynomial.monomial(a, comb(2 * genus, a)) if a <= 2 * genus else IntPolynomial.zero()
        for a in range(n + 1)
    ]
    geometric_ones = [IntPolynomial.one() for _ in range(n + 1)]
    geometric_t2 = [IntPolynomial.monomial(2 * k) for k in range(n + 1)]
    series = _convolve_truncated(binomial_factor, geometric_ones, n)
    series = _convolve_truncated(series, geometric_t2, n)
    return series[n]


def _convolve_truncated(a: list, b: list, order: int) -> list:
    out = []
    for i in range(order + 1):
        acc: dict = {}
        for j in range(i + 1):
            for e1, c1 in a[j].items():
                for e2, c2 in b[i - j].items():
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        out.append(IntPolynomial({e: c for e, c in acc.items() if c}))
    return out


# --- generic-product reference for the Atiyah-Bott oracle ----------------------

def reference_atiyah_bott(genus: int) -> IntPolynomial:
    """((1+t^3)^2g - t^2g (1+t)^2g) / ((1-t^2)(1-t^4)) with every factor
    formed by IntPolynomial powers and products, then divided by ``divmod``;
    the remainder must be zero."""
    t = IntPolynomial.monomial(1)
    one = IntPolynomial.one()
    numerator = (one + t**3) ** (2 * genus) - t ** (2 * genus) * (one + t) ** (2 * genus)
    quotient, remainder = divmod(numerator, (one - t**2) * (one - t**4))
    assert remainder.is_zero
    return quotient


# --- independent Hodge-level oracles (BiPolynomial and math.comb only) ---------

def _binomial_power(genus: int, du: int, dv: int) -> BiPolynomial:
    """(1 + u^du v^dv)^g by the binomial theorem."""
    return BiPolynomial({(du * a, dv * a): comb(genus, a) for a in range(genus + 1)})


# (1 - uv)(1 - u^2 v^2), the denominator of the Hodge form of Atiyah-Bott
ATIYAH_BOTT_HODGE_DENOMINATOR = BiPolynomial({(0, 0): 1, (1, 1): -1}) * BiPolynomial(
    {(0, 0): 1, (2, 2): -1}
)


def atiyah_bott_hodge_numerator(genus: int) -> BiPolynomial:
    """(1+u^2 v)^g (1+u v^2)^g - (uv)^g (1+u)^g (1+v)^g: the Hodge polynomial of
    the moduli space times (1 - uv)(1 - u^2 v^2) (del Bano; Earl-Kirwan)."""
    first = _binomial_power(genus, 2, 1) * _binomial_power(genus, 1, 2)
    second = BiPolynomial.monomial(genus, genus, -1) * _binomial_power(genus, 1, 0)
    return first + second * _binomial_power(genus, 0, 1)


def hodge_macdonald_series(genus: int, n_max: int) -> list:
    """f_0..f_n_max, the coefficients of x^n in (1+ux)^g (1+vx)^g / ((1-x)(1-uvx)):
    f_n = (1+uv) f_{n-1} - uv f_{n-2} + sum_{p+q=n} C(g,p) C(g,q) u^p v^q."""
    one_plus_uv = BiPolynomial({(0, 0): 1, (1, 1): 1})
    minus_uv = BiPolynomial.monomial(1, 1, -1)
    series: list = []
    for n in range(n_max + 1):
        f = BiPolynomial({(p, n - p): comb(genus, p) * comb(genus, n - p) for p in range(n + 1)})
        if n >= 1:
            f = f + one_plus_uv * series[n - 1]
        if n >= 2:
            f = f + minus_uv * series[n - 2]
        series.append(f)
    return series


# --- plain reference realizations, straight from the README formulas ----------

def reference_poincare(motive: MotiveClass) -> IntPolynomial:
    """lam(b)*L^c contributes C(2g, b) t^(b+2c); built by the validating
    constructor, which drops any zero coefficient."""
    g = motive.genus
    return IntPolynomial(
        [(b + 2 * c, mult * comb(2 * g, b)) for (b, c), mult in motive.items()]
    )


def reference_hodge(motive: MotiveClass) -> BiPolynomial:
    """lam(b)*L^c contributes (sum_{p+q=b} C(g,p) C(g,q) u^p v^q) (uv)^c, with
    p over all of 0..b (the terms with p or q above g are zero)."""
    g = motive.genus
    return BiPolynomial(
        [
            ((p + c, b - p + c), mult * comb(g, p) * comb(g, b - p))
            for (b, c), mult in motive.items()
            for p in range(b + 1)
        ]
    )


def reference_tensor(a: MotiveClass, b: MotiveClass) -> MotiveClass:
    """Bilinear expansion (b, c) (x) (b', c') = (b + b', c + c') over every pair
    of terms, through the validating constructor, which drops b + b' > 2g."""
    terms: dict = {}
    for (b1, c1), m1 in a.items():
        for (b2, c2), m2 in b.items():
            key = (b1 + b2, c1 + c2)
            terms[key] = terms.get(key, 0) + m1 * m2
    return MotiveClass(a.genus, terms)


# --- reference block reports and their three renderings ------------------------

ReferenceReport = namedtuple("ReferenceReport", "genus blocks total")


def reference_block_report(genus: int, realize) -> ReferenceReport:
    """A block report built term by term: the blocks (k, t, realize(k) (uv)^t)
    for twists t = k and 3g-3-2k at k = 0..g-2, then t = g-1 at k = g-1, each
    twisted polynomial formed by BiPolynomial multiplication, and their sum
    by BiPolynomial addition."""
    table = [(k, t) for k in range(genus - 1) for t in (k, 3 * genus - 3 - 2 * k)]
    table.append((genus - 1, genus - 1))
    blocks = [
        HodgeBlock(k, t, realize(k) * BiPolynomial.monomial(t, t)) for k, t in table
    ]
    total = BiPolynomial.zero()
    for block in blocks:
        total = total + block.hodge
    return ReferenceReport(genus, blocks, total)


def reference_block_text(report) -> str:
    """The text table of a block report, each polynomial by
    :func:`reference_bi_str`: a ``genus g: n blocks`` line, a header, one
    line per block and a total line, the label column as wide as its widest
    entry and the twist column as wide as ``twist`` or its widest twist."""
    labels = [f"Sym({block.sym_power})*L^{block.twist}" for block in report.blocks]
    label_width = max(len(label) for label in labels + ["total"])
    twist_width = max(len(str(twist)) for twist in [b.twist for b in report.blocks] + ["twist"])
    lines = [
        f"genus {report.genus}: {len(report.blocks)} blocks",
        "  " + "block".ljust(label_width) + "  " + "twist".rjust(twist_width) + "  hodge",
    ]
    for label, block in zip(labels, report.blocks):
        lines.append("  " + label.ljust(label_width) + "  " + str(block.twist).rjust(twist_width)
                     + "  " + reference_bi_str(block.hodge))
    lines.append("  " + "total".ljust(label_width) + "  " + " " * twist_width
                 + "  " + reference_bi_str(report.total))
    return "\n".join(lines)


def reference_block_json(report) -> str:
    """:func:`reference_block_report_dict` as compact JSON by ``json.dumps``."""
    return json.dumps(reference_block_report_dict(report), separators=(",", ":"))


def reference_block_csv(report) -> str:
    """The CSV rows of a block report through ``csv.writer``: genus,
    sym_power, twist, p, q, coeff per term of each block, in ``items()``
    order, and no total."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(
        (report.genus, block.sym_power, block.twist, p, q, str(c))
        for block in report.blocks
        for (p, q), c in block.hodge.items()
    )
    return buffer.getvalue()


def reference_block_report_dict(report) -> dict:
    """The value of a ``BlockReport``'s JSON, built as a tree of dicts and lists:
    per block its sym_power, twist and ``[p, q, "c"]`` Hodge terms, then the
    total's terms, each polynomial's terms in ``items()`` order."""
    def triples(poly):
        return [[p, q, str(c)] for (p, q), c in poly.items()]

    return {
        "genus": report.genus,
        "blocks": [
            {"sym_power": block.sym_power, "twist": block.twist, "hodge": triples(block.hodge)}
            for block in report.blocks
        ],
        "total": triples(report.total),
    }


# --- schoolbook reference for the polynomial product ---------------------------

def reference_int_product(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """a * b by the schoolbook double loop: one multiply-add for each pair of
    terms, whatever the exponents."""
    coeffs: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            coeffs[e1 + e2] = coeffs.get(e1 + e2, 0) + c1 * c2
    return IntPolynomial(coeffs)


# --- reference polynomial printers --------------------------------------------

def reference_int_str(poly: IntPolynomial, var: str = "t") -> str:
    """'1 - t^2 + 4t^3' in the variable ``var``: ascending exponent, a unit
    coefficient left out before a variable, the sign of the first term
    written without a space."""
    pieces = []
    for e, c in poly.items():
        magnitude = abs(c)
        if e == 0:
            body = str(magnitude)
        else:
            head = "" if magnitude == 1 else str(magnitude)
            body = head + (var if e == 1 else f"{var}^{e}")
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(pieces) or "0"


def reference_bi_str(poly: BiPolynomial) -> str:
    """'1 + 2u + 2v + u*v': ascending total degree and descending u-power
    within a degree, otherwise as :func:`reference_int_str`."""
    pieces = []
    for (p, q), c in sorted(poly.items(), key=lambda item: (sum(item[0]), item[0][1])):
        vars_part = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in (("u", p), ("v", q)) if e > 0
        )
        magnitude = abs(c)
        if not vars_part:
            body = str(magnitude)
        else:
            body = ("" if magnitude == 1 else str(magnitude)) + vars_part
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(pieces) or "0"


# --- recursive reference printers for expression trees -------------------------

def _reference_rank(expr) -> int:
    """1 sum, 2 product, 3 power (L^p with p != 1 included), 4 atom."""
    if isinstance(expr, Lefschetz):
        return 4 if expr[0] == 1 else 3
    return {Sum: 1, Product: 2, Power: 3}.get(type(expr), 4)


def reference_print(expr) -> str:
    """Canonical text by recursion: an operand is parenthesized when it binds
    less tightly than its place needs; the operators associate to the left."""

    def operand(node, rank: int) -> str:
        text = reference_print(node)
        return text if _reference_rank(node) >= rank else f"({text})"

    if isinstance(expr, Sum):
        return f"{reference_print(expr[0])} + {operand(expr[1], 2)}"
    if isinstance(expr, Product):
        return f"{operand(expr[0], 2)} * {operand(expr[1], 3)}"
    if isinstance(expr, Power):
        return f"{operand(expr[0], 4)}^{expr[1]}"
    if isinstance(expr, Lefschetz):
        return "L" if expr[0] == 1 else f"L^{expr[0]}"
    if isinstance(expr, LambdaH1):
        return "h1" if expr[0] == 1 else f"lam({expr[0]})"
    if isinstance(expr, SymPower):
        return f"Sym({expr[0]})"
    return {Unit: "1", Curve: "C", ModuliDelBano: "M", ModuliConjectural: "Mconj"}[type(expr)]


def reference_repr(expr) -> str:
    """``Type(field, ...)`` by recursion, a child node by its own reference repr."""
    fields = [reference_repr(f) if isinstance(f, MotiveExpr) else repr(f) for f in expr]
    return f"{type(expr).__name__}({', '.join(fields)})"
