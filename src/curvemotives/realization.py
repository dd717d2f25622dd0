"""Exact realizations of motives and independent literature cross-checks.

The Betti realization sends lam^b h1 (x) L^c to C(2g, b) t^(b+2c); the
Hodge realization sends it to (sum_{p+q=b} C(g,p) C(g,q) u^p v^q) (uv)^c.
Both are additive in the motive and multiplicative where the tensor
product is defined.

Additivity lets ``_realize_in_order`` realize a sequence of motives of one
genus, such as Sym^0, Sym^1, ..., as a running sum, by one rule: a motive
that only grew from the one before, each old row again with exactly one
new term, inserted last, is the previous result plus the new terms, and
any other is realized afresh.  It reads every term to tell them apart,
instead of trusting how the motives were built, so a wrong term in any one
motive still changes that motive's result.  ``decompose`` and the Macdonald
check of ``verify-theorem`` use it, and ``poincare_polynomial`` and
``hodge_polynomial`` are its runs over one motive, so the kernel, through
one adder per realization (``_betti_rows``, ``_hodge_rows``), is the only
code that turns motive terms into polynomial terms.

Two oracles that never touch the motive algebra validate the theorem-level
constructors, and both work on coefficients and binomials: the Atiyah-Bott
closed form for the Poincare polynomial of the moduli space, whose
numerator is expanded by the binomial theorem and divided exactly (zero
remainder required), and Macdonald's generating function for symmetric
powers of the curve (Macdonald, Topology 1, 1962), expanded by the
three-term recurrence that its denominator gives, as shift-and-add on
dense coefficient lists.  Agreement with the realized motives is evidence,
not tautology.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cache
from itertools import compress
from math import comb
from operator import add
from typing import Iterable, Iterator

from .core import MotiveClass, _check_genus
from .formulas import _blocks, _bracket, sym_power_curve
from .polynomials import BiPolynomial, IntPolynomial


def poincare_polynomial(motive: MotiveClass) -> IntPolynomial:
    """Betti realization: sum of C(2g, b) t^(b+2c) over the term map."""
    return next(_realize_in_order((motive,)))


def hodge_polynomial(motive: MotiveClass) -> BiPolynomial:
    """Hodge realization; coefficients are the Hodge numbers h^{p,q}."""
    return next(_realize_in_order((motive,), hodge=True))


def _betti_rows(genus: int):
    """``add(coeffs, b, terms)`` for the Betti realization: adds that of
    sum mult lam^b h1 (x) L^c over the (c, mult) pairs of ``terms``.  The
    kernel only adds, and every multiplicity and weight is positive (as
    b <= 2g), so no coefficient reaches 0."""
    def add(coeffs: dict, b: int, terms) -> None:
        weight = comb(2 * genus, b)
        get = coeffs.get
        for c, mult in terms:
            e = b + 2 * c
            coeffs[e] = get(e, 0) + mult * weight
    return add


def _hodge_rows(genus: int):
    """``add(coeffs, b, terms)`` as in ``_betti_rows``, for the Hodge
    realization; the weights of each b are worked out once per adder."""
    forms: dict = {}

    def add(coeffs: dict, b: int, terms) -> None:
        form = forms.get(b)
        if form is None:  # only the nonzero weights
            form = forms[b] = [(p, b - p, comb(genus, p) * comb(genus, b - p))
                               for p in range(max(0, b - genus), min(b, genus) + 1)]
        get = coeffs.get
        for p, q, weight in form:
            for c, mult in terms:
                pq = (p + c, q + c)
                coeffs[pq] = get(pq, 0) + mult * weight
    return add


def _realize_in_order(motives: Iterable, hodge: bool = False) -> Iterator:
    """The Poincare polynomial, or with ``hodge`` the Hodge polynomial, of
    each motive of ``motives``, all of one genus, in order: a motive in
    which every row of the one before is found again with exactly one new
    term, inserted last, and any other row is new, is the previous result
    plus the new terms; any other is realized afresh, through the same
    adder.  From Sym^(n-1) to Sym^n each row gains one term, so such a step
    realizes one term per row.  ``motives`` is read lazily and only the
    previous motive's rows are held.
    """
    coeffs: dict = {}
    before: dict = {}
    add = None
    for motive in motives:
        if add is None:
            add = (_hodge_rows if hodge else _betti_rows)(motive.genus)
        now = dict(motive.rows())
        gained = dict(now)  # row b -> the terms to add
        for b, old in before.items():
            row = now.get(b, ())  # a vanished row has one term too few
            if len(row) != len(old) + 1 or not old <= row or (last := next(reversed(row))) in old:
                coeffs, gained = {}, now  # afresh
                break
            gained[b] = (last,)
        else:
            coeffs = dict(coeffs)  # the previous result owns its dict
        for b, terms in gained.items():
            add(coeffs, b, terms)
        before = now
        yield BiPolynomial._raw(coeffs) if hodge else IntPolynomial._raw(coeffs)


def key_identity_sides(m: int) -> tuple:
    """Both sides of the closing Lefschetz-power identity, as polynomials in x.

    Left side, the proof chain's reindexed bracket ``formulas._bracket(m)``,
    built from runs of consecutive exponents with no division:

        sum_{j=0..m-1} sum_{c=0..j} (x^(j+c) + x^(3m-2j+c)) + sum_{c=0..m} x^(m+c)

    Right side as the product of two finite geometric sums,
    (1 + x + ... + x^m)(1 + x^2 + ... + x^2m), which is the divided form
    of (1-x^(m+1))/(1-x) * (1-x^(2m+2))/(1-x^2), formed by the generic product.
    """
    if m < 1:
        raise ValueError(f"the identity is stated for m >= 1, got {m}")
    lhs = IntPolynomial._raw(_bracket(m))
    rhs = IntPolynomial.geometric(m) * IntPolynomial.geometric(2 * m, step=2)
    return lhs, rhs


def verify_key_identity(m: int) -> bool:
    """Exact equality of the two sides of the identity, for m >= 1."""
    lhs, rhs = key_identity_sides(m)
    return lhs == rhs


def atiyah_bott_oracle(genus: int) -> IntPolynomial:
    """Poincare polynomial of the moduli space from the classical closed form

        ((1+t^3)^2g - t^2g (1+t)^2g) / ((1-t^2)(1-t^4)).

    The numerator is expanded by the binomial theorem, as
    sum_i C(2g, i) t^(3i) - sum_i C(2g, i) t^(2g+i), and divided exactly by
    the expanded denominator 1 - t^2 - t^4 + t^6.  A nonzero remainder would
    mean a transcription bug: ArithmeticError names its lowest-degree term.
    """
    _check_genus(genus)
    top = 2 * genus
    cubes = IntPolynomial._raw({3 * i: comb(top, i) for i in range(top + 1)})
    shifted = IntPolynomial._raw({top + i: comb(top, i) for i in range(top + 1)})
    denominator = IntPolynomial._raw({0: 1, 2: -1, 4: -1, 6: 1})
    quotient, remainder = divmod(cubes - shifted, denominator)
    if not remainder.is_zero:
        degree, coeff = remainder.items()[0]
        raise ArithmeticError(
            f"division left a remainder at genus {genus}: lowest term {coeff} in degree {degree}"
        )
    return quotient


def macdonald_series(genus: int, order: int) -> list:
    """Coefficients f_0..f_order of x^n in (1+tx)^2g / ((1-x)(1-t^2 x)).

    Macdonald's generating function for the Poincare polynomials of the
    symmetric powers of a genus-g curve (I. G. Macdonald, "Symmetric
    products of an algebraic curve", Topology 1, 1962).  Multiplying the
    series through by its denominator 1 - (1+t^2) x + t^2 x^2 gives the
    three-term recurrence

        f_n = (1+t^2) f_(n-1) - t^2 f_(n-2) + C(2g, n) t^n,

    with f_(-1) = 0 and C(2g, n) = 0 for n > 2g (``math.comb`` returns 0
    there), so one pass yields the whole prefix.  Each f_n is a dense list
    of its coefficients in degrees 0..2n, made by shift-and-add from the
    two before it; only binomials are used, never the motive algebra.
    Raises ValueError for a genus below 2 or an order below 0.
    """
    _check_genus(genus)
    if order < 0:
        raise ValueError(f"symmetric power must be >= 0, got {order}")
    top = 2 * genus
    pad = [0, 0]
    prev2: list = []
    prev = [1]  # f_0
    series = [IntPolynomial._raw({0: 1})]
    for n in range(1, order + 1):
        # f_(n-1), t^2 f_(n-1) and t^2 f_(n-2) in degrees 0..2n; zip stops at 2n
        current = [a + b - c for a, b, c in zip(prev + pad, pad + prev, pad + prev2 + pad)]
        current[n] += comb(top, n)
        # every coefficient of degree 0..2n is positive (C(2g, 1) t reaches
        # the odd degrees), so the dict is zero-free
        series.append(IntPolynomial._raw(dict(enumerate(current))))
        prev2, prev = prev, current
    return series


def macdonald_oracle(n: int, genus: int) -> IntPolynomial:
    """Coefficient of x^n in the series (1+tx)^2g / ((1-x)(1-t^2 x)),
    i.e. ``macdonald_series(genus, n)[n]``."""
    return macdonald_series(genus, n)[n]


class HodgeBlock(namedtuple("HodgeBlock", "sym_power twist hodge")):
    """One summand of the symmetric-power decomposition, realized in (u, v)."""

    @property
    def label(self) -> str:
        return f"Sym({self.sym_power})*L^{self.twist}"


def _monomial(p: int, q: int) -> str:
    """'u^p*v^q' as ``BiPolynomial`` prints it: a unit exponent and a zero
    power left out, '' for (0, 0)."""
    u = "" if not p else "u" if p == 1 else f"u^{p}"
    v = "" if not q else "v" if q == 1 else f"v^{q}"
    return f"{u}*{v}" if p and q else u + v


# per format: how it prints an exponent pair and a coefficient, and how it
# makes the terms from the picked pair strings and the coefficient strings
_FORMS = {
    "text": (_monomial, lambda c: "" if c == 1 else str(c),  # a unit coefficient is not printed
             lambda pairs, coeffs: map(add, coeffs, pairs)),
    "json": ('[{},{},"'.format, '{}"]'.format, lambda pairs, coeffs: map(add, pairs, coeffs)),
    "csv": ("{},{},".format, str, lambda pairs, coeffs: map(add, pairs, coeffs)),
}


def pair_table(form: str, top: int) -> tuple:
    """``(width, step, strings)`` for rendering block reports in ``form``
    ("text", "json" or "csv") with no exponent above ``top``: the string of
    every exponent pair (p, q) with p, q < width = top + 1, at index
    p*width + q*step.  The step is 1 for json and csv, so the index is
    p*width + q, and width + 1 for text, so it is (p + q)*width + q; either
    way index order is the order the format prints terms in, and twisting
    by L^t moves every index by t*(width + step).  No exponent of a report
    of genus g exceeds 3g - 3."""
    width = top + 1
    step = width + 1 if form == "text" else 1
    pair = _FORMS[form][0]
    strings = [""] * (top * (width + step) + 1)
    for p in range(width):  # the indices p*width + q*step of q = 0..top
        strings[p * width:p * width + top * step + 1:step] = [pair(p, q) for q in range(width)]
    return width, step, strings


class BlockReport:
    """The symmetric-power decomposition of h(M_L) at one genus, realized in
    (u, v).  ``powers`` holds each h(C^(k)) once, as ``(k, twists, hodge)``:
    its Hodge polynomial and the twists t of its blocks h(C^(k)) (x) L^t.

    ``blocks`` and ``total`` read ``powers`` directly, shifting each pair.
    ``to_text``, ``to_json`` and ``to_csv`` join the strings of one
    generator, ``_rendered``, which yields the terms of each block and then
    of the total in one format of ``_FORMS``.  It takes a ``pair_table`` of
    its format that covers the report's exponents, which a caller rendering
    many genera makes once, for the largest; by default it makes the
    report's own.  Twisting shifts every pair by (t, t), which moves its
    table index by the twist's offset and keeps the order the format prints
    in, so each power's indices are sorted once, and every block's terms are
    the table's strings at them moved by the offset, joined with coefficient
    strings made once per power: the work per term of a block is done in C.
    The Hodge numbers of a genus repeat (genus 2..30 has 2,389 distinct ones
    among 76,879 terms of its powers), so a coefficient's string is made
    once per call.  Only one power's strings are held at a time.  Every
    Hodge number is positive, so no term prints a sign.
    """

    __slots__ = ("genus", "powers")

    def __init__(self, genus: int, powers: tuple):
        self.genus = genus
        self.powers = powers

    @property
    def blocks(self) -> tuple:
        """The ``HodgeBlock`` of every (k, twist), in the order of ``powers``."""
        return tuple(HodgeBlock(k, t, BiPolynomial._raw(
                         {(p + t, q + t): c for (p, q), c in hodge._coeffs.items()}))
                     for k, twists, hodge in self.powers for t in twists)

    @property
    def total(self) -> BiPolynomial:
        """The sum of the blocks: the Hodge polynomial of the moduli space."""
        coeffs: dict = {}
        get = coeffs.get
        for _, twists, hodge in self.powers:
            for t in twists:
                for (p, q), c in hodge._coeffs.items():
                    pq = (p + t, q + t)
                    coeffs[pq] = get(pq, 0) + c
        return BiPolynomial._raw({pq: c for pq, c in coeffs.items() if c})

    def _rendered(self, form: str, pairs: tuple = None, total: bool = True) -> Iterator:
        """``(k, t, terms)`` for each block h(C^(k)) (x) L^t in the order of
        ``powers``, then with ``total`` ``(None, None, terms)`` for their
        sum: the terms in ``form``'s print order ("text", "json" or "csv"),
        each its pair's string and its coefficient's joined as ``_FORMS``
        says.  ``pairs`` is a ``pair_table`` of ``form`` that covers the
        report's exponents, by default the report's own."""
        top = max((hodge.max_exponent() + max(twists)
                   for _, twists, hodge in self.powers if not hodge.is_zero), default=-1)
        if pairs is None:
            pairs = pair_table(form, top)
        elif top >= pairs[0]:
            raise ValueError(f"the pair table stops below exponent {top}")
        width, step, strings = pairs
        shift = width + step
        _, coeff_form, join = _FORMS[form]
        coeff_of = cache(coeff_form)
        dense = [0] * (top * shift + 1) if total else None  # the total, by index

        def joined(indices: list, coeffs: list, offset: int) -> list:
            terms = list(join(map(strings.__getitem__, map(offset.__add__, indices)), coeffs))
            if terms and not terms[0]:  # the text constant of coefficient 1: '' + ''
                terms[0] = "1"
            return terms

        for k, twists, hodge in self.powers:
            by_index = {p * width + q * step: c for (p, q), c in hodge._coeffs.items()}
            indices = sorted(by_index)
            coeffs = list(map(by_index.__getitem__, indices))
            strings_of = list(map(coeff_of, coeffs))
            for t in twists:
                offset = t * shift
                if total:
                    for i, c in zip(indices, coeffs):
                        dense[i + offset] += c
                yield k, t, joined(indices, strings_of, offset)
        if total:
            indices = list(compress(range(len(dense)), dense))
            yield None, None, joined(indices, list(map(coeff_of, filter(None, dense))), 0)

    def to_text(self, pairs: tuple = None) -> str:
        """The report as a table: a header line, a line per block with its
        label, twist and Hodge polynomial, and a last line with the total;
        each polynomial as ``str`` prints it."""
        rows = []
        for k, t, terms in self._rendered("text", pairs):
            label, twist = ("total", "") if k is None else (f"Sym({k})*L^{t}", str(t))
            rows.append((label, twist, " + ".join(terms) or "0"))
        label_width = max(len(label) for label, _, _ in rows)  # "total" is as wide as "block"
        twist_width = max(5, *(len(twist) for _, twist, _ in rows))
        parts = [f"genus {self.genus}: {len(rows) - 1} blocks\n"
                 f"  {'block'.ljust(label_width)}  {'twist'.rjust(twist_width)}  hodge"]
        for label, twist, hodge in rows:  # each polynomial is joined in, not copied into a line
            parts += (f"\n  {label.ljust(label_width)}  {twist.rjust(twist_width)}  ", hodge)
        return "".join(parts)

    def to_json(self, pairs: tuple = None) -> str:
        """The report's compact JSON,
        ``{"genus":g,"blocks":[{"sym_power":k,"twist":t,"hodge":[[p,q,"c"],...]},...],"total":[...]}``,
        each polynomial's terms in (p, q) order; every value is an int or the
        decimal string of one, so nothing needs escaping."""
        blocks = [",".join(terms) if k is None
                  else f'{{"sym_power":{k},"twist":{t},"hodge":[{",".join(terms)}]}}'
                  for k, t, terms in self._rendered("json", pairs)]
        total = blocks.pop()
        return f'{{"genus":{self.genus},"blocks":[{",".join(blocks)}],"total":[{total}]}}'

    def to_dict(self) -> dict:
        """The value of :meth:`to_json`."""
        return json.loads(self.to_json())

    def to_csv(self, pairs: tuple = None) -> str:
        """The report's CSV rows ``genus,sym_power,twist,p,q,coeff``, one per
        term of each block in (p, q) order; it has no total."""
        rows = []
        for k, t, terms in self._rendered("csv", pairs, total=False):
            if terms:
                start = f"{self.genus},{k},{t},"
                rows.append(start + f"\n{start}".join(terms) + "\n")
        return "".join(rows)


def block_decomposition_report(genus: int) -> BlockReport:
    """Hodge polynomial of every block h(C^(k)) (x) L^twist of the
    symmetric-power decomposition, in the order of the block table that
    ``moduli_motive_conjectural`` is built from: twists k and 3g-3-2k for
    k = 0..g-2, then the middle block at k = g-1 with twist g-1.  The 2g-1
    block polynomials sum to the Hodge polynomial of the moduli space.
    The h(C^(k)) are realized in order of k, each from the one before
    (``_realize_in_order``), and each is kept once for all of its twists
    (see ``BlockReport``); every Hodge number is positive, so none is 0.
    """
    _check_genus(genus)
    table = _blocks(genus)
    powers = _realize_in_order((sym_power_curve(k, genus) for k, _ in table), hodge=True)
    return BlockReport(genus, tuple((k, twists, hodge)
                                    for (k, twists), hodge in zip(table, powers)))


def hodge_diamond_rows(poly: BiPolynomial) -> list:
    """Rows of the Hodge diamond: row d lists h^{p,q} with p+q = d,
    p descending, for d = 0..2s where s is the largest exponent."""
    if poly.is_zero:
        return [[0]]
    size = poly.max_exponent()
    rows = []
    for d in range(0, 2 * size + 1):
        rows.append(
            [poly.coefficient(p, d - p) for p in range(min(d, size), max(0, d - size) - 1, -1)]
        )
    return rows


def render_hodge_diamond(poly: BiPolynomial) -> str:
    """Centered triangle layout of the Hodge diamond."""
    rows = hodge_diamond_rows(poly)
    cell = max(len(str(value)) for row in rows for value in row)
    lines = [" ".join(str(value).rjust(cell) for value in row) for row in rows]
    width = max(len(line) for line in lines)
    return "\n".join(line.center(width).rstrip() for line in lines)
