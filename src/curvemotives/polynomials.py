"""Sparse exact-integer polynomials in one variable and in (u, v).

Coefficients are plain Python ints, so all arithmetic is arbitrary
precision and exact.  Zero coefficients are never stored.  Both classes
keep that coefficient dict, and read it alike, through the private base
:class:`_Sparse`.  An :class:`IntPolynomial` holds no variable name: the
letter is chosen when printing, t by ``str`` and any other through the
format spec, so ``f"{p:x}"`` prints in x.

``IntPolynomial`` multiplies by Kronecker substitution: both operands,
shifted down to exponent 0, are packed as ints with one field of bytes per
exponent, wide enough for any product coefficient and its sign; one
big-integer product is read back field by field.  Operands so spread out
that the product spans more exponents than the schoolbook loop has term
products, such as (1 + t^(10^9))^2, take that loop instead.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping, Union

CoeffsLike = Union[Mapping, Iterable]


def _accumulate(items: Iterable, arity: int) -> dict:
    out: dict = {}
    for exponent, coeff in items:
        parts = (exponent,) if arity == 1 else exponent
        if not isinstance(parts, (tuple, list)) or len(parts) != arity or not all(
            isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in parts
        ):
            shape = "an integer" if arity == 1 else "a pair of integers"
            raise ValueError(f"exponent must be {shape} >= 0, got {exponent!r}")
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise ValueError(f"coefficient must be an integer, got {coeff!r}")
        key = exponent if arity == 1 else tuple(parts)
        out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v != 0}


def _merge(coeffs: dict, terms: Iterable, scale: int = 1) -> dict:
    """Add ``scale`` times the (exponent, coeff) pairs of ``terms`` into
    ``coeffs``, deleting each exponent whose coefficient reaches 0, and
    return ``coeffs``.  The pairs and ``scale`` must be nonzero."""
    get = coeffs.get
    for key, c in terms:
        new = get(key, 0) + scale * c
        if new:
            coeffs[key] = new
        else:
            del coeffs[key]
    return coeffs


def _pack(coeffs: dict, low: int, width: int, half: int) -> int:
    """The sum of c * 2^(8 * width * (e - low)) over the terms c t^e of
    ``coeffs``, each |c| below ``half``, the middle of a field of ``width``
    bytes: every field, gaps included, is written as c + half, which is never
    negative, and the halves are taken off all fields at once."""
    get = coeffs.get
    fields = [(get(e, 0) + half).to_bytes(width, "little") for e in range(low, max(coeffs) + 1)]
    halves = half.to_bytes(width, "little") * len(fields)
    return int.from_bytes(b"".join(fields), "little") - int.from_bytes(halves, "little")


def _join_signed(terms: Iterable, u: str, v: str) -> str:
    """'1 - 2u + u^2*v^3' from ((p, q), c) pairs in print order; '0' if none."""
    pieces = []
    append = pieces.append
    for (p, q), c in terms:
        if p:
            monomial = u if p == 1 else f"{u}^{p}"
            if q:
                monomial += f"*{v}" if q == 1 else f"*{v}^{q}"
        elif q:
            monomial = v if q == 1 else f"{v}^{q}"
        else:
            append(f"+ {c}" if c > 0 else f"- {-c}")
            continue
        if c == 1:
            append(f"+ {monomial}")
        elif c == -1:
            append(f"- {monomial}")
        else:
            append(f"+ {c}{monomial}" if c > 0 else f"- {-c}{monomial}")
    text = " ".join(pieces)  # every piece opens with its sign and a space
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


class _Sparse:
    """The storage both polynomial classes share: a zero-free dict from
    exponent (an int, or a (p, q) pair) to coefficient."""

    __slots__ = ("_coeffs",)

    @classmethod
    def _raw(cls, coeffs: dict):
        # internal: coeffs already validated, zero-free, owned by the callee
        poly = cls.__new__(cls)
        poly._coeffs = coeffs
        return poly

    @classmethod
    def zero(cls):
        return cls._raw({})

    def items(self) -> tuple:
        return tuple(sorted(self._coeffs.items()))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(sorted(self._coeffs.items()))})"


class IntPolynomial(_Sparse):
    """Sparse univariate polynomial with exact integer coefficients."""

    __slots__ = ()

    def __init__(self, coeffs: CoeffsLike = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        self._coeffs = _accumulate(items, 1)

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "IntPolynomial":
        return cls({exponent: coeff})

    @classmethod
    def geometric(cls, top: int, step: int = 1) -> "IntPolynomial":
        """1 + t^step + ... + t^top (empty, i.e. zero, when top < 0)."""
        return cls._raw(dict.fromkeys(range(0, top + 1, step), 1))

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return max(self._coeffs, default=-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = _Sparse.__hash__  # defining __eq__ would otherwise unset it

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial._raw(_merge(dict(self._coeffs), other._coeffs.items()))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial._raw({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial._raw(_merge(dict(self._coeffs), other._coeffs.items(), -1))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self._coeffs, other._coeffs
        if a and b:
            low_a, low_b = min(a), min(b)
            span = max(a) - low_a + max(b) - low_b
            if span < len(a) * len(b):  # Kronecker substitution (module docstring)
                bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
                width = (bound.bit_length() + 8) // 8  # bytes a field, with a bit for the sign
                half = 1 << (8 * width - 1)
                product = _pack(a, low_a, width, half) * _pack(b, low_b, width, half)
                halves = half.to_bytes(width, "little") * (span + 1)
                fields = (product + int.from_bytes(halves, "little")).to_bytes(len(halves), "little")
                read = int.from_bytes
                return IntPolynomial._raw({
                    e: c - half
                    for e, i in enumerate(range(0, len(fields), width), low_a + low_b)
                    if (c := read(fields[i:i + width], "little")) != half
                })
        coeffs: dict = {}
        get = coeffs.get
        right = b.items()
        for e1, c1 in a.items():
            for e2, c2 in right:
                e = e1 + e2
                coeffs[e] = get(e, 0) + c1 * c2
        return IntPolynomial._raw({e: c for e, c in coeffs.items() if c})

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise ValueError("negative power")
        result = IntPolynomial.one()
        for _ in range(n):
            result = result * self
        return result

    def __divmod__(self, divisor: "IntPolynomial") -> tuple:
        """Long division over the integers.

        Each elimination step must divide exactly (always the case for a
        divisor with leading coefficient +-1); otherwise ValueError.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        lead_exp = divisor.degree()
        lead_coeff = divisor.coefficient(lead_exp)
        remainder = dict(self._coeffs)
        quotient: dict = {}
        deg = max(remainder, default=-1)
        while deg >= lead_exp:
            coeff = remainder.get(deg, 0)
            if coeff:
                q, r = divmod(coeff, lead_coeff)
                if r:
                    raise ValueError(
                        f"leading coefficient {lead_coeff} does not divide {coeff} exactly"
                    )
                shift = deg - lead_exp
                quotient[shift] = q
                _merge(remainder, ((shift + e, c) for e, c in divisor._coeffs.items()), -q)
            deg -= 1
        return IntPolynomial._raw(quotient), IntPolynomial._raw(remainder)

    def __str__(self) -> str:
        return self.__format__("")

    def __format__(self, var: str) -> str:
        """The text in the variable ``var``, t if empty: f"{p:x}" prints in x."""
        if var and not var.isidentifier():
            raise ValueError(f"format spec must be a variable name, got {var!r}")
        return _join_signed((((e, 0), c) for e, c in sorted(self._coeffs.items())), var or "t", "")


class BiPolynomial(_Sparse):
    """Sparse polynomial in (u, v) with exact integer coefficients."""

    __slots__ = ()

    def __init__(self, coeffs: CoeffsLike = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        self._coeffs = _accumulate(items, 2)

    @classmethod
    def one(cls) -> "BiPolynomial":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, p: int, q: int, coeff: int = 1) -> "BiPolynomial":
        return cls({(p, q): coeff})

    def coefficient(self, p: int, q: int) -> int:
        return self._coeffs.get((p, q), 0)

    def max_exponent(self) -> int:
        """Largest exponent of u or v appearing; -1 for zero."""
        if not self._coeffs:
            return -1
        # the largest p leads the largest pair; the largest q is found by key
        return max(max(self._coeffs)[0], max(self._coeffs, key=itemgetter(1))[1])

    def is_symmetric(self) -> bool:
        """Whether the coefficient of u^p v^q always equals that of u^q v^p."""
        return all(self._coeffs.get((q, p)) == c for (p, q), c in self._coeffs.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = _Sparse.__hash__  # defining __eq__ would otherwise unset it

    def __add__(self, other: "BiPolynomial") -> "BiPolynomial":
        return BiPolynomial._raw(_merge(dict(self._coeffs), other._coeffs.items()))

    def __mul__(self, other: "BiPolynomial") -> "BiPolynomial":
        coeffs: dict = {}
        get = coeffs.get
        right = other._coeffs.items()
        for (p1, q1), c1 in self._coeffs.items():
            for (p2, q2), c2 in right:
                key = (p1 + p2, q1 + q2)
                coeffs[key] = get(key, 0) + c1 * c2
        return BiPolynomial._raw({pq: c for pq, c in coeffs.items() if c})

    def specialize_diagonal(self) -> IntPolynomial:
        """Substitute u = v = t, collapsing (p, q) to degree p + q."""
        terms = ((p + q, c) for (p, q), c in self._coeffs.items())
        return IntPolynomial._raw(_merge({}, terms))

    def __str__(self) -> str:
        # ascending total degree, u-power descending within a degree
        order = sorted(self._coeffs.items(), key=lambda item: (item[0][0] + item[0][1], item[0][1]))
        return _join_signed(order, "u", "v")
