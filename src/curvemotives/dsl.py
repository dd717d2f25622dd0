"""A small expression language for motives.

Grammar (whitespace insignificant)::

    expr   := term { "+" term }
    term   := factor { "*" factor }
    factor := atom [ "^" nat ]
    atom   := "1" | "L" | "h1" | "lam" "(" nat ")" | "C"
            | "Sym" "(" nat ")" | "M" | "Mconj" | "(" expr ")"
    nat    := decimal digits

"+" is direct sum, "*" is tensor product and "^" repeated tensor; "^"
binds tightest, then "*", then "+", and the binary operators associate to
the left.  Genus is not part of the language: it is supplied at
evaluation time, so one expression can be swept over a genus range.
"""

import re

from .core import (
    MotiveClass,
    NonTateTensor,
    _check_genus,
    direct_sum,
    lambda_h1,
    lefschetz,
    tensor,
    unit,
)
from .formulas import (
    moduli_motive_conjectural,
    moduli_motive_delbano,
    sym_power_curve,
)


class ParseError(ValueError):
    """Syntax error, carrying a 1-based byte offset into the source."""

    def __init__(self, reason: str, position: int):
        super().__init__(f"parse error at byte offset {position}: {reason}")
        self.reason = reason
        self.position = position


def _nat(value: int, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


class MotiveExpr(tuple):
    """An expression node: the tuple of its fields, child nodes first.  It
    equals only a node of the same type with equal fields."""

    _arity = 0  # how many leading fields are child nodes
    _rank = 4  # how tightly the printed form binds: 1 sum, 2 product, 3 power, 4 atom

    def __new__(cls):
        return tuple.__new__(cls)

    def __getnewargs__(self):
        return tuple(self)

    def __bool__(self):  # true like any node, not false as an empty tuple
        return True

    def __eq__(self, other):
        return isinstance(other, MotiveExpr) and _shape(self) == _shape(other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):  # not tuple.__hash__, which recurses through the children in C
        return hash(tuple(_shape(self)))

    def __repr__(self):
        return _join(self, _repr_parts)


class Unit(MotiveExpr):
    """``1``, the unit motive."""


class Lefschetz(MotiveExpr):
    def __new__(cls, power=1):
        return tuple.__new__(cls, (_nat(power, "Lefschetz power"),))

    @property
    def _rank(self):
        return 4 if self[0] == 1 else 3  # L^p prints as a power


class LambdaH1(MotiveExpr):
    def __new__(cls, index):
        return tuple.__new__(cls, (_nat(index, "lambda index"),))


class Curve(MotiveExpr):
    """``C``, the curve, the same as ``Sym(1)``."""


class SymPower(MotiveExpr):
    def __new__(cls, n):
        return tuple.__new__(cls, (_nat(n, "symmetric power"),))


class ModuliDelBano(MotiveExpr):
    """``M``, del Bano's closed form of the moduli motive."""


class ModuliConjectural(MotiveExpr):
    """``Mconj``, the symmetric-power form of the moduli motive."""


class _Binary(MotiveExpr):
    _arity = 2

    def __new__(cls, left, right):
        return tuple.__new__(cls, (left, right))


class Sum(_Binary):
    _rank = 1


class Product(_Binary):
    _rank = 2


class Power(MotiveExpr):
    _arity = 1
    _rank = 3

    def __new__(cls, base, exponent):
        return tuple.__new__(cls, (base, _nat(exponent, "tensor power")))


# Each node's printed parts: strings, and (child, rank) for a child put in parentheses
# if it binds less tightly than rank.  The operators associate to the left, so a
# right operand of equal rank is parenthesized.
_TEXTS = {
    Unit: lambda node: ["1"],
    Lefschetz: lambda node: ["L" if node[0] == 1 else f"L^{node[0]}"],
    LambdaH1: lambda node: ["h1" if node[0] == 1 else f"lam({node[0]})"],
    Curve: lambda node: ["C"],
    SymPower: lambda node: [f"Sym({node[0]})"],
    ModuliDelBano: lambda node: ["M"],
    ModuliConjectural: lambda node: ["Mconj"],
    Sum: lambda node: [(node[0], 1), " + ", (node[1], 2)],
    Product: lambda node: [(node[0], 2), " * ", (node[1], 3)],
    Power: lambda node: [(node[0], 4), f"^{node[1]}"],
}


def _power(node: Power, genus: int, base: MotiveClass) -> MotiveClass:
    """``base`` to the node's exponent by square and multiply: O(log n) tensor products."""
    result = unit(genus)
    for digit in f"{node[1]:b}":
        result = tensor(result, result)
        if digit == "1":
            result = tensor(result, base)
    return result


_VALUES = {
    Unit: lambda node, genus: unit(genus),
    Lefschetz: lambda node, genus: lefschetz(genus, node[0]),
    LambdaH1: lambda node, genus: lambda_h1(genus, node[0]),
    Curve: lambda node, genus: sym_power_curve(1, genus),
    SymPower: lambda node, genus: sym_power_curve(node[0], genus),
    ModuliDelBano: lambda node, genus: moduli_motive_delbano(genus),
    ModuliConjectural: lambda node, genus: moduli_motive_conjectural(genus),
    Sum: lambda node, genus, left, right: direct_sum(left, right),
    Product: lambda node, genus, left, right: tensor(left, right),
    Power: _power,
}


def _post_order(expr: MotiveExpr) -> list:
    """Every node of the tree, children before parents and left before right."""
    order = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if not isinstance(node, MotiveExpr):
            raise TypeError(f"not a MotiveExpr node: {node!r}")
        order.append(node)
        stack.extend(node[: node._arity])  # the right child is popped first
    return order[::-1]


def _fold(expr: MotiveExpr, combine):
    """The root's value, each node's being ``combine(node, *children's values)``."""
    values: list = []
    for node in _post_order(expr):
        cut = len(values) - node._arity
        values[cut:] = [combine(node, *values[cut:])]
    return values[0]


def _shape(expr: MotiveExpr) -> list:
    """Type and other fields of every node in post-order, which determine the tree."""
    return [(type(node), node[node._arity:]) for node in _post_order(expr)]


def _join(expr: MotiveExpr, parts) -> str:
    """The text of ``expr``, ``parts(node)`` giving each node's strings and (child,
    rank) pairs: emitted from an explicit stack and joined once, in linear time."""
    pieces = []
    stack = [(expr, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
        elif isinstance(item[0], MotiveExpr):
            node, rank = item
            own = parts(node)
            stack.extend(reversed(own if node._rank >= rank else ["(", *own, ")"]))
        else:
            raise TypeError(f"not a MotiveExpr node: {item[0]!r}")
    return "".join(pieces)


def _repr_parts(node: MotiveExpr) -> list:
    """``Type(fields)``: the child nodes first, each other field by its repr."""
    parts = [f"{type(node).__name__}("]
    for i, field in enumerate(node):
        if i:
            parts.append(", ")
        parts.append((field, 0) if i < node._arity else repr(field))
    return parts + [")"]


_ATOM_DESCRIPTION = "an atom ('1', 'L', 'h1', 'lam(k)', 'C', 'Sym(n)', 'M', 'Mconj' or '(')"
_NAMED_ATOMS = {
    "L": Lefschetz(1),
    "h1": LambdaH1(1),
    "C": Curve(),
    "M": ModuliDelBano(),
    "Mconj": ModuliConjectural(),
}
_KEYWORDS = ("lam", "Sym", *_NAMED_ATOMS)
_BINARY = {"+": Sum, "*": Product}
# whitespace, then a number, a name or one other character
_TOKEN = re.compile(r"\s*(?:([0-9]+)|([A-Za-z][A-Za-z0-9]*)|(\S))")


def _tokenize(source: str) -> list:
    """``(kind, 1-based byte offset, value)`` per token, then an EOF token.
    A number is of kind NUMBER with its value; a name or operator is its own kind."""
    tokens = []
    shift = 1  # byte offset minus character index; only whitespace may be non-ASCII
    # Trailing whitespace is cut first: a search would retry the whole run at each of its positions.
    for match in _TOKEN.finditer(source.rstrip()):
        number, name, other = match.groups()
        start = match.start(match.lastindex)
        space = source[match.start():start]
        shift += len(space.encode("utf-8")) - len(space)
        position = start + shift
        if number is not None:
            tokens.append(("NUMBER", position, int(number)))
        elif name is not None and name not in _KEYWORDS:
            raise ParseError(f"unknown name '{name}'", position)
        elif other is not None and other not in "+*^()":
            raise ParseError(f"unexpected character {other!r}", position)
        else:
            tokens.append((name or other, position, 0))
    tokens.append(("EOF", len(source.encode("utf-8")) + 1, 0))
    return tokens


def _expect(tokens: list, i: int, kind: str, description: str) -> int:
    """The value of token ``i``, which must be of ``kind``."""
    found, position, value = tokens[i]
    if found != kind:
        raise ParseError(f"expected {description}", position)
    return value


def _reduce(operands: list, operators: list, rank: int) -> None:
    """Apply pending operators of ``rank`` or more, back to an open parenthesis (None)."""
    while operators and operators[-1] is not None and operators[-1]._rank >= rank:
        right = operands.pop()
        operands[-1] = operators.pop()(operands[-1], right)


def parse(source: str) -> MotiveExpr:
    """Parse a DSL expression; raise ParseError with a byte offset otherwise.

    One pass over the tokens with an operand and an operator stack: each
    round reads an atom, then "^ nat", any ")" closing a group (an atom
    again) and a binary operator or the end.  Inside an open group a token
    that cannot follow an atom is a missing ')', outside it trailing input.
    """
    tokens = _tokenize(source)
    operands: list = []
    operators: list = []
    depth = 0
    i = 0
    while True:
        kind, position, value = tokens[i]
        i += 1
        if kind == "(":
            operators.append(None)
            depth += 1
            continue
        if kind in _NAMED_ATOMS:
            operands.append(_NAMED_ATOMS[kind])
        elif kind == "NUMBER" and value == 1:
            operands.append(Unit())
        elif kind == "lam" or kind == "Sym":
            _expect(tokens, i, "(", f"'(' after '{kind}'")
            number = _expect(tokens, i + 1, "NUMBER", f"a number inside '{kind}(...)'")
            _expect(tokens, i + 2, ")", "')'")
            operands.append(LambdaH1(number) if kind == "lam" else SymPower(number))
            i += 3
        else:
            raise ParseError(f"expected {_ATOM_DESCRIPTION}", position)
        while True:
            kind, position, value = tokens[i]
            if kind == "^":
                exponent = _expect(tokens, i + 1, "NUMBER", "a number after '^'")
                operands[-1] = Power(operands[-1], exponent)
                i += 2
                kind, position, value = tokens[i]
            if kind != ")" or not depth:
                break
            _reduce(operands, operators, 0)
            operators.pop()
            depth -= 1
            i += 1
        i += 1
        if kind in _BINARY:
            _reduce(operands, operators, _BINARY[kind]._rank)
            operators.append(_BINARY[kind])
        elif depth:
            raise ParseError("expected ')'", position)
        elif kind != "EOF":
            raise ParseError("unexpected trailing input", position)
        else:
            _reduce(operands, operators, 0)
            return operands[0]


def print_expr(expr: MotiveExpr) -> str:
    """Canonical text with minimal parentheses; reparses to the same tree
    for every tree the grammar denotes."""
    return _join(expr, lambda node: _TEXTS[type(node)](node))


def evaluate(expr: MotiveExpr, genus: int) -> MotiveClass:
    """Evaluate a tree at the given genus (g >= 2).

    Sums map to direct sums and products/powers to tensor products; a
    tensor of two lambda-classes raises NonTateTensor naming the printed
    offending subexpression.
    """
    _check_genus(genus)

    def value(node, *children):
        try:
            return _VALUES[type(node)](node, genus, *children)
        except NonTateTensor as exc:
            raise NonTateTensor(f"{exc.args[0]} in '{print_expr(node)}'") from exc

    return _fold(expr, value)
