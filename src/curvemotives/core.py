"""Exact formal motives over the basis lam^b h1(C) (x) L^c.

A motive here is a genus-tagged finite formal sum of basis classes
``lam^b h1(C) (x) L^c`` with positive integer multiplicities, where ``h1(C)``
is the weight-1 class of a smooth curve of genus g >= 2 and ``L`` is the
Lefschetz class.  The only relations imposed are ``lam^0 = 1`` and
``lam^b h1(C) = 0`` for ``b > 2g``; in particular no duality identification
between ``lam^(2g-k)`` and ``lam^k`` is used, so equality is equality of
term maps.  Multiplicities are never negative: the algebra has direct sums
and tensor products but no subtraction.

Tensor products are only defined when at least one operand is a Tate
polynomial (a sum of powers of ``L``); a product of two lambda-classes is
outside the supported subring and raises :class:`NonTateTensor`.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Mapping, NamedTuple


class NonTateTensor(ValueError):
    """Tensor product of two motives that both contain lambda-classes."""


class BasisKey(NamedTuple):
    """Basis class lam^b h1(C) (x) L^c, stored as (b, c).

    ``(0, 0)`` is the unit motive and ``(0, c)`` is the c-th Lefschetz power.
    """

    lambda_index: int
    lefschetz_power: int


def _basis_key(raw_key: tuple) -> BasisKey:
    try:
        return BasisKey(*raw_key)
    except TypeError:
        raise ValueError(
            f"basis key must be a pair (lambda_index, lefschetz_power), got {raw_key!r}"
        ) from None


def _check_genus(genus: int) -> int:
    if not isinstance(genus, int) or isinstance(genus, bool) or genus < 2:
        raise ValueError(f"genus must be an integer >= 2, got {genus!r}")
    return genus


class MotiveClass:
    """Finite formal sum of :class:`BasisKey` classes at a fixed genus.

    Stored as (+)_b lam^b h1 (x) P_b(L): ``_rows`` maps each lambda index
    b <= 2g to a non-empty ``{lefschetz_power: multiplicity > 0}`` for P_b.
    Values are immutable and a stored row never changes, so motives may
    share rows.  Iteration and serialization order is lexicographic in
    (lambda_index, lefschetz_power).
    """

    __slots__ = ("_genus", "_rows")

    def __init__(self, genus: int, terms: Mapping | Iterable = ()):
        self._genus = _check_genus(genus)
        rows: dict[int, dict[int, int]] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for raw_key, mult in items:
            key = _basis_key(raw_key)
            if any(not isinstance(e, int) or isinstance(e, bool) for e in key):
                raise ValueError(f"basis key exponents must be integers, got {key}")
            if key.lambda_index < 0 or key.lefschetz_power < 0:
                raise ValueError(f"negative exponent in basis key {key}")
            if not isinstance(mult, int) or isinstance(mult, bool):
                raise ValueError(f"multiplicity for {key} must be an integer, got {mult!r}")
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} for {key}")
            if mult == 0 or key.lambda_index > 2 * self._genus:
                continue  # identically zero contributions are not stored
            row = rows.setdefault(key.lambda_index, {})
            row[key.lefschetz_power] = row.get(key.lefschetz_power, 0) + mult
        self._rows = rows

    @classmethod
    def _from_rows(cls, genus: int, rows: dict) -> "MotiveClass":
        # internal: rows that keep the class invariants, owned by the motive
        motive = cls.__new__(cls)
        motive._genus = genus
        motive._rows = rows
        return motive

    @property
    def genus(self) -> int:
        return self._genus

    def rows(self) -> Iterator[tuple]:
        """Pairs (b, P_b) in increasing b; P_b is a read-only items view."""
        return ((index, self._rows[index].items()) for index in sorted(self._rows))

    def items(self) -> tuple:
        """Terms as ((BasisKey, multiplicity), ...) in canonical order."""
        return tuple(
            (BasisKey(index, power), mult)
            for index, row in self.rows()
            for power, mult in sorted(row)
        )

    def multiplicity(self, key: tuple) -> int:
        key = _basis_key(key)
        return self._rows.get(key.lambda_index, {}).get(key.lefschetz_power, 0)

    def __iter__(self) -> Iterator[BasisKey]:
        return (key for key, _ in self.items())

    def __len__(self) -> int:
        return sum(len(row) for row in self._rows.values())

    @property
    def is_zero(self) -> bool:
        return not self._rows

    @property
    def is_tate(self) -> bool:
        """True when every stored key is a pure Lefschetz power."""
        return all(index == 0 for index in self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MotiveClass):
            return NotImplemented
        return self._genus == other._genus and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._genus, self.items()))

    def __add__(self, other: "MotiveClass") -> "MotiveClass":
        return direct_sum(self, other)

    def __mul__(self, other: "MotiveClass") -> "MotiveClass":
        return tensor(self, other)

    def to_dict(self) -> dict:
        """Canonical serialization; multiplicities as decimal strings."""
        return {
            "genus": self._genus,
            "terms": [
                {"lambda": key.lambda_index, "lefschetz": key.lefschetz_power, "mult": str(mult)}
                for key, mult in self.items()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping) -> "MotiveClass":
        """Inverse of :meth:`to_dict`; a ``mult`` of decimal digits is read as an int."""
        try:
            pairs = []
            for entry in data["terms"]:
                mult = entry["mult"]
                if isinstance(mult, str) and mult.isdecimal():
                    mult = int(mult)
                pairs.append(((entry["lambda"], entry["lefschetz"]), mult))
            return cls(data["genus"], pairs)
        except KeyError as exc:
            raise ValueError(f"motive dict is missing the field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:  # a term not a mapping, a mult of 1.9, ...
            raise ValueError(f"malformed motive dict: {exc}") from None

    def __str__(self) -> str:
        if not self._rows:
            return "0"
        return " + ".join(_term_str(key, mult) for key, mult in self.items())

    def __repr__(self) -> str:
        terms = {tuple(key): mult for key, mult in self.items()}
        return f"MotiveClass(genus={self._genus}, terms={terms})"


def _term_str(key: BasisKey, mult: int) -> str:
    parts = []
    if key.lambda_index == 1:
        parts.append("h1")
    elif key.lambda_index > 1:
        parts.append(f"lam({key.lambda_index})")
    if key.lefschetz_power == 1:
        parts.append("L")
    elif key.lefschetz_power > 1:
        parts.append(f"L^{key.lefschetz_power}")
    atom = "*".join(parts) if parts else "1"
    return atom if mult == 1 else f"{mult}*{atom}"


def zero(genus: int) -> MotiveClass:
    """The empty sum: additive identity."""
    return MotiveClass(genus)


def unit(genus: int) -> MotiveClass:
    """The unit motive 1 = lam^0 h1 (x) L^0."""
    return MotiveClass(genus, {(0, 0): 1})


def lefschetz(genus: int, power: int = 1) -> MotiveClass:
    """The n-th Lefschetz power L^n; n = 0 gives the unit."""
    if power < 0:
        raise ValueError(f"Lefschetz power must be >= 0, got {power}")
    return MotiveClass(genus, {(0, power): 1})


def lambda_h1(genus: int, index: int) -> MotiveClass:
    """The exterior power lam^k h1(C); zero for k > 2g."""
    if index < 0:
        raise ValueError(f"lambda index must be >= 0, got {index}")
    return MotiveClass(genus, {(index, 0): 1})


def _check_same_genus(a: MotiveClass, b: MotiveClass) -> int:
    if a.genus != b.genus:
        raise ValueError(f"genus mismatch: {a.genus} vs {b.genus}")
    return a.genus


def direct_sum(first: MotiveClass, *rest: MotiveClass) -> MotiveClass:
    """Pointwise sum of the multiplicity maps of one or more motives of one
    genus (the operation written ⊕).  A row is copied before an operand
    adds into it, so no operand's rows change."""
    rows = dict(first._rows)
    for other in rest:
        _check_same_genus(first, other)
        for index, row in other._rows.items():
            merged = dict(rows.get(index, ()))
            for power, mult in row.items():
                merged[power] = merged.get(power, 0) + mult
            rows[index] = merged
    return MotiveClass._from_rows(first.genus, rows)


def tensor(a: MotiveClass, b: MotiveClass) -> MotiveClass:
    """Tensor product, defined when at least one operand is Tate.

    Bilinear extension of (b, c) (x) (0, c') = (b, c + c'); distributes
    over direct sums.  Raises :class:`NonTateTensor` when both operands
    contain a lambda-class, since no expansion rule for lam (x) lam is
    part of the supported subring.
    """
    genus = _check_same_genus(a, b)
    if not b.is_tate:
        if not a.is_tate:
            raise NonTateTensor(
                "tensor product of two motives with lambda-classes is outside the supported subring"
            )
        a, b = b, a
    if b.is_zero:
        return zero(genus)
    # b is Tate, so its one row P_0 multiplies each of a's rows
    shifts = b._rows[0].items()
    rows: dict[int, dict[int, int]] = {}
    for index, row in a._rows.items():
        product: dict[int, int] = {}
        for power, mult_a in row.items():
            for shift, mult_b in shifts:
                product[power + shift] = product.get(power + shift, 0) + mult_a * mult_b
        rows[index] = product
    return MotiveClass._from_rows(genus, rows)
