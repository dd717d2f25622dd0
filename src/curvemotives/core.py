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
from typing import Iterable, Iterator, Mapping, NamedTuple, Union


class NonTateTensor(ValueError):
    """Tensor product of two motives that both contain lambda-classes."""


class BasisKey(NamedTuple):
    """Basis class lam^b h1(C) (x) L^c, stored as (b, c).

    ``(0, 0)`` is the unit motive and ``(0, c)`` is the c-th Lefschetz power.
    """

    lambda_index: int
    lefschetz_power: int


KeyLike = Union[BasisKey, tuple]
TermsLike = Union[Mapping, Iterable]


def _basis_key(raw_key: KeyLike) -> BasisKey:
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

    Values are immutable; every operation returns a new normalized value.
    Keys with lambda index above 2g are identically zero and are never
    stored, and no stored multiplicity is zero.  Iteration and
    serialization order is lexicographic in (lambda_index, lefschetz_power).
    """

    __slots__ = ("_genus", "_terms")

    def __init__(self, genus: int, terms: TermsLike = ()):
        self._genus = _check_genus(genus)
        accumulated: dict[BasisKey, int] = {}
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
            accumulated[key] = accumulated.get(key, 0) + mult
        self._terms = dict(sorted(accumulated.items()))

    @classmethod
    def _from_clean(cls, genus: int, terms: dict) -> "MotiveClass":
        # internal: BasisKey -> positive int, within the genus bound
        motive = cls.__new__(cls)
        motive._genus = genus
        motive._terms = dict(sorted(terms.items()))
        return motive

    @property
    def genus(self) -> int:
        return self._genus

    def items(self) -> tuple:
        """Terms as ((BasisKey, multiplicity), ...) in canonical order."""
        return tuple(self._terms.items())

    def multiplicity(self, key: KeyLike) -> int:
        return self._terms.get(_basis_key(key), 0)

    def __iter__(self) -> Iterator[BasisKey]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_tate(self) -> bool:
        """True when every stored key is a pure Lefschetz power."""
        return all(key.lambda_index == 0 for key in self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MotiveClass):
            return NotImplemented
        return self._genus == other._genus and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._genus, frozenset(self._terms.items())))

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
                for key, mult in self._terms.items()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Mapping) -> "MotiveClass":
        try:
            terms = {
                (entry["lambda"], entry["lefschetz"]): int(entry["mult"])
                for entry in data["terms"]
            }
            genus = data["genus"]
        except KeyError as exc:
            raise ValueError(f"motive dict is missing the field {exc.args[0]!r}") from None
        except TypeError as exc:  # data or a term not a mapping, a mult of None, ...
            raise ValueError(f"malformed motive dict: {exc}") from None
        return cls(genus, terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(_term_str(key, mult) for key, mult in self._terms.items())

    def __repr__(self) -> str:
        terms = {tuple(key): mult for key, mult in self._terms.items()}
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


def direct_sum(a: MotiveClass, b: MotiveClass) -> MotiveClass:
    """Pointwise sum of multiplicity maps (the operation written ⊕)."""
    genus = _check_same_genus(a, b)
    terms = dict(a._terms)
    for key, mult in b._terms.items():
        terms[key] = terms.get(key, 0) + mult
    return MotiveClass._from_clean(genus, terms)


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
    # b is Tate, so every product keeps a's lambda index, which is <= 2g
    shifts = [(key.lefschetz_power, mult) for key, mult in b._terms.items()]
    terms: dict[BasisKey, int] = {}
    for (index, power), mult_a in a._terms.items():
        for shift, mult_b in shifts:
            key = tuple.__new__(BasisKey, (index, power + shift))
            terms[key] = terms.get(key, 0) + mult_a * mult_b
    return MotiveClass._from_clean(genus, terms)
