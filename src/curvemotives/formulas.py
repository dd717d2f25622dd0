"""Closed-form motives: symmetric powers of the curve and the rank-2
fixed-determinant moduli space, plus the lambda-coefficient extraction
used to compare the two moduli decompositions termwise.

``moduli_motive_delbano`` is del Bano's closed form

    h(M) = (+)_{k=0..g} lam^k h1 (x) (1 (+) L (+) ... (+) L^(g-k-1))
                               (x) (1 (+) L^2 (+) ... (+) L^(2g-2k-2)) (x) L^k

with the convention that an empty geometric factor (upper bound below
zero) makes the whole summand vanish, so the k = g term contributes
nothing.  ``moduli_motive_conjectural`` is the symmetric-power form

    h(M) = (+)_{k=0..g-2} h(C^(k)) (x) (L^k (+) L^(3g-3-2k))
                 (+)  h(C^(g-1)) (x) L^(g-1)

and the two agree for every genus; ``proof_chain_check`` verifies the
agreement one lambda-coefficient at a time, including the reindexed
reduction of the coefficient to an explicit Lefschetz sum.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .core import MotiveClass, _check_genus, direct_sum, lambda_h1, lefschetz, tensor


def _tate(genus: int, counts: dict) -> MotiveClass:
    """The Tate motive (+)_e n_e L^e of a map e -> n_e > 0, kept as its row P_0."""
    return MotiveClass._from_rows(genus, {0: counts} if counts else {})


def _blocks(genus: int) -> list:
    """The (k, twists) pairs of the symmetric-power form: h(C^(k)) is
    twisted by L^k and L^(3g-3-2k) for k = 0..g-2, and by L^(g-1) at k = g-1."""
    pairs = [(k, (k, 3 * genus - 3 - 2 * k)) for k in range(genus - 1)]
    return pairs + [(genus - 1, (genus - 1,))]


def _bracket(m: int) -> dict:
    """Exponent -> count of the reindexed sum (empty for m < 0):
    sum_{j<m} sum_{c<=j} (x^(j+c) + x^(3m-2j+c)) + sum_{c<=m} x^(m+c).
    Each sum over c is a run of exponents, [j, 2j], [3m-2j, 3m-j] or [m, 2m],
    marked at both ends in a difference list; one prefix sum gives the counts."""
    if m < 0:
        return {}
    marks = [0] * (3 * m + 2)
    for j in range(m):
        marks[j] += 1
        marks[2 * j + 1] -= 1
        marks[3 * m - 2 * j] += 1
        marks[3 * m - j + 1] -= 1
    marks[m] += 1
    marks[2 * m + 1] -= 1
    return {e: n for e, n in enumerate(accumulate(marks)) if n}


@lru_cache(maxsize=0)  # caches nothing, so a sweep holds one genus; keeps cache_info/cache_clear
def sym_power_curve(n: int, genus: int) -> MotiveClass:
    """Motive of the n-th symmetric power of the curve.

    Expands (+)_{a+b+c=n} 1^a (x) lam^b h1 (x) L^c: since 1^a = 1, the
    key (b, c) appears exactly once for every b + c <= n with b <= 2g.
    """
    _check_genus(genus)
    if n < 0:
        raise ValueError(f"symmetric power must be >= 0, got {n}")
    rows = {b: dict.fromkeys(range(n - b + 1), 1) for b in range(min(n, 2 * genus) + 1)}
    return MotiveClass._from_rows(genus, rows)


@lru_cache(maxsize=32)  # bounded, and still covers genus 2..30 of a long-lived session
def moduli_motive_delbano(genus: int) -> MotiveClass:
    """del Bano's closed form for the moduli motive at the given genus."""
    return _delbano(genus)


@lru_cache(maxsize=32)
def moduli_motive_conjectural(genus: int) -> MotiveClass:
    """Symmetric-power decomposition of the moduli motive."""
    return _conjectural(genus)


def _delbano(genus: int) -> MotiveClass:
    """del Bano's form, built anew on every call."""
    _check_genus(genus)
    return direct_sum(*(  # lam^k h1 (x) (1 + .. + L^(g-k-1)) (x) (1 + .. + L^(2g-2k-2)) (x) L^k
        tensor(
            tensor(tensor(lambda_h1(genus, k), _tate(genus, dict.fromkeys(range(genus - k), 1))),
                   _tate(genus, dict.fromkeys(range(0, 2 * genus - 2 * k - 1, 2), 1))),
            lefschetz(genus, k),
        )
        for k in range(genus + 1)
    ))


def _conjectural(genus: int) -> MotiveClass:
    """The symmetric-power form, built anew on every call."""
    _check_genus(genus)
    return direct_sum(*(
        tensor(sym_power_curve(k, genus), _tate(genus, dict.fromkeys(twists, 1)))  # distinct twists
        for k, twists in _blocks(genus)
    ))


def lambda_coefficient(motive: MotiveClass, index: int) -> MotiveClass:
    """The Tate polynomial multiplying lam^index h1 in the given motive.

    Reconstruction is exact: summing lam^i h1 (x) lambda_coefficient(m, i)
    over all i recovers m.
    """
    if index < 0:
        raise ValueError(f"lambda index must be >= 0, got {index}")
    return _tate(motive.genus, motive._rows.get(index, {}))


def proof_chain_check(genus: int, index: int) -> bool:
    """Termwise comparison of the two moduli decompositions at lam^index.

    Checks that (a) the lambda-coefficient of the symmetric-power form and
    (b) its reduction after reindexing j = k - index,

        L^i (x) [ (+)_{j=0..g-2-i} (+)_{c=0..j} (L^(j+c) (+) L^(3g-3-3i-2j+c))
                  (+) (+)_{c=0..g-1-i} L^(g-1-i+c) ],

    that is L^i (x) ``_bracket(g-1-i)``, both equal the lambda-coefficient
    of del Bano's form.
    """
    _check_genus(genus)
    if not 0 <= index <= genus:
        raise ValueError(f"lambda index must satisfy 0 <= i <= g, got i={index}, g={genus}")
    return _proof_chain(moduli_motive_delbano(genus), moduli_motive_conjectural(genus), index)


def _proof_chain(delbano: MotiveClass, conjectural: MotiveClass, index: int) -> bool:
    """``proof_chain_check`` at lam^index, given both forms of one genus."""
    genus = delbano.genus
    target = lambda_coefficient(delbano, index)
    direct = lambda_coefficient(conjectural, index)
    reduced = tensor(lefschetz(genus, index), _tate(genus, _bracket(genus - 1 - index)))
    return direct == target and reduced == target
