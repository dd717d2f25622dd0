import hypothesis.strategies as st
import pytest
from hypothesis import given

from curvemotives.polynomials import BiPolynomial, IntPolynomial
from helpers import int_polynomials, reference_bi_str, reference_int_str

# signed coefficients: units are drawn often, since they print without a digit
_signed = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-(10**30), max_value=10**30),
)

_bi_coeffs = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)),
    _signed,
    max_size=10,
)


def test_construction_drops_zeros_and_accumulates():
    p = IntPolynomial([(2, 3), (2, -3), (0, 1), (5, 4)])
    assert p.items() == ((0, 1), (5, 4))
    assert p.coefficient(2) == 0
    assert not hasattr(p, "__dict__")


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        IntPolynomial({-1: 2})
    with pytest.raises(ValueError):
        IntPolynomial({0: 1.5})


@pytest.mark.parametrize("exponent", [1.7, 2.0, "3", True, False, None, -1])
def test_int_polynomial_rejects_exponent_that_is_not_a_natural_int(exponent):
    with pytest.raises(ValueError, match="exponent must be an integer >= 0"):
        IntPolynomial({exponent: 2})
    with pytest.raises(ValueError, match="exponent must be an integer >= 0"):
        IntPolynomial([(exponent, 2)])


@pytest.mark.parametrize(
    "exponent", [5, None, (1,), (1, 2, 3), (1.5, 0), (0, "2"), (True, 1), (1, False), (-1, 0), "12"]
)
def test_bipolynomial_rejects_exponent_that_is_not_a_pair_of_natural_ints(exponent):
    with pytest.raises(ValueError, match="exponent must be a pair of integers >= 0"):
        BiPolynomial({exponent: 1})


def test_bipolynomial_accepts_list_exponent_pairs():
    assert BiPolynomial([([1, 2], 3)]) == BiPolynomial({(1, 2): 3})


def test_degree_and_zero():
    assert IntPolynomial.zero().degree() == -1
    assert IntPolynomial.zero().is_zero
    assert IntPolynomial.zero() != BiPolynomial.zero()
    assert IntPolynomial({7: 2, 1: 1}).degree() == 7


def test_arithmetic_small():
    t = IntPolynomial.monomial(1)
    one = IntPolynomial.one()
    assert (one + t) * (one + t) == IntPolynomial({0: 1, 1: 2, 2: 1})
    assert (one + t) ** 3 == IntPolynomial({0: 1, 1: 3, 2: 3, 3: 1})
    assert (one - t) * (one + t) == IntPolynomial({0: 1, 2: -1})
    assert -(one - t) == IntPolynomial({0: -1, 1: 1})


def test_geometric_sums():
    assert IntPolynomial.geometric(3) == IntPolynomial({0: 1, 1: 1, 2: 1, 3: 1})
    assert IntPolynomial.geometric(4, step=2) == IntPolynomial({0: 1, 2: 1, 4: 1})
    assert IntPolynomial.geometric(-1).is_zero  # empty sum convention


def test_divmod_exact_monic():
    t = IntPolynomial.monomial(1)
    one = IntPolynomial.one()
    product = (one + t) * (one + t ** 2)
    quotient, remainder = divmod(product, one + t)
    assert quotient == one + t ** 2
    assert remainder.is_zero


def test_divmod_with_remainder():
    t = IntPolynomial.monomial(1)
    one = IntPolynomial.one()
    quotient, remainder = divmod(t ** 2 + one, t + one)
    assert quotient * (t + one) + remainder == t ** 2 + one
    assert remainder == IntPolynomial({0: 2})


def test_divmod_errors():
    t = IntPolynomial.monomial(1)
    with pytest.raises(ZeroDivisionError):
        divmod(t, IntPolynomial.zero())
    with pytest.raises(ValueError):
        divmod(t + IntPolynomial.one(), IntPolynomial({1: 2}))


def test_str_forms():
    assert str(IntPolynomial.zero()) == "0"
    assert str(IntPolynomial.one()) == "1"
    assert str(IntPolynomial.monomial(1)) == "t"
    assert str(IntPolynomial({3: 4})) == "4t^3"
    assert str(IntPolynomial({0: 1, 2: 1, 3: 4, 4: 1, 6: 1})) == "1 + t^2 + 4t^3 + t^4 + t^6"
    assert str(IntPolynomial({0: 1, 2: -1})) == "1 - t^2"
    assert str(IntPolynomial({1: -1})) == "-t"
    assert format(IntPolynomial({0: 1, 1: 1}), "x") == "1 + x"


def test_variable_name_is_presentational():
    p = IntPolynomial({0: -1, 1: 2, 3: 1})
    assert f"{p}" == format(p) == str(p) == "-1 + 2t + t^3"
    assert f"{p:x}" == "-1 + 2x + x^3"
    assert f"{p:q}" == "-1 + 2q + q^3"
    for spec in ("1x", "x y", "x^2", "-"):
        with pytest.raises(ValueError, match="format spec must be a variable name"):
            format(p, spec)


@given(int_polynomials, int_polynomials, int_polynomials)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == IntPolynomial.zero()
    assert a - b == a + (-b)
    assert (a - b) + b == a
    assert hash(a + b) == hash(b + a) and len({a + b, b + a}) == 1
    assert eval(repr(a), {"IntPolynomial": IntPolynomial}) == a


@given(_bi_coeffs, _bi_coeffs, _bi_coeffs)
def test_bipolynomial_addition_laws(a, b, c):
    a, b, c = BiPolynomial(a), BiPolynomial(b), BiPolynomial(c)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + BiPolynomial({pq: -coeff for pq, coeff in a.items()}) == BiPolynomial.zero()
    assert hash(a + b) == hash(b + a) and len({a + b, b + a}) == 1
    assert eval(repr(a), {"BiPolynomial": BiPolynomial}) == a


@given(int_polynomials, int_polynomials)
def test_division_reconstructs(a, d):
    # force a monic divisor so every elimination step is exact
    d = d + IntPolynomial.monomial(13)
    q, r = divmod(a, d)
    assert q * d + r == a
    assert r.degree() < d.degree()


def test_bipolynomial_basics():
    uv = BiPolynomial.monomial(1, 1)
    assert str(uv) == "u*v"
    assert str(BiPolynomial.monomial(2, 1, 2)) == "2u^2*v"
    assert str(BiPolynomial.zero()) == "0"
    assert str(BiPolynomial.one()) == "1"
    assert not hasattr(uv, "__dict__")
    p = BiPolynomial({(1, 0): 2, (0, 1): 2})
    assert str(p) == "2u + 2v"


def test_bipolynomial_arithmetic():
    u = BiPolynomial.monomial(1, 0)
    v = BiPolynomial.monomial(0, 1)
    one = BiPolynomial.one()
    square = (one + u) * (one + v)
    assert square == BiPolynomial({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert square.coefficient(1, 1) == 1
    assert square.coefficient(2, 0) == 0


def test_bipolynomial_symmetry_and_diagonal():
    p = BiPolynomial({(1, 0): 2, (0, 1): 2, (1, 1): 1})
    assert p.is_symmetric()
    assert not BiPolynomial({(1, 0): 2}).is_symmetric()
    assert p.specialize_diagonal() == IntPolynomial({1: 4, 2: 1})
    assert p.max_exponent() == 1


@given(_bi_coeffs)
def test_bipolynomial_max_exponent_of_unsymmetric_polynomials(coeffs):
    poly = BiPolynomial(coeffs)
    assert poly.max_exponent() == max((max(p, q) for (p, q), _ in poly.items()), default=-1)
    assert BiPolynomial.zero().max_exponent() == -1
    assert BiPolynomial({(3, 0): 1, (0, 5): 1}).max_exponent() == 5


@given(
    st.dictionaries(st.integers(min_value=0, max_value=12), _signed, max_size=8),
    st.sampled_from(["t", "x"]),
)
def test_int_polynomial_str_matches_reference_printer(coeffs, var):
    poly = IntPolynomial(coeffs)
    assert format(poly, var) == reference_int_str(poly, var)


@given(_bi_coeffs)
def test_bipolynomial_str_matches_reference_printer(coeffs):
    poly = BiPolynomial(coeffs)
    assert str(poly) == reference_bi_str(poly)


@pytest.mark.parametrize(
    "poly, text",
    [
        (BiPolynomial({(0, 0): -1, (1, 0): -1, (0, 1): 3, (2, 3): -2}), "-1 - u + 3v - 2u^2*v^3"),
        (BiPolynomial({(0, 2): -1, (1, 1): 1, (2, 0): -5}), "-5u^2 + u*v - v^2"),
        (BiPolynomial({(0, 0): 7, (3, 0): -1}), "7 - u^3"),
        (BiPolynomial({(0, 1): -1}), "-v"),
        (IntPolynomial({0: -1, 1: -1, 2: 3, 5: -2}), "-1 - t + 3t^2 - 2t^5"),
        (IntPolynomial({0: -7}), "-7"),
        (IntPolynomial({1: 1, 4: -1}), "t - t^4"),
    ],
)
def test_signed_polynomial_str(poly, text):
    assert str(poly) == text
    reference = reference_bi_str if isinstance(poly, BiPolynomial) else reference_int_str
    assert reference(poly) == text
