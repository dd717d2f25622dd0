import json
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from curvemotives import (
    BasisKey,
    MotiveClass,
    NonTateTensor,
    direct_sum,
    lambda_coefficient,
    lambda_h1,
    lefschetz,
    moduli_motive_conjectural,
    moduli_motive_delbano,
    sym_power_curve,
    tensor,
    unit,
    zero,
)
from helpers import motive_pairs, motive_triples, motives, reference_tensor


def test_zero_has_no_terms():
    assert zero(2).items() == ()
    assert zero(2).is_zero


def test_zero_is_additive_identity():
    assert direct_sum(zero(3), unit(3)) == unit(3)


def test_zero_absorbs_tensor():
    assert tensor(zero(2), unit(2)) == zero(2)


def test_unit_is_single_term():
    assert unit(2).items() == ((BasisKey(0, 0), 1),)


def test_unit_is_tensor_identity():
    assert tensor(unit(2), lefschetz(2, 5)) == MotiveClass(2, {(0, 5): 1})


def test_lefschetz_power_zero_is_unit():
    assert lefschetz(2, 0) == unit(2)


def test_lefschetz_single_tate_class():
    assert lefschetz(2, 3) == MotiveClass(2, {(0, 3): 1})


def test_lefschetz_exponents_add_under_tensor():
    assert tensor(lefschetz(2, 1), lefschetz(2, 2)) == lefschetz(2, 3)


def test_lambda_index_zero_is_unit():
    assert lambda_h1(2, 0) == unit(2)


def test_lambda_one_is_h1():
    assert lambda_h1(2, 1) == MotiveClass(2, {(1, 0): 1})


def test_lambda_vanishes_above_twice_genus():
    # the realization dimension C(2g, b) vanishes there too
    assert comb(4, 5) == 0
    assert lambda_h1(2, 5) == zero(2)
    assert lambda_h1(2, 4) != zero(2)


@pytest.mark.parametrize("genus", [1, 0, -1])
def test_genus_below_two_rejected(genus):
    for build in (zero, unit):
        with pytest.raises(ValueError):
            build(genus)
    with pytest.raises(ValueError):
        lefschetz(genus, 1)
    with pytest.raises(ValueError):
        lambda_h1(genus, 1)


def test_direct_sum_accumulates_multiplicity():
    assert direct_sum(unit(2), unit(2)) == MotiveClass(2, {(0, 0): 2})


def test_direct_sum_disjoint_keys():
    total = direct_sum(lefschetz(2, 1), lambda_h1(2, 1))
    assert total == MotiveClass(2, {(0, 1): 1, (1, 0): 1})


def test_genus_mismatch_rejected():
    with pytest.raises(ValueError, match="genus mismatch"):
        direct_sum(unit(2), unit(3))
    with pytest.raises(ValueError, match="genus mismatch: 2 vs 3"):
        direct_sum(unit(2), unit(2), unit(3))
    with pytest.raises(ValueError, match="genus mismatch"):
        tensor(unit(2), unit(3))


def test_tensor_basis_rule():
    assert tensor(lambda_h1(2, 1), lefschetz(2, 2)) == MotiveClass(2, {(1, 2): 1})


def test_tensor_expands_tate_products():
    # (1 + L)(1 + L^2) = 1 + L + L^2 + L^3, expanded by hand
    a = MotiveClass(2, {(0, 0): 1, (0, 1): 1})
    b = MotiveClass(2, {(0, 0): 1, (0, 2): 1})
    expected = MotiveClass(2, {(0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1})
    assert tensor(a, b) == expected


def test_tensor_keys_are_basis_keys_with_tate_operand_on_either_side():
    lam = direct_sum(lambda_h1(3, 2), MotiveClass(3, {(1, 4): 2}))
    tate = MotiveClass(3, {(0, 0): 1, (0, 3): 5})
    for product in (tensor(lam, tate), tensor(tate, lam), tensor(tate, tate)):
        assert product.items()
        assert all(type(key) is BasisKey for key, _ in product.items())
    assert tensor(lam, tate) == tensor(tate, lam)


@given(motive_pairs(tate_second=True))
def test_tensor_matches_bilinear_expansion_either_order(pair):
    a, b = pair
    assert tensor(a, b) == reference_tensor(a, b)
    assert tensor(b, a) == reference_tensor(a, b)


def test_tensor_of_two_lambda_classes_rejected():
    with pytest.raises(NonTateTensor):
        tensor(lambda_h1(2, 1), lambda_h1(2, 1))
    mixed = direct_sum(unit(2), lambda_h1(2, 1))
    with pytest.raises(NonTateTensor):
        tensor(mixed, mixed)


def test_operator_sugar_matches_functions():
    a = MotiveClass(2, {(1, 0): 1, (0, 2): 3})
    b = lefschetz(2, 1)
    assert a + b == direct_sum(a, b)
    assert a * b == tensor(a, b)


def test_construction_normalizes():
    m = MotiveClass(2, {(0, 1): 0, (1, 2): 2, (5, 0): 7})
    assert m == MotiveClass(2, {(1, 2): 2})  # zero mult and lambda > 2g dropped
    with pytest.raises(ValueError):
        MotiveClass(2, {(0, 1): -1})
    with pytest.raises(ValueError):
        MotiveClass(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        MotiveClass(2, {(0, -2): 1})
    with pytest.raises(ValueError):
        MotiveClass(2, {(0, 0): "3"})


@pytest.mark.parametrize("key", [(1, 2, 3), (1,), 7])
def test_malformed_basis_key_raises_value_error(key):
    with pytest.raises(ValueError, match="basis key must be a pair"):
        MotiveClass(2, {key: 1})


@pytest.mark.parametrize("key", [(True, False), (1, True), (False, 2), (1.0, 2), ("1", 2)])
def test_non_integer_key_exponent_raises_value_error(key):
    with pytest.raises(ValueError, match="basis key exponents must be integers"):
        MotiveClass(2, {key: 1})


@pytest.mark.parametrize("field", ["lambda", "lefschetz"])
def test_from_dict_bool_exponent_raises_value_error(field):
    term = {"lambda": 1, "lefschetz": 2, "mult": "1"}
    term[field] = True
    with pytest.raises(ValueError, match="basis key exponents must be integers"):
        MotiveClass.from_dict({"genus": 2, "terms": [term]})


@pytest.mark.parametrize("key", [(1, 2, 3), (1,), 7])
def test_multiplicity_of_malformed_key_raises_value_error(key):
    with pytest.raises(ValueError, match="basis key must be a pair"):
        MotiveClass(2, {(0, 1): 1}).multiplicity(key)


def test_multiplicity_len_hash_and_repr():
    m = MotiveClass(2, {(1, 2): 3, (0, 0): 1, (0, 4): 2})
    assert [m.multiplicity(key) for key in ((1, 2), (0, 4), (0, 1), (3, 0))] == [3, 2, 0, 0]
    assert m.multiplicity(BasisKey(0, 0)) == 1
    assert (len(m), len(zero(2))) == (3, 0)
    same = MotiveClass(2, [((0, 4), 2), ((0, 0), 1), ((1, 2), 3)])
    assert hash(m) == hash(same) and len({m, same, zero(2)}) == 2
    assert repr(m) == "MotiveClass(genus=2, terms={(0, 0): 1, (0, 4): 2, (1, 2): 3})"
    assert eval(repr(m)) == m


def test_items_sorted_lexicographically():
    m = MotiveClass(2, {(2, 0): 1, (0, 3): 2, (0, 1): 1, (1, 1): 4})
    assert [tuple(k) for k, _ in m.items()] == [(0, 1), (0, 3), (1, 1), (2, 0)]


def test_serialization_canonical_and_deterministic():
    m = MotiveClass(2, {(1, 1): 1, (0, 3): 1, (0, 0): 2})
    blob = m.to_json()
    assert blob == m.to_json()
    data = json.loads(blob)
    assert data == {
        "genus": 2,
        "terms": [
            {"lambda": 0, "lefschetz": 0, "mult": "2"},
            {"lambda": 0, "lefschetz": 3, "mult": "1"},
            {"lambda": 1, "lefschetz": 1, "mult": "1"},
        ],
    }
    assert MotiveClass.from_dict(data) == m


@pytest.mark.parametrize(
    "data, missing",
    [
        ({"terms": []}, "genus"),
        ({"genus": 2}, "terms"),
        ({"genus": 2, "terms": [{"lefschetz": 0, "mult": "1"}]}, "lambda"),
        ({"genus": 2, "terms": [{"lambda": 0, "mult": "1"}]}, "lefschetz"),
    ],
)
def test_from_dict_missing_field_raises_value_error(data, missing):
    with pytest.raises(ValueError, match=f"missing the field '{missing}'"):
        MotiveClass.from_dict(data)


@pytest.mark.parametrize(
    "data",
    [
        {"genus": 2, "terms": [[0, 0, 1]]},
        {"genus": 2, "terms": [{"lambda": 0, "lefschetz": 0, "mult": None}]},
        {"genus": 2, "terms": [{"lambda": 0, "lefschetz": 0, "mult": 1.9}]},
        {"genus": 2, "terms": [{"lambda": 0, "lefschetz": 0, "mult": True}]},
        {"genus": 2, "terms": [{"lambda": 0, "lefschetz": 0, "mult": "1.9"}]},
        {"genus": 2, "terms": [{"lambda": 0, "lefschetz": 0, "mult": "-1"}]},
        {"genus": 2, "terms": [{"lambda": 0, "lefschetz": 0, "mult": "1_0"}]},
        {"genus": 2, "terms": [{"lambda": 0, "lefschetz": 0, "mult": " 3"}]},
        {"genus": 2, "terms": 7},
        [("genus", 2), ("terms", [])],
        None,
    ],
    ids=[
        "term-is-a-list",
        "mult-is-none",
        "mult-is-a-float",
        "mult-is-a-bool",
        "mult-is-a-float-string",
        "mult-is-negative",
        "mult-has-an-underscore",
        "mult-has-a-space",
        "terms-not-iterable",
        "data-is-a-list",
        "data-is-none",
    ],
)
def test_from_dict_malformed_data_raises_value_error(data):
    with pytest.raises(ValueError, match="motive dict"):
        MotiveClass.from_dict(data)


def test_from_dict_adds_entries_with_the_same_key_like_the_constructor():
    term = {"lambda": 0, "lefschetz": 0}
    data = {"genus": 2, "terms": [{**term, "mult": "1"}, {**term, "mult": 2}]}
    motive = MotiveClass.from_dict(data)
    assert motive == MotiveClass(2, [((0, 0), 1), ((0, 0), 2)])
    assert str(motive) == "3*1"


def test_large_multiplicities_survive_serialization():
    big = comb(60, 30) ** 2
    m = MotiveClass(30, {(0, 0): big})
    assert MotiveClass.from_dict(json.loads(m.to_json())) == m


def test_str_rendering():
    assert str(zero(2)) == "0"
    assert str(unit(2)) == "1"
    m = MotiveClass(2, {(0, 0): 2, (1, 1): 1, (2, 3): 4})
    assert str(m) == "2*1 + h1*L + 4*lam(2)*L^3"


# --- algebraic laws ----------------------------------------------------------

@given(motive_pairs())
def test_direct_sum_commutative(pair):
    a, b = pair
    assert direct_sum(a, b) == direct_sum(b, a)


@given(motive_triples())
def test_direct_sum_associative(triple):
    a, b, c = triple
    assert direct_sum(direct_sum(a, b), c) == direct_sum(a, b, c) == direct_sum(a, direct_sum(b, c))


@given(motives())
def test_zero_identity_law(m):
    assert direct_sum(m, zero(m.genus)) == m


@given(motive_pairs(tate_second=True))
def test_tensor_commutative_when_defined(pair):
    a, b = pair
    assert tensor(a, b) == tensor(b, a)


@given(motive_triples(tate_last_two=True))
def test_tensor_associative_when_defined(triple):
    a, b, c = triple
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))


@given(motives())
def test_unit_tensor_identity_law(m):
    assert tensor(m, unit(m.genus)) == m


@given(motive_triples(tate_last_two=True))
def test_tensor_distributes_over_direct_sum(triple):
    a, b, c = triple
    assert tensor(a, direct_sum(b, c)) == direct_sum(tensor(a, b), tensor(a, c))


@given(motive_pairs(tate_second=True))
def test_closure_invariants(pair):
    a, b = pair
    copies = (MotiveClass(a.genus, a.items()), MotiveClass(b.genus, b.items()))
    for result in (direct_sum(a, b), direct_sum(a, b, a), tensor(a, b)):
        assert all(mult > 0 for _, mult in result.items())
        assert all(key.lambda_index <= 2 * result.genus for key, _ in result.items())
        assert result.to_json() == result.to_json()
    # a sum copies every row it adds into, so neither operand changes
    assert (a, b) == copies


def _assert_canonical_rows(m: MotiveClass) -> None:
    # the validating constructor drops empty rows, zero multiplicities and
    # indices above 2g, so a motive holding any of them compares unequal
    assert m == MotiveClass(m.genus, m.items())
    keys = [key for key, _ in m.items()]
    assert all(left < right for left, right in zip(keys, keys[1:]))


@given(
    motive_pairs(tate_second=True),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=11),
)
def test_every_builder_keeps_the_row_invariants(pair, n, index):
    a, b = pair
    g = a.genus
    delbano = moduli_motive_delbano(g)
    for m in (
        direct_sum(a, b),
        direct_sum(b, a),
        direct_sum(a, b, a),
        direct_sum(a),
        tensor(a, b),
        tensor(b, a),
        tensor(a, zero(g)),
        tensor(zero(g), a),
        sym_power_curve(n, g),
        delbano,
        moduli_motive_conjectural(g),
        lambda_coefficient(a, index),
        lambda_coefficient(delbano, index),
    ):
        _assert_canonical_rows(m)
