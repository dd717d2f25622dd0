import pytest
from hypothesis import given

from curvemotives import (
    BasisKey,
    MotiveClass,
    direct_sum,
    evaluate,
    lambda_coefficient,
    lambda_h1,
    lefschetz,
    moduli_motive_conjectural,
    moduli_motive_delbano,
    parse,
    proof_chain_check,
    sym_power_curve,
    tensor,
    unit,
    zero,
)
from curvemotives.formulas import _bracket, _conjectural, _delbano, _proof_chain
from helpers import brute_force_sym_terms, motives, mutated_conjectural, termwise_bracket

# hand expansion at genus 2: 1 + L + h1*L + L^2 + L^3
DELBANO_G2 = {(0, 0): 1, (0, 1): 1, (1, 1): 1, (0, 2): 1, (0, 3): 1}


def test_sym_power_of_curve_itself():
    assert sym_power_curve(1, 2) == MotiveClass(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})


def test_sym_power_zero_is_unit():
    assert sym_power_curve(0, 3) == unit(3)


def test_sym_power_two_keys():
    expected = {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}
    m = sym_power_curve(2, 2)
    assert {tuple(k) for k in m} == expected
    assert all(mult == 1 for _, mult in m.items())


@pytest.mark.parametrize("genus", [2, 3, 5])
def test_sym_power_matches_triple_enumeration(genus):
    for n in range(0, 2 * genus + 3):
        motive = sym_power_curve(n, genus)
        assert motive == MotiveClass(genus, brute_force_sym_terms(n, genus))
        assert all(type(key) is BasisKey for key, _ in motive.items())


def test_formulas_caches_are_bounded():
    # unbounded, the moduli caches kept every genus a long-lived session had seen
    moduli_motive_delbano.cache_clear()
    moduli_motive_conjectural.cache_clear()
    expression = parse("M + Mconj")
    for genus in range(2, 41):
        evaluate(expression, genus)
    for cache in (moduli_motive_delbano, moduli_motive_conjectural):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize < info.misses
        assert cache(40) is cache(40)  # the last genus stays
    assert sym_power_curve.cache_info().currsize == 0


def test_sym_power_negative_rejected():
    with pytest.raises(ValueError):
        sym_power_curve(-1, 2)


def test_delbano_genus_two_expansion():
    assert moduli_motive_delbano(2) == MotiveClass(2, DELBANO_G2)


@pytest.mark.parametrize("genus", range(2, 9))
def test_delbano_lambda_zero_coefficient(genus):
    # k = 0 summand: (1 + L + ... + L^(g-1)) (x) (1 + L^2 + ... + L^(2g-2))
    linear = MotiveClass(genus, {(0, e): 1 for e in range(0, genus)})
    quadratic = MotiveClass(genus, {(0, e): 1 for e in range(0, 2 * genus - 1, 2)})
    assert lambda_coefficient(moduli_motive_delbano(genus), 0) == tensor(linear, quadratic)


@pytest.mark.parametrize("genus", range(2, 9))
def test_delbano_top_lambda_summand_vanishes(genus):
    # empty geometric factor at k = g
    assert lambda_coefficient(moduli_motive_delbano(genus), genus).is_zero


def test_conjectural_genus_two_expansion():
    assert moduli_motive_conjectural(2) == MotiveClass(2, DELBANO_G2)
    # at genus 2 the outer sum is the single index k = 0
    by_hand = direct_sum(
        tensor(sym_power_curve(0, 2), direct_sum(unit(2), lefschetz(2, 3))),
        tensor(sym_power_curve(1, 2), lefschetz(2, 1)),
    )
    assert moduli_motive_conjectural(2) == by_hand


@pytest.mark.parametrize("genus", range(2, 11))
def test_main_equality_small_range(genus):
    assert moduli_motive_delbano(genus) == moduli_motive_conjectural(genus)


@pytest.mark.parametrize("genus", range(2, 11))
def test_mutated_exponent_breaks_equality(genus):
    assert mutated_conjectural(genus) != moduli_motive_delbano(genus)


def test_lambda_coefficient_examples():
    assert lambda_coefficient(moduli_motive_delbano(2), 1) == lefschetz(2, 1)
    assert lambda_coefficient(unit(3), 0) == unit(3)
    assert lambda_coefficient(moduli_motive_delbano(2), 9) == zero(2)


def test_lambda_coefficient_keys_are_basis_keys():
    m = direct_sum(tensor(lambda_h1(3, 2), MotiveClass(3, {(0, 1): 2, (0, 4): 1})), unit(3))
    coefficient = lambda_coefficient(m, 2)
    assert coefficient == MotiveClass(3, {(0, 1): 2, (0, 4): 1})
    assert all(type(key) is BasisKey for key, _ in coefficient.items())


@given(motives())
def test_lambda_coefficients_reconstruct(m):
    rebuilt = zero(m.genus)
    for i in range(0, 2 * m.genus + 1):
        coefficient = lambda_coefficient(m, i)
        assert coefficient.is_tate
        rebuilt = direct_sum(rebuilt, tensor(lambda_h1(m.genus, i), coefficient))
    assert rebuilt == m


def test_proof_chain_genus_two():
    # both sides of the i = 0 comparison are 1 + L + L^2 + L^3, and L at i = 1
    assert lambda_coefficient(moduli_motive_delbano(2), 0) == MotiveClass(
        2, {(0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1}
    )
    assert proof_chain_check(2, 0)
    assert proof_chain_check(2, 1)
    assert proof_chain_check(2, 2)


@pytest.mark.parametrize("genus", range(2, 11))
def test_proof_chain_small_range(genus):
    assert all(proof_chain_check(genus, i) for i in range(0, genus + 1))


@pytest.mark.parametrize("genus", range(2, 13))
def test_proof_chain_step_checks_the_forms_it_is_given(genus):
    delbano, conjectural = _delbano(genus), _conjectural(genus)
    indices = range(genus + 1)
    assert [_proof_chain(delbano, conjectural, i) for i in indices] == [
        proof_chain_check(genus, i) for i in indices
    ]
    assert not all(_proof_chain(delbano, mutated_conjectural(genus), i) for i in indices)


def test_proof_chain_index_bounds():
    with pytest.raises(ValueError):
        proof_chain_check(3, -1)
    with pytest.raises(ValueError):
        proof_chain_check(3, 4)


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_sym_power_total_dimension(genus):
    from math import comb

    from curvemotives import poincare_polynomial

    for n in range(0, 2 * genus + 1):
        expected = sum(
            comb(2 * genus, b)
            for b in range(0, min(n, 2 * genus) + 1)
            for _ in range(0, n - b + 1)
        )
        poly = poincare_polynomial(sym_power_curve(n, genus))
        assert sum(coeff for _, coeff in poly.items()) == expected


@pytest.mark.parametrize("m", range(-3, 151))
def test_bracket_matches_termwise_sum(m):
    counts = _bracket(m)
    assert counts == termwise_bracket(m)
    assert 0 not in counts.values()
    # at x = 1 the right side (1 + x + ... + x^m)(1 + x^2 + ... + x^2m) is (m+1)^2
    assert sum(counts.values()) == ((m + 1) ** 2 if m >= 0 else 0)
