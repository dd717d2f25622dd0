import copy
import pickle
import time
from math import comb

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from curvemotives import (
    MotiveClass,
    NonTateTensor,
    direct_sum,
    evaluate,
    moduli_motive_conjectural,
    moduli_motive_delbano,
    parse,
    print_expr,
    sym_power_curve,
    tensor,
    unit,
)
from curvemotives.dsl import (
    Curve,
    LambdaH1,
    Lefschetz,
    ModuliConjectural,
    ModuliDelBano,
    ParseError,
    Power,
    Product,
    Sum,
    SymPower,
    Unit,
)
from helpers import MALFORMED, expressions, printable_expressions, reference_print, reference_repr


def test_parse_sum_and_power():
    assert parse("1 + L^3") == Sum(Unit(), Power(Lefschetz(1), 3))


def test_parse_precedence():
    assert parse("lam(1)*L + L^2") == Sum(
        Product(LambdaH1(1), Lefschetz(1)), Power(Lefschetz(1), 2)
    )
    assert parse("1 + L * h1") == Sum(Unit(), Product(Lefschetz(1), LambdaH1(1)))
    assert parse("L^2 * M") == Product(Power(Lefschetz(1), 2), ModuliDelBano())
    assert parse("(1 + L) * L^2") == Product(Sum(Unit(), Lefschetz(1)), Power(Lefschetz(1), 2))


def test_parse_left_associativity():
    assert parse("1 + C + M") == Sum(Sum(Unit(), Curve()), ModuliDelBano())
    assert parse("L * L * L") == Product(Product(Lefschetz(1), Lefschetz(1)), Lefschetz(1))


def test_parse_atoms():
    assert parse("1") == Unit()
    assert parse("L") == Lefschetz(1)
    assert parse("h1") == LambdaH1(1)
    assert parse("lam(4)") == LambdaH1(4)
    assert parse("C") == Curve()
    assert parse("Sym(7)") == SymPower(7)
    assert parse("M") == ModuliDelBano()
    assert parse("Mconj") == ModuliConjectural()
    assert parse("((M))") == ModuliDelBano()


def test_parse_whitespace_insignificant():
    assert parse("  1+L ^ 3 ") == parse("1 + L^3")


def test_parse_unbalanced_paren_position():
    with pytest.raises(ParseError) as info:
        parse("Sym(2) * (L + 1")
    assert info.value.position == 16
    assert "')'" in info.value.reason


@pytest.mark.parametrize("source,position", MALFORMED)
def test_malformed_corpus_positions(source, position):
    with pytest.raises(ParseError) as info:
        parse(source)
    assert info.value.position == position


def test_parse_error_position_is_byte_offset():
    # the two-byte character before the bad token shifts the byte offset
    with pytest.raises(ParseError) as info:
        parse("é")
    assert info.value.position == 1
    with pytest.raises(ParseError) as info:
        parse("L é")
    assert info.value.position == 3
    # U+3000 is whitespace of three bytes
    with pytest.raises(ParseError) as info:
        parse("L\u3000)")
    assert info.value.position == 5
    with pytest.raises(ParseError) as info:
        parse("L +\u3000")
    assert info.value.position == 7


def test_long_trailing_whitespace_parses_in_linear_time():
    # a regex search over trailing whitespace would rescan the rest from each of its positions:
    # seconds for these lengths, against microseconds when it is cut first
    start = time.perf_counter()
    assert parse("L" + " " * 20_000) == Lefschetz(1)
    with pytest.raises(ParseError) as info:
        parse(" " * 20_000)
    assert info.value.reason.startswith("expected an atom") and info.value.position == 20_001
    with pytest.raises(ParseError) as info:
        parse("L +" + "\u3000" * 10_000)
    assert info.value.position == 30_004
    assert time.perf_counter() - start < 1.0


def test_print_examples():
    assert print_expr(Sum(Unit(), Lefschetz(3))) == "1 + L^3"
    assert print_expr(Product(Sum(Unit(), Lefschetz(1)), Lefschetz(2))) == "(1 + L) * L^2"
    assert print_expr(Power(Sum(Unit(), Lefschetz(1)), 2)) == "(1 + L)^2"
    assert print_expr(Sum(Unit(), Sum(Curve(), ModuliDelBano()))) == "1 + (C + M)"
    assert print_expr(Product(Lefschetz(1), Product(Curve(), Curve()))) == "L * (C * C)"
    assert print_expr(LambdaH1(1)) == "h1"
    assert print_expr(LambdaH1(3)) == "lam(3)"
    assert print_expr(Power(Lefschetz(2), 3)) == "(L^2)^3"
    assert print_expr(Power(Lefschetz(1), 3)) == "L^3"


@settings(max_examples=300)
@given(printable_expressions)
def test_print_and_repr_match_recursive_references(expr):
    assert print_expr(expr) == reference_print(expr)
    assert repr(expr) == reference_repr(expr)


@settings(max_examples=300)
@given(expressions)
def test_round_trip(expr):
    assert parse(print_expr(expr)) == expr


@given(st.text(max_size=40))
def test_parser_total_on_arbitrary_text(source):
    try:
        parse(source)
    except ParseError as exc:
        assert exc.position >= 1


def test_nodes_are_tuples_equal_only_within_their_type():
    assert Sum(Unit(), Curve()) == Sum(left=Unit(), right=Curve())
    assert Sum(Unit(), Curve()) != Product(Unit(), Curve())
    assert Lefschetz(1) != LambdaH1(1)
    assert Unit() != () and Lefschetz(2) != (2,)
    assert all(map(bool, [Unit(), Curve(), ModuliDelBano(), ModuliConjectural()]))
    assert Lefschetz() == Lefschetz(power=1)
    assert Power(base=Curve(), exponent=2) == Power(Curve(), 2)
    assert LambdaH1(index=2) == LambdaH1(2) and SymPower(n=3) == SymPower(3)
    assert hash(Sum(Unit(), Curve())) == hash(Sum(Unit(), Curve()))
    assert repr(Sum(Unit(), Lefschetz(1))) == "Sum(Unit(), Lefschetz(1))"
    tree = Power(Sum(LambdaH1(2), Unit()), 3)
    assert copy.deepcopy(tree) == tree == pickle.loads(pickle.dumps(tree))
    assert repr(Power(Product(LambdaH1(2), SymPower(3)), 4)) == (
        "Power(Product(LambdaH1(2), SymPower(3)), 4)"
    )


def test_non_nodes_rejected():
    with pytest.raises(TypeError):
        print_expr(Sum(Unit(), 1))
    with pytest.raises(TypeError):
        evaluate(Power("L", 2), 2)
    with pytest.raises(TypeError):
        Unit(1)


def test_deep_trees_parse_print_and_evaluate():
    flat = parse(" + ".join(["L"] * 30000))
    assert parse(print_expr(flat)) == flat
    assert evaluate(flat, 2) == MotiveClass(2, {(0, 1): 30000})
    nested = Lefschetz(1)
    for _ in range(30000):
        nested = Sum(Unit(), nested)
    text = print_expr(nested)
    assert text.count("(") == 29999
    assert parse(text) == nested and hash(parse(text)) == hash(nested)
    assert repr(parse("1 + (" * 3000 + "L" + ")" * 3000)).startswith("Sum(Unit(), Sum(Unit(), ")
    assert parse("(" * 60000 + "M" + ")" * 60000) == ModuliDelBano()


def test_print_and_repr_of_a_long_chain_take_linear_time():
    # Building each node's text from its children's strings took quadratic time:
    # repr of this chain ran for about 25 s.
    chain = LambdaH1(1)
    for _ in range(99999):
        chain = Sum(chain, LambdaH1(1))
    start = time.process_time()
    text = print_expr(chain)
    print_s = time.process_time() - start
    start = time.process_time()
    shown = repr(chain)
    repr_s = time.process_time() - start
    assert print_s < 1.0 and repr_s < 1.0, (print_s, repr_s)
    assert text == " + ".join(["h1"] * 100000) and parse(text) == chain
    assert shown == "Sum(" * 99999 + "LambdaH1(1)" + ", LambdaH1(1))" * 99999


def test_hash_of_a_very_deep_tree():
    # tuple.__hash__ would recurse in C through the children and overflow the stack
    chain = Lefschetz(1)
    for _ in range(300000):
        chain = Sum(chain, Unit())
    assert isinstance(hash(chain), int)


def test_negative_node_values_rejected():
    with pytest.raises(ValueError):
        SymPower(-1)
    with pytest.raises(ValueError):
        Power(Unit(), -2)
    with pytest.raises(ValueError):
        LambdaH1(-1)


# --- evaluation ------------------------------------------------------------------

def test_evaluate_atoms():
    assert evaluate(parse("M"), 2) == moduli_motive_delbano(2)
    assert evaluate(parse("Mconj"), 3) == moduli_motive_conjectural(3)
    assert evaluate(parse("C"), 2) == sym_power_curve(1, 2)
    assert evaluate(parse("Sym(1)"), 2) == evaluate(parse("C"), 2)
    assert evaluate(parse("1"), 4) == unit(4)
    assert evaluate(parse("lam(2)"), 2) == MotiveClass(2, {(2, 0): 1})


@pytest.mark.parametrize("genus", range(2, 9))
def test_evaluate_moduli_forms_agree(genus):
    assert evaluate(parse("Mconj"), genus) == evaluate(parse("M"), genus)


def test_evaluate_power_conventions():
    assert evaluate(parse("L^0"), 2) == unit(2)
    assert evaluate(parse("h1^0"), 2) == unit(2)
    assert evaluate(parse("L^3"), 2) == MotiveClass(2, {(0, 3): 1})
    assert evaluate(parse("h1^1"), 2) == MotiveClass(2, {(1, 0): 1})


def test_evaluate_non_tate_tensor_names_subexpression():
    with pytest.raises(NonTateTensor, match=r"h1 \* h1"):
        evaluate(parse("h1 * h1"), 2)
    with pytest.raises(NonTateTensor, match=r"h1\^2"):
        evaluate(parse("h1^2"), 2)
    with pytest.raises(NonTateTensor, match=r"C \* C"):
        evaluate(parse("1 + C * C"), 2)
    with pytest.raises(NonTateTensor, match=r"in '\(h1 \+ L\)\^3'$"):
        evaluate(parse("(h1 + L)^3"), 2)


def test_evaluate_large_power_by_squaring():
    assert evaluate(parse("L^99999999"), 2) == MotiveClass(2, {(0, 99999999): 1})
    assert evaluate(parse("(1 + L)^64"), 2) == MotiveClass(
        2, {(0, c): comb(64, c) for c in range(65)}
    )


@given(expressions, st.integers(min_value=0, max_value=5), st.integers(min_value=2, max_value=4))
def test_power_equals_the_left_nested_product(base, n, genus):
    product = Unit()
    for k in range(n):
        product = base if k == 0 else Product(product, base)
    try:
        evaluate(base, genus)  # a power evaluates its base even for n = 0
        expected = evaluate(product, genus)
    except NonTateTensor:
        with pytest.raises(NonTateTensor):
            evaluate(Power(base, n), genus)
        return
    assert evaluate(Power(base, n), genus) == expected


def test_evaluate_rejects_low_genus():
    with pytest.raises(ValueError):
        evaluate(parse("M"), 1)


@given(expressions, expressions, st.integers(min_value=2, max_value=4))
def test_evaluate_sum_homomorphism(a, b, genus):
    try:
        left, right = evaluate(a, genus), evaluate(b, genus)
    except NonTateTensor:
        assume(False)
    assert evaluate(Sum(a, b), genus) == direct_sum(left, right)


@given(expressions, expressions, st.integers(min_value=2, max_value=4))
def test_evaluate_product_homomorphism(a, b, genus):
    try:
        left, right = evaluate(a, genus), evaluate(b, genus)
    except NonTateTensor:
        assume(False)
    try:
        via_node = evaluate(Product(a, b), genus)
    except NonTateTensor:
        with pytest.raises(NonTateTensor):
            tensor(left, right)
        return
    assert via_node == tensor(left, right)
