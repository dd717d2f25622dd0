import json
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given

import curvemotives
from curvemotives import (
    MotiveClass,
    atiyah_bott_oracle,
    block_decomposition_report,
    direct_sum,
    hodge_diamond_rows,
    hodge_polynomial,
    key_identity_sides,
    lambda_h1,
    lefschetz,
    macdonald_oracle,
    macdonald_series,
    moduli_motive_conjectural,
    moduli_motive_delbano,
    poincare_polynomial,
    render_hodge_diamond,
    sym_power_curve,
    tensor,
    verify_key_identity,
)
from curvemotives import cli, core, formulas, realization
from curvemotives.realization import _realize_in_order, pair_table
from curvemotives.polynomials import BiPolynomial, IntPolynomial
from helpers import (
    ALTERATIONS,
    altered_motive,
    altered_rows,
    atiyah_bott_hodge_numerator,
    hodge_macdonald_series,
    motive_pairs,
    motives,
    mutated_identity_lhs,
    reference_atiyah_bott,
    reference_block_csv,
    reference_block_json,
    reference_block_report,
    reference_block_report_dict,
    reference_block_text,
    reference_hodge,
    reference_poincare,
    truncated_macdonald,
)

AB_G2 = IntPolynomial({0: 1, 2: 1, 3: 4, 4: 1, 6: 1})
# frozen from an independent computer-algebra expansion of the closed form
AB_G3 = IntPolynomial({0: 1, 2: 1, 3: 6, 4: 2, 5: 6, 6: 16, 7: 6, 8: 2, 9: 6, 10: 1, 12: 1})


def test_poincare_of_lefschetz():
    assert poincare_polynomial(lefschetz(4, 1)) == IntPolynomial({2: 1})


def test_poincare_of_single_key():
    # C(4, 1) = 4 in degree 1 + 2*1 = 3
    assert poincare_polynomial(MotiveClass(2, {(1, 1): 1})) == IntPolynomial({3: 4})


def test_poincare_of_moduli_genus_two():
    poly = poincare_polynomial(moduli_motive_delbano(2))
    assert poly == AB_G2
    assert str(poly) == "1 + t^2 + 4t^3 + t^4 + t^6"


def test_hodge_of_lefschetz():
    assert hodge_polynomial(lefschetz(3, 1)) == BiPolynomial.monomial(1, 1)


def test_hodge_of_h1():
    assert hodge_polynomial(lambda_h1(2, 1)) == BiPolynomial({(1, 0): 2, (0, 1): 2})


@st.composite
def motives_with_high_lambda(draw):
    """A random motive plus lam(b)*L^c with g < b <= 2g, where some of the
    products C(g, p) C(g, b - p) vanish."""
    m = draw(motives())
    g = m.genus
    b = draw(st.integers(min_value=g + 1, max_value=2 * g))
    c = draw(st.integers(min_value=0, max_value=8))
    return direct_sum(m, MotiveClass(g, {(b, c): draw(st.integers(min_value=1, max_value=4))}))


@given(motives_with_high_lambda())
def test_realizations_match_readme_formulas(m):
    poincare, hodge = poincare_polynomial(m), hodge_polynomial(m)
    assert poincare == reference_poincare(m)
    assert hodge == reference_hodge(m)
    assert all(coeff != 0 for _, coeff in poincare.items())
    assert all(coeff != 0 for _, coeff in hodge.items())


@given(motives())
def test_hodge_specializes_to_poincare(m):
    assert hodge_polynomial(m).specialize_diagonal() == poincare_polynomial(m)


@given(motive_pairs())
def test_realization_additive(pair):
    a, b = pair
    total = direct_sum(a, b)
    assert poincare_polynomial(total) == poincare_polynomial(a) + poincare_polynomial(b)
    assert hodge_polynomial(total) == hodge_polynomial(a) + hodge_polynomial(b)


@given(motive_pairs(tate_second=True))
def test_realization_multiplicative(pair):
    a, b = pair
    product = tensor(a, b)
    assert poincare_polynomial(product) == poincare_polynomial(a) * poincare_polynomial(b)
    assert hodge_polynomial(product) == hodge_polynomial(a) * hodge_polynomial(b)


@given(motives())
def test_hodge_symmetry(m):
    assert hodge_polynomial(m).is_symmetric()


@st.composite
def motive_sequences(draw):
    """Up to eight motives at one genus.  After the first, each is the one
    before (the same object), an independent motive, or the one before with
    one term gained (at the front or the end of its row), lost or given a
    new multiplicity; so rows grow, shrink, vanish and reappear."""
    genus = draw(st.integers(min_value=2, max_value=4))
    sequence = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        steps = ("same", "fresh", "gain", "lose", "mult") if sequence else ("fresh",)
        step = draw(st.sampled_from(steps))
        if step == "same":
            sequence.append(sequence[-1])
            continue
        if step == "fresh":
            sequence.append(draw(motives(genus=genus)))
            continue
        terms = dict(sequence[-1].items())
        mult = draw(st.integers(min_value=1, max_value=4))
        if step == "gain" or not terms:
            key = (draw(st.integers(min_value=0, max_value=2 * genus)),
                   draw(st.integers(min_value=0, max_value=9)))
            if key in terms:
                terms[key] += mult
            elif draw(st.booleans()):
                terms = {key: mult, **terms}
            else:
                terms[key] = mult
        else:
            key = draw(st.sampled_from(sorted(terms)))
            if step == "lose":
                del terms[key]
            else:
                terms[key] = mult
        sequence.append(MotiveClass(genus, terms))
    return sequence


@given(motive_sequences())
def test_realizing_in_order_equals_realizing_each(sequence):
    """Every result is kept until the end, so a later step that changed an
    earlier result would fail here too."""
    assert list(_realize_in_order(iter(sequence))) == [reference_poincare(m) for m in sequence]
    assert list(_realize_in_order(iter(sequence), hodge=True)) == [
        reference_hodge(m) for m in sequence
    ]


def test_realizing_in_order_after_steps_that_subtract():
    """Steps that take terms away are not growth, so each is realized
    afresh, with no coefficient 0.  At genus 2: Sym^5 -> Sym^4 (every row
    loses its top term), Sym^4 -> Sym^3 -> Sym^2 (row 4, then row 3
    vanishes too), a multiplicity raised and lowered again, and Sym^2 ->
    the zero motive."""
    powers = [sym_power_curve(n, 2) for n in (5, 4, 3, 2)]
    terms = dict(powers[-1].items())
    terms[(0, 0)] = 2
    sequence = [*powers, MotiveClass(2, terms), powers[-1], MotiveClass(2, {})]
    assert list(_realize_in_order(iter(sequence))) == [reference_poincare(m) for m in sequence]
    assert list(_realize_in_order(iter(sequence), hodge=True)) == [
        reference_hodge(m) for m in sequence
    ]


def test_realizing_in_order_reads_the_motives_lazily():
    def powers():
        yield sym_power_curve(0, 2)
        raise AssertionError("read before its result was asked for")

    for hodge in (False, True):
        results = _realize_in_order(powers(), hodge=hodge)
        assert next(results) == (reference_hodge if hodge else reference_poincare)(
            sym_power_curve(0, 2))


SYM = [sym_power_curve(n, 2) for n in range(4)]
# each is a step that is not growth, after a run that is
NOT_GROWTH = {
    "a new term not last": [*SYM, MotiveClass(2, {(0, 0): 1, (0, 9): 1}),
                            MotiveClass(2, {(0, 8): 1, (0, 0): 1, (0, 9): 1})],
    "an old term reweighted": [*SYM, MotiveClass(2, {(0, 0): 1}),
                               MotiveClass(2, {(0, 0): 2, (0, 1): 1})],
    "a row vanished": [*SYM, MotiveClass(2, {(0, 0): 1, (1, 0): 1}),
                       MotiveClass(2, {(0, 0): 1, (0, 1): 1})],
    "a term lost": [*SYM, SYM[2]],
}


@pytest.mark.parametrize("name", NOT_GROWTH)
def test_realizing_in_order_goes_afresh_unless_every_row_grew(name):
    """Sym^0..Sym^3 grow, and every result is kept, so a step that changed
    the previous result fails here; then one step misses the growth rule
    in the way its name says, so it must go afresh."""
    sequence = NOT_GROWTH[name]
    assert list(_realize_in_order(iter(sequence))) == [reference_poincare(m) for m in sequence]
    assert list(_realize_in_order(iter(sequence), hodge=True)) == [
        reference_hodge(m) for m in sequence
    ]


@pytest.mark.parametrize("hodge", [False, True])
def test_realizing_symmetric_powers_adds_one_term_per_row(monkeypatch, hodge):
    """Along Sym^0..Sym^2g at genus 3 (the Macdonald check's powers) and the
    powers of the genus-3 block report, every row of each Sym^n, grown or
    new, gets exactly one term from the adder: no step goes afresh."""
    added = []

    def counting(rows):
        def make(genus):
            add = rows(genus)

            def counted(coeffs, b, terms):
                terms = list(terms)
                added.append((b, len(terms)))
                add(coeffs, b, terms)
            return counted
        return make

    monkeypatch.setattr(realization, "_betti_rows", counting(realization._betti_rows))
    monkeypatch.setattr(realization, "_hodge_rows", counting(realization._hodge_rows))
    powers = [sym_power_curve(n, 3) for n in range(7)]
    reference = reference_hodge if hodge else reference_poincare
    assert list(_realize_in_order(iter(powers), hodge)) == list(map(reference, powers))
    assert added == [(b, 1) for n in range(7) for b in range(n + 1)]
    added.clear()
    block_decomposition_report(3)
    assert added == [(b, 1) for k in range(3) for b in range(k + 1)]


def test_oracles_never_touch_the_motive_algebra(monkeypatch):
    """The Poincare oracles of ``realization`` and the Hodge ones of the test
    helpers return the same values with the kernel, its adders, the closed
    forms, ``sym_power_curve``, ``tensor`` and ``direct_sum`` made to raise."""
    def oracles():
        return [(atiyah_bott_oracle(g), macdonald_series(g, 2 * g),
                 atiyah_bott_hodge_numerator(g), hodge_macdonald_series(g, 2 * g))
                for g in range(2, 7)]

    expected = oracles()

    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle used the motive algebra")

    names = ("_realize_in_order", "_betti_rows", "_hodge_rows", "_delbano", "_conjectural",
             "sym_power_curve", "tensor", "direct_sum")
    for module in (curvemotives, core, formulas, realization, cli):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(AssertionError, match="motive algebra"):
        poincare_polynomial(lefschetz(2))
    assert oracles() == expected


@pytest.mark.parametrize("genus", range(2, 9))
def test_poincare_duality_for_moduli(genus):
    diamond = hodge_polynomial(moduli_motive_delbano(genus))
    n = 3 * genus - 3
    for (p, q), coeff in diamond.items():
        assert diamond.coefficient(n - p, n - q) == coeff


# --- key identity -------------------------------------------------------------

def test_identity_sides_m_one():
    lhs, rhs = key_identity_sides(1)
    expected = IntPolynomial({0: 1, 1: 1, 2: 1, 3: 1})
    assert lhs == expected
    assert rhs == expected


def test_identity_sides_m_two():
    lhs, rhs = key_identity_sides(2)
    product = IntPolynomial.geometric(2) * IntPolynomial.geometric(4, step=2)
    assert lhs == product
    assert rhs == product


@pytest.mark.parametrize("m", range(1, 31))
def test_identity_small_range(m):
    assert verify_key_identity(m)


@pytest.mark.parametrize("m", range(1, 31))
def test_identity_shape(m):
    lhs, rhs = key_identity_sides(m)
    for side in (lhs, rhs):
        assert side.degree() == 3 * m
        assert side.coefficient(0) == 1


@pytest.mark.parametrize("m", range(1, 31))
def test_mutated_identity_fails(m):
    _, rhs = key_identity_sides(m)
    assert mutated_identity_lhs(m) != rhs


def test_identity_rejects_m_zero():
    with pytest.raises(ValueError):
        verify_key_identity(0)


# --- oracles -------------------------------------------------------------------

def test_atiyah_bott_genus_two():
    assert atiyah_bott_oracle(2) == AB_G2


def test_atiyah_bott_genus_three():
    assert atiyah_bott_oracle(3) == AB_G3


@pytest.mark.parametrize("genus", range(2, 11))
def test_atiyah_bott_degree(genus):
    assert atiyah_bott_oracle(genus).degree() == 6 * genus - 6


@pytest.mark.parametrize("genus", range(2, 11))
def test_atiyah_bott_matches_moduli_realization(genus):
    assert atiyah_bott_oracle(genus) == poincare_polynomial(moduli_motive_delbano(genus))


@pytest.mark.parametrize("genus", range(2, 31))
def test_atiyah_bott_matches_generic_products(genus):
    assert atiyah_bott_oracle(genus) == reference_atiyah_bott(genus)


def test_atiyah_bott_remainder_raises(monkeypatch, capsys):
    # C(6, 2) = 18 in place of 15 adds 3t^6 - 3t^8 to the genus-3 numerator,
    # which leaves 3t^2 - 3t^4 over (1-t^2)(1-t^4) = 1 - t^2 - t^4 + t^6
    def wrong_comb(n, k):
        return math.comb(n, k) + 3 * ((n, k) == (6, 2))

    monkeypatch.setattr(realization, "comb", wrong_comb)
    message = "division left a remainder at genus 3: lowest term 3 in degree 2"
    with pytest.raises(ArithmeticError, match=f"^{message}$"):
        atiyah_bott_oracle(3)
    code = cli.main(["verify-theorem", "--genus", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")


def test_macdonald_constant_coefficient():
    assert macdonald_oracle(0, 2) == IntPolynomial.one()
    assert macdonald_oracle(0, 7) == IntPolynomial.one()


def test_macdonald_first_coefficients():
    assert macdonald_oracle(1, 2) == IntPolynomial({0: 1, 1: 4, 2: 1})
    assert macdonald_oracle(2, 2) == IntPolynomial({0: 1, 1: 4, 2: 7, 3: 4, 4: 1})


@pytest.mark.parametrize("genus", range(2, 6))
def test_macdonald_matches_sym_realization(genus):
    for n in range(0, 2 * genus + 1):
        assert macdonald_oracle(n, genus) == poincare_polynomial(sym_power_curve(n, genus))


@pytest.mark.parametrize("genus", range(2, 9))
def test_macdonald_series_matches_truncated_expansion(genus):
    order = 2 * genus + 3
    series = macdonald_series(genus, order)
    assert len(series) == order + 1
    assert series == [truncated_macdonald(n, genus) for n in range(order + 1)]


@pytest.mark.parametrize("genus", [2, 5, 11])
def test_macdonald_series_prefix_and_oracle(genus):
    for k in range(0, 2 * genus + 2):
        short = macdonald_series(genus, k)
        assert short == macdonald_series(genus, k + 5)[: k + 1]
        assert macdonald_oracle(k, genus) == short[k]


def test_macdonald_error_paths():
    with pytest.raises(ValueError):
        macdonald_oracle(-1, 2)
    with pytest.raises(ValueError):
        macdonald_oracle(0, 1)
    with pytest.raises(ValueError):
        macdonald_series(1, 3)
    with pytest.raises(ValueError):
        macdonald_series(2, -1)


def test_macdonald_series_genus_100_spot_check():
    series = macdonald_series(100, 201)
    for n in (0, 1, 99, 100, 101, 199, 200, 201):
        assert series[n] == poincare_polynomial(sym_power_curve(n, 100))


# --- block decomposition --------------------------------------------------------

def test_block_report_genus_two():
    report = block_decomposition_report(2)
    assert [(b.sym_power, b.twist) for b in report.blocks] == [(0, 0), (0, 3), (1, 1)]
    assert report.blocks[0].hodge == BiPolynomial.one()
    assert report.blocks[1].hodge == BiPolynomial.monomial(3, 3)
    assert report.blocks[2].hodge == BiPolynomial(
        {(1, 1): 1, (2, 1): 2, (1, 2): 2, (2, 2): 1}
    )
    assert report.total == hodge_polynomial(moduli_motive_delbano(2))
    assert report.blocks[0].label == "Sym(0)*L^0"


@pytest.mark.parametrize("genus", range(2, 11))
def test_block_count_and_total(genus):
    report = block_decomposition_report(genus)
    assert len(report.blocks) == 2 * genus - 1
    total = BiPolynomial.zero()
    for block in report.blocks:
        total = total + block.hodge
    assert total == report.total
    assert report.total == hodge_polynomial(moduli_motive_delbano(genus))


@pytest.mark.parametrize("genus", range(2, 41))
def test_blocks_are_twisted_sym_power_realizations(genus):
    report = block_decomposition_report(genus)
    for block in report.blocks:
        twist = BiPolynomial.monomial(block.twist, block.twist)
        assert block.hodge == hodge_polynomial(sym_power_curve(block.sym_power, genus)) * twist
        assert all(coeff != 0 for _, coeff in block.hodge.items())
    assert all(coeff != 0 for _, coeff in report.total.items())
    assert report.total == hodge_polynomial(moduli_motive_conjectural(genus))


# each renderer's reference, built from a reference report
RENDERINGS = (("text", reference_block_text), ("json", reference_block_json),
              ("csv", reference_block_csv))


def _assert_renders_as(report, reference, *context) -> None:
    """Each of the report's three renderings equals that of ``reference``,
    both with the renderer's own pair table and with the larger one that
    ``decompose`` makes for genus 2..12."""
    for form, render in RENDERINGS:
        expected = render(reference)
        for pairs in (None, pair_table(form, 3 * 12 - 3)):
            assert getattr(report, f"to_{form}")(pairs) == expected, (form, pairs is None, *context)


@pytest.mark.parametrize("kind", ALTERATIONS)
@pytest.mark.parametrize("k", range(3))
def test_block_report_realizes_an_altered_symmetric_power(monkeypatch, k, kind):
    """At genus 3, Sym^k alone gains, loses or reweights one term, in each of
    its rows in turn: its blocks must be the twisted realization of the
    altered motive, every other block that of the true one.  The report's
    text, json and csv must be those of a reference report built from the
    same blocks, so every block is rendered from every term of its power;
    Sym^0 gaining a term reaches an exponent above 3g - 3, and losing its
    one term leaves two empty blocks."""
    motive = sym_power_curve(k, 3)
    for b in altered_rows(motive, kind):
        altered = altered_motive(motive, b, kind)
        monkeypatch.setattr(
            realization, "sym_power_curve",
            lambda n, genus: altered if n == k else sym_power_curve(n, genus),
        )
        report = block_decomposition_report(3)
        total = BiPolynomial.zero()
        for block in report.blocks:
            source = altered if block.sym_power == k else sym_power_curve(block.sym_power, 3)
            twist = BiPolynomial.monomial(block.twist, block.twist)
            assert block.hodge == hodge_polynomial(source) * twist, (b, kind, block.label)
            total = total + block.hodge
        assert report.total == total
        reference = reference_block_report(
            3, lambda n: reference_hodge(altered if n == k else sym_power_curve(n, 3))
        )
        _assert_renders_as(report, reference, b, kind)


@pytest.mark.parametrize("genus", range(2, 13))
def test_block_report_renders_as_the_references(genus):
    """Text, json and csv of the report equal those of a reference report,
    whose blocks are realized by ``reference_hodge`` and twisted by
    multiplication, rendered by ``reference_bi_str``, ``json.dumps`` and
    ``csv.writer``."""
    reference = reference_block_report(
        genus, lambda k: reference_hodge(sym_power_curve(k, genus))
    )
    _assert_renders_as(block_decomposition_report(genus), reference, genus)


def test_block_report_refuses_a_pair_table_that_misses_an_exponent():
    report = block_decomposition_report(4)  # largest exponent 3g - 3 = 9
    for form in ("text", "json", "csv"):
        render = getattr(report, f"to_{form}")
        with pytest.raises(ValueError, match="exponent 9"):
            render(pair_table(form, 8))
        assert render(pair_table(form, 9)) == render()


@pytest.mark.parametrize("genus", range(2, 31))
def test_report_blocks_sum_to_the_symmetric_power_form(genus):
    """The report's (sym_power, twist) list is the symmetric-power form itself,
    compared as motives, not only through the Hodge sums of criterion 8."""
    total = MotiveClass(genus)
    for block in block_decomposition_report(genus).blocks:
        summand = tensor(sym_power_curve(block.sym_power, genus), lefschetz(genus, block.twist))
        total = direct_sum(total, summand)
    assert total == moduli_motive_conjectural(genus)


def test_block_report_json_schema():
    data = json.loads(block_decomposition_report(2).to_json())
    assert data["genus"] == 2
    assert [b["sym_power"] for b in data["blocks"]] == [0, 0, 1]
    assert [b["twist"] for b in data["blocks"]] == [0, 3, 1]
    assert data["blocks"][0]["hodge"] == [[0, 0, "1"]]
    assert [0, 0, "1"] in data["total"]
    assert all(isinstance(c, str) for _, _, c in data["total"])


@pytest.mark.parametrize("genus", range(2, 9))
def test_block_report_json_matches_the_reference_tree(genus):
    report = block_decomposition_report(genus)
    reference = reference_block_report_dict(report)
    assert report.to_json() == json.dumps(reference, separators=(",", ":"))
    assert report.to_dict() == reference


# --- diamond rendering -----------------------------------------------------------

def test_diamond_rows_moduli_genus_two():
    rows = hodge_diamond_rows(hodge_polynomial(moduli_motive_delbano(2)))
    assert rows == [
        [1],
        [0, 0],
        [0, 1, 0],
        [0, 2, 2, 0],
        [0, 1, 0],
        [0, 0],
        [1],
    ]


def test_diamond_rows_zero():
    assert hodge_diamond_rows(BiPolynomial.zero()) == [[0]]


def test_render_diamond_genus_two():
    text = render_hodge_diamond(hodge_polynomial(moduli_motive_delbano(2)))
    assert text.splitlines() == [
        "   1",
        "  0 0",
        " 0 1 0",
        "0 2 2 0",
        " 0 1 0",
        "  0 0",
        "   1",
    ]
