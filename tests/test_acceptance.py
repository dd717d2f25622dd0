"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact integer/polynomial arithmetic; run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import json
import random
from math import comb

from curvemotives import (
    hodge_polynomial,
    moduli_motive_conjectural,
    moduli_motive_delbano,
    parse,
    poincare_polynomial,
    print_expr,
    proof_chain_check,
    verify_key_identity,
    atiyah_bott_oracle,
    block_decomposition_report,
    macdonald_series,
    sym_power_curve,
)
from curvemotives.cli import main
from curvemotives.dsl import LambdaH1, Lefschetz, ParseError, Power, Product, Sum, Unit
from curvemotives.polynomials import BiPolynomial, IntPolynomial
from helpers import (
    ATIYAH_BOTT_HODGE_DENOMINATOR,
    MALFORMED,
    atiyah_bott_hodge_numerator,
    hodge_macdonald_series,
    mutated_conjectural,
    mutated_identity_lhs,
    random_expression,
)

GENUS_RANGE = range(2, 31)
WIDE_GENUS_RANGE = range(2, 61)


def _report(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_01_main_decomposition():
    ok = all(moduli_motive_delbano(g) == moduli_motive_conjectural(g) for g in WIDE_GENUS_RANGE)
    _report("criterion 1: moduli decompositions agree exactly for genus 2..60", ok)


def test_criterion_02_proof_chain():
    ok = all(proof_chain_check(g, i) for g in WIDE_GENUS_RANGE for i in range(0, g + 1))
    _report("criterion 2: lambda-coefficient proof chain holds for all 0 <= i <= g, genus 2..60", ok)


def test_criterion_03_key_identity():
    ok = all(verify_key_identity(m) for m in range(1, 101))
    _report("criterion 3: Lefschetz-power identity holds for m = 1..100 (division-free)", ok)


def test_criterion_04_atiyah_bott_oracle():
    expected_g2 = IntPolynomial({0: 1, 2: 1, 3: 4, 4: 1, 6: 1})
    ok = atiyah_bott_oracle(2) == expected_g2
    ok = ok and poincare_polynomial(moduli_motive_delbano(2)) == expected_g2
    ok = ok and all(
        atiyah_bott_oracle(g) == poincare_polynomial(moduli_motive_delbano(g))
        for g in WIDE_GENUS_RANGE
    )
    _report("criterion 4: Atiyah-Bott closed form matches the realized moduli motive, genus 2..60", ok)


def test_criterion_05_macdonald_oracle():
    ok = all(
        series[n] == poincare_polynomial(sym_power_curve(n, g))
        for g in WIDE_GENUS_RANGE
        for series in [macdonald_series(g, 2 * g)]
        for n in range(0, 2 * g + 1)
    )
    _report("criterion 5: Macdonald series matches realized symmetric powers, n = 0..2g, genus 2..60", ok)


def test_criterion_06_realization_properties():
    ok = True
    for g in GENUS_RANGE:
        moduli = moduli_motive_delbano(g)
        diamond = hodge_polynomial(moduli)
        ok = ok and diamond.is_symmetric()
        n = 3 * g - 3
        ok = ok and all(
            diamond.coefficient(n - p, n - q) == coeff for (p, q), coeff in diamond.items()
        )
        ok = ok and diamond.specialize_diagonal() == poincare_polynomial(moduli)
    _report("criterion 6: Hodge symmetry, Poincare duality and H(t,t) = P(t), genus 2..30", ok)


def test_criterion_07_mutation_sensitivity():
    ok = all(mutated_conjectural(g) != moduli_motive_delbano(g) for g in GENUS_RANGE)
    ok = ok and all(
        mutated_identity_lhs(m) != IntPolynomial.geometric(m) * IntPolynomial.geometric(2 * m, step=2)
        for m in range(1, 101)
    )
    _report("criterion 7: mutated exponents are detected for every genus 2..30 and m 1..100", ok)


def test_criterion_08_block_decomposition():
    ok = True
    for g in WIDE_GENUS_RANGE:
        report = block_decomposition_report(g)
        ok = ok and len(report.blocks) == 2 * g - 1
        total = BiPolynomial.zero()
        for block in report.blocks:
            total = total + block.hodge
        ok = ok and total == report.total == hodge_polynomial(moduli_motive_delbano(g))
    _report("criterion 8: 2g-1 blocks whose Hodge polynomials sum to the moduli diamond, genus 2..60", ok)


def test_criterion_09_parser_suite():
    rng = random.Random(20260810)
    trees = [random_expression(rng) for _ in range(1000)]
    ok = all(parse(print_expr(tree)) == tree for tree in trees)

    corpus_ok = len(MALFORMED) >= 20
    for source, position in MALFORMED:
        try:
            parse(source)
            corpus_ok = False
        except ParseError as exc:
            corpus_ok = corpus_ok and exc.position == position
    ok = ok and corpus_ok

    ok = ok and parse("1 + L^3") == Sum(Unit(), Power(Lefschetz(1), 3))
    ok = ok and parse("lam(1)*L + L^2") == Sum(
        Product(LambdaH1(1), Lefschetz(1)), Power(Lefschetz(1), 2)
    )
    _report("criterion 9: 1000 round trips, >= 20 positioned parse errors, precedence fixtures", ok)


def test_criterion_10_cli_contract(capsys):
    codes = {}
    codes[0] = main(["equal", "--genus-min", "2", "--genus-max", "8", "M", "Mconj"])
    codes[1] = main(["equal", "--genus", "2", "M", "M + L"])
    codes[2] = main(["eval", "--genus", "2", "Sym(2) * (L + 1"])
    codes[3] = main(["eval", "--genus", "2", "h1 * h1"])
    capsys.readouterr()
    ok = all(code == expected for expected, code in codes.items())

    outputs = set()
    for jobs in ("1", "1", "3"):
        code = main(["verify-theorem", "--genus-min", "2", "--genus-max", "4",
                     "--format", "json", "--jobs", jobs])
        outputs.add(capsys.readouterr().out)
        ok = ok and code == 0
    ok = ok and len(outputs) == 1
    _report("criterion 10: exit codes 0/1/2/3 and byte-identical JSON across runs and --jobs", ok)


def test_criterion_11_hodge_atiyah_bott_oracle():
    ok = all(
        hodge_polynomial(moduli(g)) * ATIYAH_BOTT_HODGE_DENOMINATOR
        == atiyah_bott_hodge_numerator(g)
        for g in WIDE_GENUS_RANGE
        for moduli in (moduli_motive_delbano, moduli_motive_conjectural)
    )
    _report("criterion 11: H(M)(1-uv)(1-u^2v^2) matches the Hodge Atiyah-Bott form, genus 2..60", ok)


def test_criterion_12_hodge_macdonald_oracle():
    ok = all(
        series[n] == hodge_polynomial(sym_power_curve(n, g))
        for g in GENUS_RANGE
        for series in [hodge_macdonald_series(g, 2 * g)]
        for n in range(0, 2 * g + 1)
    )
    _report("criterion 12: Hodge Macdonald series matches realized symmetric powers, n = 0..2g, "
            "genus 2..30", ok)


def test_criterion_13_published_moduli_invariants(capsys):
    """Hodge numbers of the moduli space M from the literature, read from the
    ``total`` of each genus in ``decompose --format json``; the expected
    values are written out here, with no oracle and no motive code."""
    code = main(["decompose", "--genus-min", "2", "--genus-max", "30", "--format", "json"])
    reports = json.loads(capsys.readouterr().out)
    ok = code == 0 and [report["genus"] for report in reports] == list(GENUS_RANGE)
    for report in reports:
        g = report["genus"]
        hodge = {(p, q): int(c) for p, q, c in report["total"]}
        ok = ok and (
            # dim M = 3g - 3: the degree in u and in v, with h^{3g-3,3g-3} = 1
            max(p for p, _ in hodge) == max(q for _, q in hodge) == 3 * g - 3
            and hodge.get((3 * g - 3, 3 * g - 3)) == 1
            and (1, 0) not in hodge  # b_1 = 0
            and hodge.get((1, 1)) == 1  # Pic M = Z (Drezet-Narasimhan)
            # M is rational (Newstead): no h^{p,0} or h^{0,p} for p > 0
            and not any((p == 0) != (q == 0) for p, q in hodge)
            # the intermediate Jacobian of M is J(C) (Mumford-Newstead)
            and hodge.get((2, 1)) == hodge.get((1, 2)) == g
        )
        if g == 2:  # the intersection of two quadrics in P^5 (Newstead)
            ok = ok and hodge == {(0, 0): 1, (1, 1): 1, (2, 1): 2, (1, 2): 2, (2, 2): 1, (3, 3): 1}
    _report("criterion 13: published Hodge numbers of M in the decompose totals, genus 2..30", ok)


def _cli_terms(capsys, argv: list) -> dict:
    """The ``terms`` of a ``--format json`` CLI run, as {exponents: coeff}."""
    assert main([*argv, "--format", "json"]) == 0, argv
    terms = json.loads(capsys.readouterr().out)["terms"]
    return {tuple(term[:-1]): int(term[-1]) for term in terms}


def _published_moduli_facts(g: int, hodge: dict) -> bool:
    """The Hodge numbers of M at genus g that the literature fixes, in a
    {(p, q): h^{p,q}} map of its nonzero ones."""
    return (
        # dim M = 3g - 3: the degree in u and in v, with h^{3g-3,3g-3} = 1
        max(p for p, _ in hodge) == max(q for _, q in hodge) == 3 * g - 3
        and hodge.get((3 * g - 3, 3 * g - 3)) == 1
        and (1, 0) not in hodge  # b_1 = 0
        and hodge.get((1, 1)) == 1  # Pic M = Z (Drezet-Narasimhan)
        # M is rational (Newstead): no h^{p,0} or h^{0,p} for p > 0
        and not any((p == 0) != (q == 0) for p, q in hodge)
        # the intermediate Jacobian of M is J(C) (Mumford-Newstead)
        and hodge.get((2, 1)) == hodge.get((1, 2)) == g
    )


def test_criterion_13_published_moduli_invariants_wide(capsys):
    """The moduli facts of criterion 13 over genus 2..60, read from
    ``hodge --genus g EXPR --format json`` for both forms of M, one genus
    at a time, so no range report is held."""
    ok = all(
        _published_moduli_facts(g, _cli_terms(capsys, ["hodge", "--genus", str(g), form]))
        for g in WIDE_GENUS_RANGE
        for form in ("M", "Mconj")
    )
    _report("criterion 13: published Hodge numbers of M in both forms, genus 2..60", ok)


def _binomial(n: int, k: int) -> int:
    return comb(n, k) if k >= 0 else 0  # comb is already 0 for k > n


def test_criterion_13_symmetric_powers_past_2g(capsys):
    """For n >= 2g - 1, C^(n) is a P^(n-g)-bundle over the Jacobian
    (Mattuck; Schwarzenberger), so its Poincare polynomial is
    (1+t)^2g (1 + t^2 + ... + t^(2(n-g))) and its Hodge polynomial is
    (1+u)^g (1+v)^g (1 + uv + ... + (uv)^(n-g)): built here from binomials
    alone, for genus 2..12 and n = 2g-1..2g+3, past n = 2g where the
    Macdonald check stops."""
    ok = True
    for g in range(2, 13):
        for n in range(2 * g - 1, 2 * g + 4):
            fibre = range(n - g + 1)  # the powers of t^2, or of uv, of P^(n-g)
            poincare = {(d,): sum(_binomial(2 * g, d - 2 * j) for j in fibre)
                        for d in range(2 * n + 1)}
            hodge = {(p, q): h for p in range(n + 1) for q in range(n + 1)
                     for h in [sum(_binomial(g, p - j) * _binomial(g, q - j) for j in fibre)] if h}
            expr = f"Sym({n})"
            ok = ok and _cli_terms(capsys, ["poincare", "--genus", str(g), expr]) == poincare
            ok = ok and _cli_terms(capsys, ["hodge", "--genus", str(g), expr]) == hodge
    _report("criterion 13: Poincare and Hodge polynomials of Sym^n, n = 2g-1..2g+3, genus 2..12", ok)
