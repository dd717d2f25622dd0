"""The public names of the package, pinned: dropping or renaming one must
change this file as well."""

import inspect

import curvemotives
from curvemotives import BlockReport, HodgeBlock, MotiveClass, cli, realization


def test_public_api_is_pinned():
    assert curvemotives.__all__ == [
        "BasisKey", "BiPolynomial", "BlockReport", "HodgeBlock", "IntPolynomial",
        "MotiveClass", "MotiveExpr", "NonTateTensor", "ParseError",
        "atiyah_bott_oracle", "block_decomposition_report", "direct_sum", "evaluate",
        "hodge_diamond_rows", "hodge_polynomial", "key_identity_sides",
        "lambda_coefficient", "lambda_h1", "lefschetz", "macdonald_oracle",
        "macdonald_series", "moduli_motive_conjectural", "moduli_motive_delbano",
        "parse", "poincare_polynomial", "print_expr", "proof_chain_check",
        "render_hodge_diamond", "sym_power_curve", "tensor", "unit",
        "verify_key_identity", "zero",
    ]
    assert all(hasattr(curvemotives, name) for name in curvemotives.__all__)

    report = curvemotives.block_decomposition_report(2)
    assert (report.genus, len(report.powers)) == (2, 2)
    assert isinstance(report.blocks, tuple) and isinstance(report.total, curvemotives.BiPolynomial)
    for name in ("to_text", "to_json", "to_csv"):
        # plain functions on the class: the benchmark wraps to_json there
        assert inspect.isfunction(vars(BlockReport)[name]), name
        assert list(inspect.signature(getattr(BlockReport, name)).parameters) == ["self", "pairs"]
    assert list(inspect.signature(BlockReport.to_dict).parameters) == ["self"]
    assert list(inspect.signature(realization.pair_table).parameters) == ["form", "top"]


def test_documented_names_are_pinned():
    """The names the README documents beyond ``__all__``."""
    assert callable(cli.build_parser) and callable(cli.main)
    for name in ("rows", "items", "to_dict", "to_json", "__iter__", "__len__"):
        assert inspect.isfunction(vars(MotiveClass)[name]), name
    assert isinstance(vars(MotiveClass)["from_dict"], classmethod)
    sym_power_curve = curvemotives.sym_power_curve
    assert callable(sym_power_curve.cache_info) and callable(sym_power_curve.cache_clear)
    assert HodgeBlock._fields == ("sym_power", "twist", "hodge")
    assert HodgeBlock(1, 2, curvemotives.BiPolynomial.one()).label == "Sym(1)*L^2"
    assert inspect.isfunction(vars(curvemotives.BiPolynomial)["max_exponent"])
