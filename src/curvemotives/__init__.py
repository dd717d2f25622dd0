"""Exact motive arithmetic for symmetric powers of a curve and the
rank-2 fixed-determinant moduli space, with Poincare/Hodge realizations,
independent literature oracles, a small expression language and a CLI.
"""

from .core import (
    BasisKey,
    MotiveClass,
    NonTateTensor,
    direct_sum,
    lambda_h1,
    lefschetz,
    tensor,
    unit,
    zero,
)
from .dsl import MotiveExpr, ParseError, evaluate, parse, print_expr
from .formulas import (
    lambda_coefficient,
    moduli_motive_conjectural,
    moduli_motive_delbano,
    proof_chain_check,
    sym_power_curve,
)
from .polynomials import BiPolynomial, IntPolynomial
from .realization import (
    BlockReport,
    HodgeBlock,
    atiyah_bott_oracle,
    block_decomposition_report,
    hodge_diamond_rows,
    hodge_polynomial,
    key_identity_sides,
    macdonald_oracle,
    macdonald_series,
    poincare_polynomial,
    render_hodge_diamond,
    verify_key_identity,
)

__all__ = [
    "BasisKey",
    "BiPolynomial",
    "BlockReport",
    "HodgeBlock",
    "IntPolynomial",
    "MotiveClass",
    "MotiveExpr",
    "NonTateTensor",
    "ParseError",
    "atiyah_bott_oracle",
    "block_decomposition_report",
    "direct_sum",
    "evaluate",
    "hodge_diamond_rows",
    "hodge_polynomial",
    "key_identity_sides",
    "lambda_coefficient",
    "lambda_h1",
    "lefschetz",
    "macdonald_oracle",
    "macdonald_series",
    "moduli_motive_conjectural",
    "moduli_motive_delbano",
    "parse",
    "poincare_polynomial",
    "print_expr",
    "proof_chain_check",
    "render_hodge_diamond",
    "sym_power_curve",
    "tensor",
    "unit",
    "verify_key_identity",
    "zero",
]

__version__ = "0.1.0"
