"""Source-mutation harness: do the tests notice a known bug?

Each mutant replaces one piece of text in one file of ``src/``.  For each,
the harness copies ``src/`` to a temporary directory, applies the mutant
there, runs the tests the mutant names against the copy with a timeout, and
prints whether they failed (killed) or passed (survived).  It also reports
the exit code of a one-shot ``verify-theorem`` at its default range, which
is what a user sees of the bug.  The tree itself is never changed.

A mutant whose ``old`` text does not occur exactly once is an error, so a
refactor that moves the code must port its mutants.  The named tests must
pass on the unmutated copy first.

    python tools/mutate.py

runs every mutant, each test run with a timeout of ``TIMEOUT`` seconds.
Exits 0 when every mutant is killed, 1 when one survives, 2 on an error.
Uses the standard library and pytest only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds per test run
Mutant = namedtuple("Mutant", "name file old new tests")

CORE = "curvemotives/core.py"
FORMULAS = "curvemotives/formulas.py"
POLYNOMIALS = "curvemotives/polynomials.py"
REALIZATION = "curvemotives/realization.py"
CLI = "curvemotives/cli.py"
RENDERS = "tests/test_realization.py::test_block_report_renders_as_the_references"
CACHES = "tests/test_formulas.py::test_formulas_caches_are_bounded"
CRITERION = "tests/test_acceptance.py::test_criterion_"
AFRESH = "tests/test_realization.py::test_realizing_in_order_goes_afresh_unless_every_row_grew"


MUTANTS = (
    Mutant("tensor-zero-guard-dropped", CORE,
           "    if b.is_zero:\n        return zero(genus)\n",
           "",
           [CRITERION + "01_main_decomposition"]),
    Mutant("tate-keeps-empty-row", FORMULAS,
           "{0: counts} if counts else {}",
           "{0: counts}",
           [CRITERION + "01_main_decomposition"]),
    Mutant("direct-sum-shares-rows", CORE,
           "merged = dict(rows.get(index, ()))",
           "merged = rows.setdefault(index, {})",
           [CRITERION + "10_cli_contract"]),
    Mutant("blocks-twist-off-by-one", FORMULAS,
           "3 * genus - 3 - 2 * k",
           "3 * genus - 2 - 2 * k",
           [CRITERION + "01_main_decomposition"]),
    Mutant("bracket-end-mark-shifted", FORMULAS,
           "marks[3 * m - j + 1]",
           "marks[3 * m - j]",
           [CRITERION + "02_proof_chain"]),
    Mutant("sym-power-rows-past-2g", FORMULAS,
           "range(min(n, 2 * genus) + 1)",
           "range(n + 1)",
           ["tests/test_core.py::test_every_builder_keeps_the_row_invariants"]),
    Mutant("sym-power-cached", FORMULAS,
           "@lru_cache(maxsize=0)",
           "@lru_cache(maxsize=128)",
           [CACHES]),
    Mutant("delbano-cache-unbounded", FORMULAS,
           "@lru_cache(maxsize=32)  # bounded",
           "@lru_cache(maxsize=None)  # bounded",
           [CACHES]),
    Mutant("conjectural-cache-unbounded", FORMULAS,
           "@lru_cache(maxsize=32)\ndef moduli_motive_conjectural",
           "@lru_cache(maxsize=None)\ndef moduli_motive_conjectural",
           [CACHES]),
    Mutant("verify-reads-cached-forms", CLI,
           "from .formulas import _conjectural, _delbano,",
           "from .formulas import moduli_motive_conjectural as _conjectural, "
           "moduli_motive_delbano as _delbano,",
           ["tests/test_cli.py::test_verify_theorem_range_peaks_below_twice_its_last_genus"]),
    Mutant("int-hash-dropped", POLYNOMIALS,
           "    __hash__ = _Sparse.__hash__  # defining __eq__ would otherwise unset it\n\n"
           '    def __add__(self, other: "IntPolynomial")',
           '    def __add__(self, other: "IntPolynomial")',
           ["tests/test_polynomials.py::test_ring_laws"]),
    Mutant("format-ignores-var", POLYNOMIALS,
           'var or "t", "")',
           '"t", "")',
           ["tests/test_cli.py::test_identity_single_m_shows_both_sides"]),
    Mutant("atiyah-bott-denominator-signs", REALIZATION,
           "{0: 1, 2: -1, 4: -1, 6: 1}",
           "{0: 1, 2: -1, 4: 1, 6: -1}",
           [CRITERION + "04_atiyah_bott_oracle"]),
    Mutant("macdonald-binomial-shifted", REALIZATION,
           "current[n] += comb(top, n)",
           "current[n] += comb(top, n - 1)",
           [CRITERION + "05_macdonald_oracle"]),
    Mutant("blocks-shift-q-dropped", REALIZATION,
           "{(p + t, q + t): c for",
           "{(p + t, q): c for",
           [CRITERION + "08_block_decomposition"]),
    Mutant("total-shift-q-dropped", REALIZATION,
           "pq = (p + t, q + t)",
           "pq = (p + t, q)",
           [CRITERION + "08_block_decomposition"]),
    Mutant("max-exponent-ignores-q", POLYNOMIALS,
           "return max(max(self._coeffs)[0], max(self._coeffs, key=itemgetter(1))[1])",
           "return max(self._coeffs)[0]",
           ["tests/test_polynomials.py::test_bipolynomial_max_exponent_of_unsymmetric_polynomials"]),
    Mutant("hodge-weight-shift", REALIZATION,
           "pq = (p + c, q + c)",
           "pq = (p + c + (b == 2), q + c - (b == 2))",
           ["tests/test_acceptance.py::test_criterion_13_symmetric_powers_past_2g"]),
    Mutant("json-unquoted-coefficient", REALIZATION,
           """"json": ('[{},{},"'.format, '{}"]'.format,""",
           """"json": ('[{},{},'.format, '{}]'.format,""",
           ["tests/test_realization.py::test_block_report_json_matches_the_reference_tree"]),
    Mutant("csv-p-q-swapped", REALIZATION,
           '"csv": ("{},{},".format',
           '"csv": ("{1},{0},".format',
           [RENDERS]),
    Mutant("twist-offset-dropped", REALIZATION,
           "yield k, t, joined(indices, strings_of, offset)",
           "yield k, t, joined(indices, strings_of, 0)",
           [RENDERS]),
    Mutant("text-constant-empty", REALIZATION,
           'terms[0] = "1"',
           'terms[0] = ""',
           [RENDERS]),
    Mutant("kernel-subset-check-dropped", REALIZATION,
           "or not old <= row or",
           "or",
           [AFRESH]),
    Mutant("kernel-last-item-check-dropped", REALIZATION,
           "(last := next(reversed(row))) in old:",
           "(last := next(reversed(row))) in ():",
           [AFRESH]),
    Mutant("kernel-afresh-skipped", REALIZATION,
           "coeffs, gained = {}, now  # afresh\n                break",
           "continue",
           [AFRESH]),
    Mutant("kernel-result-not-copied", REALIZATION,
           "coeffs = dict(coeffs)  # the previous result",
           "coeffs = coeffs  # the previous result",
           [AFRESH]),
    Mutant("kernel-ignores-vanished-rows", REALIZATION,
           "        row = now.get(b, ())  # a vanished row has one term too few\n",
           "        row = now.get(b)\n        if row is None:\n            continue\n",
           [AFRESH]),
    Mutant("merge-keeps-zeros", POLYNOMIALS,
           "        if new:\n            coeffs[key] = new\n        else:\n            del coeffs[key]\n",
           "        coeffs[key] = new\n",
           ["tests/test_polynomials.py::test_divmod_exact_monic"]),
    Mutant("merge-ignores-scale", POLYNOMIALS,
           "new = get(key, 0) + scale * c",
           "new = get(key, 0) + c",
           ["tests/test_polynomials.py::test_arithmetic_small"]),
    Mutant("sparse-slots-dropped", POLYNOMIALS,
           '    __slots__ = ("_coeffs",)\n',
           "",
           ["tests/test_polynomials.py::test_construction_drops_zeros_and_accumulates"]),
    Mutant("csv-keeps-empty-blocks", REALIZATION,
           "            if terms:\n                start = ",
           "            if True:\n                start = ",
           ["tests/test_realization.py::test_block_report_realizes_an_altered_symmetric_power"]),
)


def _run(argv: list, src: Path) -> int | None:
    """Exit code of ``argv`` run at the repository root with ``src`` on the
    path, None if it timed out."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(argv, cwd=ROOT, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    except subprocess.TimeoutExpired:
        return None


def _pytest(tests: list, src: Path) -> int | None:
    return _run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests], src)


def _copy(scratch: Path, mutant: Mutant | None = None) -> Path:
    """A fresh copy of ``src/`` under ``scratch``, with ``mutant`` applied."""
    src = scratch / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = src / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise LookupError(f"{mutant.name}: its old text occurs {text.count(mutant.old)} "
                              f"times in {mutant.file}, not once")
        path.write_text(text.replace(mutant.old, mutant.new))
    return src


def main() -> int:
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        scratch = Path(scratch)
        clean = _copy(scratch)
        tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
        if _pytest(tests, clean) != 0:
            print("error: the named tests do not pass on the unmutated source", file=sys.stderr)
            return 2
        for mutant in MUTANTS:
            try:
                src = _copy(scratch, mutant)
            except LookupError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            code = _pytest(mutant.tests, src)
            if code not in (None, 0, 1):  # 1 is failed tests; the rest is collection or usage
                print(f"error: {mutant.name}: pytest exited {code}", file=sys.stderr)
                return 2
            verify = _run([sys.executable, "-m", "curvemotives", "verify-theorem"], src)
            outcome = ("killed (timeout)" if code is None else "survived" if code == 0 else "killed")
            survived += code == 0
            print(f"{mutant.name}: {outcome}; verify-theorem exit "
                  f"{'timeout' if verify is None else verify}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
