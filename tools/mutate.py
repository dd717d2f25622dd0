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

REALIZATION = "curvemotives/realization.py"
RENDERS = "tests/test_realization.py::test_block_report_renders_as_the_references"

MUTANTS = (
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
