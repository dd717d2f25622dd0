import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from curvemotives import cli, formulas
from curvemotives.cli import build_parser, main
from curvemotives.core import MotiveClass
from curvemotives.dsl import print_expr
from helpers import ALTERATIONS, altered_motive, altered_rows, expressions, mutated_identity_lhs

EVAL_SYM0 = '{"genus":2,"terms":[{"lambda":0,"lefschetz":0,"mult":"1"}]}\n'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_json_exact_bytes(capsys):
    code, out, err = run(capsys, "eval", "--genus", "2", "Sym(0)", "--format", "json")
    assert code == 0
    assert out == EVAL_SYM0
    assert err == ""


def test_eval_json_alias(capsys):
    code, out, _ = run(capsys, "eval", "--genus", "2", "Sym(0)", "--json")
    assert code == 0
    assert out == EVAL_SYM0


def test_eval_moduli_motive(capsys):
    code, out, _ = run(capsys, "eval", "--genus", "2", "M", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["genus"] == 2
    assert len(data["terms"]) == 5


def test_eval_text(capsys):
    code, out, _ = run(capsys, "eval", "--genus", "2", "M")
    assert code == 0
    assert out == "1 + L + L^2 + L^3 + h1*L\n"


def test_eval_csv(capsys):
    code, out, _ = run(capsys, "eval", "--genus", "2", "C", "--format", "csv")
    assert code == 0
    assert out == "lambda,lefschetz,mult\n0,0,1\n0,1,1\n1,0,1\n"


def test_eval_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "eval", "--genus", "2", "Sym(2) * (L + 1")
    assert code == 2
    assert out == ""
    assert "byte offset 16" in err


def test_eval_evaluation_error_exits_3(capsys):
    code, out, err = run(capsys, "eval", "--genus", "2", "h1 * h1")
    assert code == 3
    assert out == ""
    assert "h1 * h1" in err


def test_out_of_memory_exits_3(capsys, monkeypatch):
    def exhausted(genus):
        raise MemoryError

    monkeypatch.setattr(cli, "block_decomposition_report", exhausted)
    code, out, err = run(capsys, "decompose", "--genus", "2")
    assert (code, out, err) == (3, "", "error: out of memory\n")


def test_eval_low_genus_usage_error(capsys):
    code, _, err = run(capsys, "eval", "--genus", "1", "M")
    assert code == 2
    assert "genus" in err


def test_equal_commutativity(capsys):
    code, out, _ = run(capsys, "equal", "--genus", "2", "1 + L", "L + 1")
    assert code == 0
    assert out == "EQUAL\n"


def test_equal_detects_difference(capsys):
    code, out, _ = run(capsys, "equal", "--genus", "2", "M", "M + L")
    assert code == 1
    assert "NOT EQUAL" in out
    assert "lambda=0 lefschetz=1: left=1 right=2" in out


def test_equal_over_range(capsys):
    code, out, _ = run(capsys, "equal", "--genus-min", "2", "--genus-max", "6", "M", "Mconj")
    assert code == 0
    assert out == "EQUAL\n"


def test_equal_motives_are_compared_without_listing_their_terms(capsys, monkeypatch):
    def listed(self):
        raise AssertionError("equal motives need no term list")

    monkeypatch.setattr(MotiveClass, "items", listed)
    code, out, _ = run(capsys, "equal", "--genus-min", "2", "--genus-max", "6", "M", "Mconj")
    assert (code, out) == (0, "EQUAL\n")


def test_equal_csv(capsys):
    code, out, _ = run(capsys, "equal", "--genus-min", "2", "--genus-max", "3",
                       "M", "Mconj", "--format", "csv")
    assert code == 0
    assert out == "genus,equal\n2,true\n3,true\n"


def test_equal_genus_flag_conflicts(capsys):
    code, _, err = run(capsys, "equal", "--genus", "2", "--genus-min", "2", "M", "M")
    assert code == 2
    assert "--genus" in err


def test_verify_theorem_json(capsys):
    code, out, _ = run(capsys, "verify-theorem", "--genus-min", "2", "--genus-max", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True
    checks = data["results"][0]["checks"]
    assert checks == {
        "main_equality": "pass",
        "proof_chain": "pass",
        "atiyah_bott": "pass",
        "macdonald": "pass",
    }


def test_verify_theorem_text(capsys):
    code, out, _ = run(capsys, "verify-theorem", "--genus-min", "2", "--genus-max", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("g=2:")
    assert lines[-1] == "all checks passed for genus 2..3"


@pytest.mark.parametrize("kind", ALTERATIONS)
@pytest.mark.parametrize("n", range(7))
def test_verify_theorem_reports_an_altered_symmetric_power(capsys, monkeypatch, n, kind):
    """At genus 3, Sym^n alone gains, loses or reweights one term, in each of
    its rows in turn: the Macdonald check must fail at index n and nowhere
    before it, whatever the other powers are, in json and in text."""
    motive = formulas.sym_power_curve(n, 3)
    for b in altered_rows(motive, kind):
        altered = altered_motive(motive, b, kind)
        monkeypatch.setattr(
            cli, "sym_power_curve",
            lambda k, genus: altered if k == n else formulas.sym_power_curve(k, genus),
        )
        code, out, _ = run(capsys, "verify-theorem", "--genus", "3", "--json")
        failure = {"genus": 3, "check": "macdonald", "index": n}
        assert (code, json.loads(out)["first_failure"]) == (1, failure), (b, kind)
        code, out, _ = run(capsys, "verify-theorem", "--genus", "3")
        assert (code, out.splitlines()[-1]) == (1, f"FAILED: g=3 check=macdonald at index {n}")


@pytest.mark.parametrize("kind", ALTERATIONS)
def test_verify_theorem_reports_an_altered_symmetric_power_form(capsys, monkeypatch, kind):
    """At genus 3, the symmetric-power form gains, loses or reweights one
    term, in each of its rows in turn: the first failure is the main
    equality, which has no index, in json and in text."""
    motive = formulas.moduli_motive_conjectural(3)
    for b in altered_rows(motive, kind):
        altered = altered_motive(motive, b, kind)
        monkeypatch.setattr(cli, "_conjectural", lambda genus: altered)
        code, out, _ = run(capsys, "verify-theorem", "--genus", "3", "--json")
        failure = {"genus": 3, "check": "main_equality", "index": None}
        assert (code, json.loads(out)["first_failure"]) == (1, failure), (b, kind)
        code, out, _ = run(capsys, "verify-theorem", "--genus", "3")
        assert (code, out.splitlines()[-1]) == (1, "FAILED: g=3 check=main_equality")


def test_identity_single_m_shows_both_sides(capsys):
    code, out, _ = run(capsys, "identity", "--m-min", "1", "--m-max", "1")
    assert code == 0
    assert "m=1: ok  both sides: 1 + x + x^2 + x^3" in out


def test_identity_reports_a_mutated_side(capsys, monkeypatch):
    """With the left side of m = 2 bumped by one term, its row shows both
    sides, the last line names m = 2 and the exit is 1."""
    sides = cli.key_identity_sides
    monkeypatch.setattr(cli, "key_identity_sides", lambda m: (
        (mutated_identity_lhs(m), sides(m)[1]) if m == 2 else sides(m)))
    code, out, _ = run(capsys, "identity", "--m-min", "1", "--m-max", "3")
    lhs, rhs = mutated_identity_lhs(2), sides(2)[1]
    assert code == 1
    assert out.splitlines()[1:] == [
        f"m=2: FAIL  lhs: {lhs:x}  rhs: {rhs:x}",
        f"m=3: ok  both sides: {sides(3)[0]:x}",
        "FAILED at m=2",
    ]


def test_identity_m_zero_usage_error(capsys):
    code, _, err = run(capsys, "identity", "--m-min", "0")
    assert code == 2
    assert "m range" in err


def test_identity_range(capsys):
    code, out, _ = run(capsys, "identity", "--m-min", "1", "--m-max", "20", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "m,ok"
    assert out.splitlines()[-1] == "20,true"


def test_poincare_text(capsys):
    code, out, _ = run(capsys, "poincare", "--genus", "2", "M")
    assert code == 0
    assert out == "1 + t^2 + 4t^3 + t^4 + t^6\n"


def test_poincare_json(capsys):
    code, out, _ = run(capsys, "poincare", "--genus", "2", "M", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "variable": "t",
        "terms": [[0, "1"], [2, "1"], [3, "4"], [4, "1"], [6, "1"]],
    }


def test_hodge_text(capsys):
    code, out, _ = run(capsys, "hodge", "--genus", "2", "L")
    assert code == 0
    assert out == "u*v\n"


def test_hodge_diamond(capsys):
    code, out, _ = run(capsys, "hodge", "--genus", "2", "M", "--diamond")
    assert code == 0
    assert out.splitlines() == [
        "   1",
        "  0 0",
        " 0 1 0",
        "0 2 2 0",
        " 0 1 0",
        "  0 0",
        "   1",
    ]


def test_hodge_csv(capsys):
    code, out, _ = run(capsys, "hodge", "--genus", "2", "L", "--format", "csv")
    assert code == 0
    assert out == "p,q,coeff\n1,1,1\n"


def test_decompose_genus_two(capsys):
    code, out, _ = run(capsys, "decompose", "--genus", "2")
    assert code == 0
    assert "genus 2: 3 blocks" in out
    assert "Sym(0)*L^0" in out
    assert "total" in out


def test_decompose_block_count_genus_three(capsys):
    code, out, _ = run(capsys, "decompose", "--genus", "3")
    assert code == 0
    assert "genus 3: 5 blocks" in out


def test_decompose_json_schema(capsys):
    code, out, _ = run(capsys, "decompose", "--genus", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["genus"] == 2
    assert [b["twist"] for b in data["blocks"]] == [0, 3, 1]
    assert data["blocks"][1]["hodge"] == [[3, 3, "1"]]


def test_decompose_csv(capsys):
    code, out, _ = run(capsys, "decompose", "--genus", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "genus,sym_power,twist,p,q,coeff"
    assert "2,0,3,3,3,1" in lines


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "eval", "--genus", "2", "Sym(0)", "--json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == EVAL_SYM0


def test_json_byte_identical_across_runs_and_jobs(capsys):
    outputs = set()
    for jobs in ("1", "1", "4"):
        code, out, _ = run(capsys, "verify-theorem", "--genus-min", "2", "--genus-max", "4",
                           "--format", "json", "--jobs", jobs)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_decompose_identical_across_jobs(capsys):
    _, first, _ = run(capsys, "decompose", "--genus-min", "2", "--genus-max", "5",
                      "--format", "json", "--jobs", "1")
    _, second, _ = run(capsys, "decompose", "--genus-min", "2", "--genus-max", "5",
                       "--format", "json", "--jobs", "3")
    assert first == second


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--genus", "2", "M"],
        ["equal", "--genus", "2", "M", "Mconj"],
        ["verify-theorem", "--genus-min", "2", "--genus-max", "2"],
        ["identity", "--m-min", "1", "--m-max", "3"],
        ["poincare", "--genus", "2", "M"],
        ["hodge", "--genus", "2", "M"],
        ["decompose", "--genus", "2"],
    ],
)
def test_every_subcommand_honors_every_format(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out
    assert err == ""


@pytest.mark.parametrize(
    "expr,expected_code,expected_out",
    [
        ("(" * 2000 + "L" + ")" * 2000, 0, "L\n"),
        ("(" * 60000 + "L" + ")" * 60000, 0, "L\n"),
        (" + ".join(["L"] * 3000), 0, "3000*L\n"),
        ("h1 * (" + " + ".join(["h1"] * 1500) + ")", 3, ""),
    ],
    ids=["nested-parentheses", "nested-parentheses-60000", "flat-sum", "nontate-over-long-sum"],
)
def test_deep_expression_evaluates_or_exits_3_with_one_error_line(
    capsys, expr, expected_code, expected_out
):
    code, out, err = run(capsys, "eval", "--genus", "2", expr)
    assert code == expected_code
    assert out == expected_out
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")


@settings(max_examples=300, deadline=None)
@given(expressions, st.integers(min_value=2, max_value=4), st.data())
def test_eval_of_a_cut_or_altered_expression_ends_in_a_defined_exit(expr, genus, data):
    text = print_expr(expr)
    cut = data.draw(st.integers(min_value=0, max_value=len(text)))
    if data.draw(st.booleans()):
        text = text[:cut]
    else:
        text = text[:cut] + data.draw(st.characters()) + text[cut:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--genus", str(genus), text])
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().endswith("\n")
    else:  # a text that starts with "-" is an option to argparse, whose errors name their prog
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error: ", "curvemotives eval: error: "))
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


def test_import_loads_neither_dataclasses_nor_inspect():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, curvemotives.cli; print({'dataclasses', 'inspect'} & set(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "set()\n"


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_missing_genus_exits_2(capsys):
    code, _, _ = run(capsys, "eval", "M")
    assert code == 2


def test_invalid_jobs_exits_2(capsys):
    code, _, _ = run(capsys, "equal", "--genus", "2", "--jobs", "0", "M", "M")
    assert code == 2


# Exit code and stdout SHA-256 of each subcommand in each format: a change of
# any byte of output fails here.
GOLDEN = {
    ("eval", "--genus", "3", "M + Sym(2) * L"): (0, {
        "text": "b61d51d9d4643d7121ac7acd86dfcea8a69b09fa55b00e26bbd7d0ff6944d695",
        "json": "9e4e65fc609bf5703188dd5e81552ff455d7ac3947fe6f5fcba8bbe626eb45cf",
        "csv": "602f385e91ee246f45c69d9b16b367ea3083436f876080400da69c944604b63c",
    }),
    ("equal", "--genus-min", "2", "--genus-max", "4", "M", "Mconj"): (0, {
        "text": "66d44786dc9344c8e5021d056b32677b016e71095b830f95df645e0f98103fa6",
        "json": "5864cdb7c70434aaa49542be67b6b7f7a5d8893aab319147da0e9dd8bb74b4bf",
        "csv": "2534e634a0a496d9c8ebcf39161d1877322cad607b55a74e7f049d36839451b5",
    }),
    # lam(5) vanishes at genus 2 only: a NOT EQUAL diff with an equal genus in it
    ("equal", "--genus-min", "2", "--genus-max", "3", "1 + lam(5)", "1"): (1, {
        "text": "5af1615fd6fa5cd19c3b14b045a8b963a9d02963df4fa9f18fd4e647b51ae149",
        "json": "f8c0b9bc948bbff8356d366a3c57d1605edfb4d99b273f31f86d98f0de7dced2",
        "csv": "cf9419084a8a6064c74faa5cc609db9262ef7efe3e5eb4cfa8794c60fd8314ef",
    }),
    ("verify-theorem", "--genus-min", "2", "--genus-max", "4", "--jobs", "2"): (0, {
        "text": "f116f9b6e6870507110c531e5872d8292c239e10bdd0537b4a67c1b4695df040",
        "json": "dda8b68f51a37db979720558855ce45c3504f2e430f30c9a7bca82eb8da44488",
        "csv": "4f07aaf8336826606c863bcfb1dda058bac9780f56cf3fcdcd89c713325ed200",
    }),
    ("identity", "--m-min", "1", "--m-max", "6"): (0, {
        "text": "e01cdf68d3ac214d308b90e677add813216016bda235dc240e2652ff61366531",
        "json": "3b6e67c012d97fae8a0b5bee3b26d27d7188a93e6dea538b3c7c7ede0775d8c9",
        "csv": "93cf1528cfe5b3ee3598e8b172c5f5d388405cfada076c264294acabcae82fd9",
    }),
    ("poincare", "--genus", "3", "M"): (0, {
        "text": "edfcc5b8fb1312aab58925e32e14f6e086949b4326f3982580566959de9bdf09",
        "json": "0abdcc9bd54ac064b82410e7080349290e2654a9b61c4253853268a046f86bb8",
        "csv": "4341e215752a5659c1b848a6eb56f34a8dc415fddf67c573887a5cd0c0b4ba69",
    }),
    ("hodge", "--genus", "3", "M"): (0, {
        "text": "1666b6b31dae84ad31063e0a7132d6af48f2d627149d8b3d571f9da81d974994",
        "json": "fde547a29cffa97cb21a061ddae0cb7f25292756de8c9d260e3b8d175021cdf8",
        "csv": "bf1072d7149930cfe0eba297c1f716c7f85e22761a11385ff7d3c74755ea686f",
    }),
    ("hodge", "--genus", "3", "M", "--diamond"): (0, {
        "text": "1293fcf6e113a7b3a8270073e5a26522c2e3075c6c3def99ddc9bc261b5ccb8b",
        "json": "64dd181e8d9ac91f06198746770c76950a8d15cf814bdfb0b2d52e6faadfbfc8",
        "csv": "bf1072d7149930cfe0eba297c1f716c7f85e22761a11385ff7d3c74755ea686f",
    }),
    ("decompose", "--genus", "3"): (0, {
        "text": "308ac65e372aee39fe0ba4d7918d23b21a37de67f6d88fcf108967f7878d858f",
        "json": "d60db41f9c64588b5384b231f7ee39828dff9abecd54bd755f5b7f52074f97a2",
        "csv": "ed9d91140484f6f6ba974ef600764667b9d2a84e9bd16b444de63690cbf3ec71",
    }),
    ("decompose", "--genus-min", "2", "--genus-max", "4", "--jobs", "2"): (0, {
        "text": "f8574c532afd329901a17c052985ec38803b52c978dd51b43a84155a57bb253b",
        "json": "db6c689bacc9ffaa5b4eb2ad340e3c1d0e25007545ca56f66148d2923c2a9f25",
        "csv": "fcba28325469311ebc33e0a30cfd4cff9527475b35dc5de92eaa05ac140c5634",
    }),
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_stdout_digest(capsys, argv, fmt):
    expected_code, digests = GOLDEN[argv]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, _sha256(out), err) == (expected_code, digests[fmt], "")


@pytest.mark.parametrize(
    "argv, fmt",
    [
        (("decompose", "--genus-min", "2", "--genus-max", "4", "--jobs", "2"), "csv"),
        (("identity", "--m-min", "1", "--m-max", "6"), "text"),
    ],
)
def test_out_file_matches_golden_stdout(tmp_path, capsys, argv, fmt):
    target = tmp_path / f"result.{fmt}"
    expected_code, digests = GOLDEN[argv]
    code, out, err = run(capsys, *argv, "--format", fmt, "--out", str(target))
    assert (code, out, err) == (expected_code, "", "")
    assert _sha256(target.read_text(encoding="utf-8")) == digests[fmt]



# decompose and verify-theorem make, check or render one genus at a time


def _peak(tmp_path, *argv) -> tuple:
    """Exit code and tracemalloc peak of ``main(argv)``, written to a file,
    from cleared caches."""
    for cache in (formulas.sym_power_curve, formulas.moduli_motive_delbano,
                  formulas.moduli_motive_conjectural):
        cache.cache_clear()
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(tmp_path / "out")])
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_decompose_range_peaks_below_twice_its_last_genus(tmp_path, fmt):
    # in fact below 1.5 times: sym_power_curve keeps no powers of earlier genera
    code, range_peak = _peak(tmp_path, "decompose", "--genus-min", "2", "--genus-max", "24",
                             "--format", fmt)
    single_code, single_peak = _peak(tmp_path, "decompose", "--genus", "24", "--format", fmt)
    assert (code, single_code) == (0, 0)
    assert range_peak < 1.5 * single_peak, (range_peak, single_peak)


def test_decompose_json_peaks_below_its_text(tmp_path):
    # BlockReport.to_json writes text: no list per Hodge term for json.dumps to walk
    code, json_peak = _peak(tmp_path, "decompose", "--genus", "24", "--format", "json")
    text_code, text_peak = _peak(tmp_path, "decompose", "--genus", "24", "--format", "text")
    assert (code, text_code) == (0, 0)
    assert json_peak < 1.25 * text_peak, (json_peak, text_peak)


def test_verify_theorem_range_peaks_below_twice_its_last_genus(tmp_path):
    code, range_peak = _peak(tmp_path, "verify-theorem", "--genus-min", "2", "--genus-max", "24")
    single_code, single_peak = _peak(tmp_path, "verify-theorem", "--genus", "24")
    assert (code, single_code) == (0, 0)
    assert range_peak < 2 * single_peak, (range_peak, single_peak)


class _CountingStdout(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_decompose_writes_once_per_genus(fmt):
    stdout = _CountingStdout()
    with contextlib.redirect_stdout(stdout):
        code = main(["decompose", "--genus-min", "2", "--genus-max", "6", "--format", fmt])
    assert code == 0
    assert 1 <= stdout.writes <= 5 + 2


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_decompose_out_of_memory_mid_range_keeps_the_earlier_genera(capsys, monkeypatch, fmt):
    _, full, _ = run(capsys, "decompose", "--genus-min", "2", "--genus-max", "5", "--format", fmt)
    _, first_two, _ = run(capsys, "decompose", "--genus-min", "2", "--genus-max", "3", "--format", fmt)
    report = cli.block_decomposition_report

    def exhausted_at_4(genus):
        if genus == 4:
            raise MemoryError
        return report(genus)

    monkeypatch.setattr(cli, "block_decomposition_report", exhausted_at_4)
    code, out, err = run(capsys, "decompose", "--genus-min", "2", "--genus-max", "5", "--format", fmt)
    assert (code, err) == (3, "error: out of memory\n")
    assert full.startswith(out)
    assert out == first_two.removesuffix({"text": "\n", "json": "]\n", "csv": ""}[fmt])


def test_decompose_failing_at_its_first_genus_leaves_out_untouched(tmp_path, capsys, monkeypatch):
    def exhausted(genus):
        raise MemoryError

    target = tmp_path / "result.txt"
    target.write_text("an earlier result\n", encoding="utf-8")
    monkeypatch.setattr(cli, "block_decomposition_report", exhausted)
    code, out, err = run(capsys, "decompose", "--genus-min", "2", "--genus-max", "5",
                         "--out", str(target))
    assert (code, out, err) == (3, "", "error: out of memory\n")
    assert target.read_text(encoding="utf-8") == "an earlier result\n"


def test_one_parser_serves_a_sequence_of_calls(capsys):
    # main reuses one parser per process.  Each call here follows one that set
    # a flag it relies on the default of, or one that failed or printed help,
    # and must give exactly what a freshly built parser gives.
    hodge = ("hodge", "--genus", "3", "M")
    evaluate = ("eval", "--genus", "3", "M + Sym(2) * L")
    sequence = [
        (hodge + ("--diamond",), GOLDEN[hodge + ("--diamond",)][1]["text"]),
        (hodge, GOLDEN[hodge][1]["text"]),
        (evaluate + ("--format", "json"), GOLDEN[evaluate][1]["json"]),
        (evaluate, GOLDEN[evaluate][1]["text"]),
        (("eval", "M"), 2),  # usage error: --genus is required
        (hodge, GOLDEN[hodge][1]["text"]),
        (("eval", "--genus", "2", "Sym(2) * (L + 1"), 2),  # expression parse error
        (evaluate + ("--format", "csv"), GOLDEN[evaluate][1]["csv"]),
        (("hodge", "--help"), 0),
        (hodge + ("--diamond", "--json"), GOLDEN[hodge + ("--diamond",)][1]["json"]),
        (("equal", "--genus", "2", "--genus-min", "2", "M", "M"), 2),  # usage error in a handler
        (hodge, GOLDEN[hodge][1]["text"]),
    ]
    seen = []
    for argv, expected in sequence:
        code, out, err = run(capsys, *argv)
        seen.append((argv, (code, out, err)))
        if isinstance(expected, str):
            assert (code, _sha256(out), err) == (0, expected, ""), argv
        elif expected == 0:
            assert (code, err) == (0, ""), argv
            assert out.startswith(f"usage: curvemotives {argv[0]} "), argv
        else:
            assert (code, out) == (expected, ""), argv
            assert sum("error: " in line for line in err.splitlines()) == 1, argv
    for argv, result in seen:
        cli._parser.cache_clear()
        assert run(capsys, *argv) == result, argv


def test_build_parser_returns_a_parser_main_does_not_share(capsys):
    hodge = ("hodge", "--genus", "3", "M")
    parser = build_parser()
    assert build_parser() is not parser
    parser.add_argument("--extra")
    assert parser.parse_args(["--extra", "x", *hodge]).extra == "x"
    code, out, err = run(capsys, *hodge)
    assert (code, _sha256(out), err) == (0, GOLDEN[hodge][1]["text"], "")
    assert run(capsys, "--extra", "x", *hodge)[0] == 2


# SHA-256 of the --help stdout of the top level and of each subcommand, at 80
# columns: how each subcommand is declared must not change what it prints.
HELP = {
    (): "07275e536ea890a4df06ed47240d233893378722c676a89173e7492c265a13a2",
    ("eval",): "e803471c3796179df7ff565494d70e217c5b82cb6864202629d6a8bbcd43113f",
    ("equal",): "2636a01cd8e2161476d24067991b9795646dc9d86028e1cee742a4d92b62f252",
    ("verify-theorem",): "8f4683d2f31b62b737d92438d84900039cbc70918081a879512cfd8c34e9121b",
    ("identity",): "ad6d5b720a3d4a4754f100be9c3ee51b81c913247c706f8fb0a3c840d56384ca",
    ("poincare",): "e7ca1da83a43200fd2ab29b3c247f745eedcfaed00b0a049292fb3d2d2598b77",
    ("hodge",): "2709b18d782ac52ca2973863b6474d55179d8205540b07dd4eb7ebdac5c3e24c",
    ("decompose",): "8789a50532616a9b228d732aa6005f6b514484a957cc97b86b82341c32d48b49",
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda command: " ".join(command) or "top")
def test_help_stdout_digest(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *command, "--help")
    assert (code, _sha256(out), err) == (0, HELP[command], "")


# The one stderr line of each usage error, which exits 2: numeric-option
# errors, then argparse's own.  The argvs where two checks fail pin their
# order: the genus or m range first, then --jobs, and both before any
# expression is parsed.
VALIDATION_ERRORS = {
    ("eval", "--genus", "1", "M"): "curvemotives eval: error: --genus must be >= 2, got 1",
    ("poincare", "--genus", "1", "M"): "curvemotives poincare: error: --genus must be >= 2, got 1",
    ("hodge", "--genus", "0", "M"): "curvemotives hodge: error: --genus must be >= 2, got 0",
    ("equal", "--genus", "1", "M", "M"):
        "curvemotives equal: error: genus range must satisfy 2 <= min <= max, got 1..1",
    ("equal", "--genus", "2", "--genus-min", "2", "M", "M"):
        "curvemotives equal: error: --genus cannot be combined with --genus-min/--genus-max",
    ("verify-theorem", "--genus", "2", "--genus-max", "3"): (
        "curvemotives verify-theorem: error: --genus cannot be combined with "
        "--genus-min/--genus-max"),
    ("decompose", "--genus-min", "5", "--genus-max", "3"):
        "curvemotives decompose: error: genus range must satisfy 2 <= min <= max, got 5..3",
    ("verify-theorem", "--genus-min", "1"):
        "curvemotives verify-theorem: error: genus range must satisfy 2 <= min <= max, got 1..30",
    ("identity", "--m-min", "0"):
        "curvemotives identity: error: m range must satisfy 1 <= min <= max, got 0..100",
    ("identity", "--m-min", "5", "--m-max", "3"):
        "curvemotives identity: error: m range must satisfy 1 <= min <= max, got 5..3",
    ("equal", "--genus", "2", "--jobs", "0", "M", "M"):
        "curvemotives equal: error: --jobs must be >= 1, got 0",
    ("verify-theorem", "--jobs", "0"):
        "curvemotives verify-theorem: error: --jobs must be >= 1, got 0",
    # two checks fail at once
    ("decompose", "--genus-min", "5", "--genus-max", "3", "--jobs", "0"):
        "curvemotives decompose: error: genus range must satisfy 2 <= min <= max, got 5..3",
    ("equal", "--genus", "2", "--genus-max", "3", "--jobs", "0", "M", "M"):
        "curvemotives equal: error: --genus cannot be combined with --genus-min/--genus-max",
    ("identity", "--m-min", "0", "--jobs", "0"):
        "curvemotives identity: error: m range must satisfy 1 <= min <= max, got 0..100",
    ("eval", "--genus", "1", "Sym(2) * (L + 1"):
        "curvemotives eval: error: --genus must be >= 2, got 1",
    ("equal", "--genus", "1", "Sym(2) * (L + 1", "M"):
        "curvemotives equal: error: genus range must satisfy 2 <= min <= max, got 1..1",
    ("equal", "--genus", "2", "--jobs", "0", "Sym(2) * (L + 1", "M"):
        "curvemotives equal: error: --jobs must be >= 1, got 0",
    # argparse's own errors
    ("eval", "--genus", "2", "-L"):
        "curvemotives eval: error: the following arguments are required: expr",
    # an expression that starts with '-' follows '--'; it then fails to parse
    ("eval", "--genus", "2", "--", "-L"):
        "error: parse error at byte offset 1: unexpected character '-'",
    ("eval", "M"): "curvemotives eval: error: the following arguments are required: --genus",
    ("hodge", "--genus", "two", "M"):
        "curvemotives hodge: error: argument --genus: invalid int value: 'two'",
    ("decompose", "--format", "xml"):
        "curvemotives decompose: error: argument --format: invalid choice: 'xml' "
        "(choose from 'text', 'json', 'csv')",
    # the top level: an unknown option is named, not the missing command
    ("-x",): "curvemotives: error: unrecognized arguments: -x",
    ("--version",): "curvemotives: error: unrecognized arguments: --version",
    (): "curvemotives: error: the following arguments are required: command",
}


@pytest.mark.parametrize("argv", list(VALIDATION_ERRORS), ids=lambda argv: " ".join(argv) or "bare")
def test_validation_error_exit_and_stderr(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", VALIDATION_ERRORS[argv] + "\n")
