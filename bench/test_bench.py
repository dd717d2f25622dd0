"""Smoke tests of the benchmark itself: one pass of each workload passes its
checks, tracing changes no output, and the runner refuses to run without
the package sources.

    python3 -m pytest -q bench/test_bench.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _one_pass(workload, requests, tracer=None):
    result = workloads.run_pass(requests, workload.keep_output, tracer)
    assert workload.check(requests, result.outcomes) == []
    return result


def test_verify_sweep_pass_matches_pinned_digest():
    workload = workloads.WORKLOADS["verify-sweep"]
    _one_pass(workload, workload.requests(0, 0))


def test_decompose_render_traced_pass_matches_pinned_digests():
    workload = workloads.WORKLOADS["decompose-render"]
    tracer = Tracer()
    result = _one_pass(workload, workload.requests(0, 0), tracer)
    summary = tracer.summary(result.wall_s, result.cpu_s)
    assert summary["realization.macdonald.calls"] == 0
    assert summary["realization.block_report.calls"] == 29 * 3


def test_expr_mix_traced_output_equals_untraced_output():
    workload = workloads.WORKLOADS["expr-mix"]
    requests = workloads.expr_mix_requests(seed=7, index=0, count=150)
    assert {r.expect.rc for r in requests} == {0, 1, 2, 3}
    plain = _one_pass(workload, requests)
    tracer = Tracer()
    traced = _one_pass(workload, requests, tracer)
    assert [(o.rc, o.digest) for o in plain.outcomes] == [(o.rc, o.digest) for o in traced.outcomes]
    summary = tracer.summary(traced.wall_s, traced.cpu_s)
    accounted = sum(summary[k] for k in ("trace.self_sum_s", "trace.wrapper_gap_s",
                                         "trace.bench_gap_s", "trace.offcpu_s"))
    assert abs(accounted - traced.wall_s) < 1e-6
    assert summary["cli.main.calls"] == len(requests)
    assert summary["realization.macdonald.calls"] == 0
    assert summary["dsl.parse_errors"] == sum(r.expect.rc == 2 for r in requests)


def test_expr_mix_stream_depends_only_on_seed_and_pass():
    assert workloads.expr_mix_requests(3, 1, 50) == workloads.expr_mix_requests(3, 1, 50)
    assert workloads.expr_mix_requests(3, 1, 50) != workloads.expr_mix_requests(3, 2, 50)


def test_checks_catch_a_wrong_output():
    workload = workloads.WORKLOADS["expr-mix"]
    requests = [workloads.Request(
        ("poincare", "C + L", "--genus", "2", "--format", fmt),
        workloads.Expect("poincare", ("C + L",), (2,), fmt, False, 0),
    ) for fmt in workloads.FORMATS]
    result = workloads.run_pass(requests, keep_output=True)
    assert workload.check(requests, result.outcomes) == []
    for outcome in result.outcomes:
        outcome.stdout = outcome.stdout.replace("4", "5")  # C(4, 1) is the t coefficient
    assert len(workload.check(requests, result.outcomes)) == 3


def test_runner_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "expr-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
