"""Benchmark of the curvemotives command line; see README.md in this directory.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 38 --trace 0

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json, with
``--trace 1`` every per-layer metric.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is a JSON record of the run (git SHA, Python version,
nproc, seed, sample counts and per-pass figures).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_RUNS = 11          # fresh interpreters timed for setup_s; the median is reported
SETUP_ARGV = ("eval", "--genus", "2", "1")
MIN_PASSES = 3           # untraced passes per run, even past --seconds
SUBPROCESS_TIMEOUT_S = 60


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _environment(args) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _measure_setup() -> tuple:
    """Wall time of a fresh interpreter importing curvemotives and serving
    one trivial ``eval``; returns (samples, failures)."""
    samples, failures = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "curvemotives", *SETUP_ARGV],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0 or done.stdout != "1\n":
            failures.append(f"setup: exit {done.returncode}, stdout {done.stdout!r}")
    return samples, failures


def _latency_ms(outcomes) -> tuple:
    latencies = [o.latency_s * 1e3 for o in outcomes]
    return _percentile(latencies, 0.5), _percentile(latencies, 0.99)


def _untraced(args, workload) -> tuple:
    from workloads import run_pass

    setup_samples, failures = _measure_setup()
    attempted = SETUP_RUNS
    peak_rss_mib = None

    walls, p50s, p99s, requests_per_pass = [], [], [], []
    window_start = time.perf_counter()
    index = 0
    while True:
        cycle_start = time.perf_counter()
        requests = workload.requests(args.seed, index)
        gc.collect()
        result = run_pass(requests, workload.keep_output)
        if peak_rss_mib is None:  # this process is fresh and has run one pass
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures += workload.check(requests, result.outcomes)
        attempted += len(requests)
        walls.append(result.wall_s)
        p50, p99 = _latency_ms(result.outcomes)
        p50s.append(p50)
        p99s.append(p99)
        requests_per_pass.append(len(requests))
        index += 1
        now = time.perf_counter()
        if index >= MIN_PASSES and (now - window_start) + (now - cycle_start) > args.seconds:
            break

    metrics = {
        "wall_s": statistics.median(walls),
        "latency_p50_ms": statistics.median(p50s),
        "latency_p99_ms": statistics.median(p99s),
        "ok_frac": 1 - len(failures) / attempted,
        "peak_rss_mib": peak_rss_mib,
        "setup_s": statistics.median(setup_samples),
    }
    detail = {
        "passes": index,
        "requests_per_pass": requests_per_pass,
        "latency_samples": sum(requests_per_pass),
        "pass_wall_s": walls,
        "pass_latency_p50_ms": p50s,
        "pass_latency_p99_ms": p99s,
        "setup_samples_s": setup_samples,
        "failed_frac": len(failures) / attempted,
    }
    return metrics, detail, attempted, failures


def _traced(args, workload) -> tuple:
    from spans import Tracer
    from workloads import CACHES, run_pass

    tracer = Tracer()
    failures, summaries = [], []
    attempted = 0
    window_start = time.perf_counter()
    index = 0
    while True:
        cycle_start = time.perf_counter()
        requests = workload.requests(args.seed, index)
        gc.collect()
        plain = run_pass(requests, workload.keep_output)
        gc.collect()
        tracer.reset()
        traced = run_pass(requests, workload.keep_output, tracer)
        summary = tracer.summary(traced.wall_s, traced.cpu_s)
        hits = sum(c.cache_info().hits for c in CACHES)
        lookups = hits + sum(c.cache_info().misses for c in CACHES)
        summary["formulas.cache_lookups"] = lookups
        summary["formulas.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        summary["cli.output_bytes"] = sum(o.nbytes for o in traced.outcomes)
        summary["cli.exit_nonzero"] = sum(1 for o in traced.outcomes if o.rc != 0)
        summary["trace.untraced_wall_s"] = plain.wall_s
        summary["trace.overhead_frac"] = (traced.wall_s - plain.wall_s) / plain.wall_s
        summaries.append(summary)

        failures += workload.check(requests, plain.outcomes)
        failures += workload.check(requests, traced.outcomes)
        failures += [
            f"request {i}: traced stdout differs from untraced stdout"
            for i, (a, b) in enumerate(zip(plain.outcomes, traced.outcomes))
            if (a.rc, a.digest) != (b.rc, b.digest)
        ]
        attempted += 2 * len(requests)
        index += 1
        now = time.perf_counter()
        if (now - window_start) + (now - cycle_start) > args.seconds:
            break

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(spans_path)

    metrics = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    detail = {
        "pairs": index,
        "passes": summaries,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "failed_frac": len(failures) / attempted,
    }
    return metrics, detail, attempted, failures


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "curvemotives" / "__init__.py").is_file():
        print(f"error: no curvemotives sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import curvemotives

    if Path(curvemotives.__file__).resolve().parent != SRC / "curvemotives":
        print(f"error: imported curvemotives from {curvemotives.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    measure = _traced if args.trace else _untraced
    metrics, detail, attempted, failures = measure(args, workload)

    for name, unit in declared.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"failed_frac = {detail['failed_frac']:.6g} ({len(failures)} of {attempted})")
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    record = dict(_environment(args), **detail, failures=failures[:20])
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
