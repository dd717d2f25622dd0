"""Timing wrappers for the benchmark's traced run.

The wrappers live in the benchmark, not in the package: ``Tracer.install``
replaces each traced name in every ``curvemotives`` namespace that holds it
(``cli`` imports ``macdonald_oracle`` by name, so patching ``realization``
alone would miss those calls), patches methods on their class, and wraps
``lru_cache``d functions from the outside so that cache hits are calls too.
``Tracer.uninstall`` puts the originals back.

Each wrapped call is a span: name, start and end on the wall clock, the
span that caused it and the request it belongs to.  Spans are kept in
memory, one store per thread, and written out by ``Tracer.write``.

Self time is measured on the calling thread's CPU clock: a span's self time
is its CPU time minus the CPU time of the wrapped calls it made, wrapper
bookkeeping included.  On that clock, time a ``--jobs 2`` worker thread
spends waiting for the interpreter lock is not charged to any span, so the
self times of all threads add up to the process CPU time of the pass:

    pass wall = sum of self times + wrapper gap + bench gap + off-CPU time

where the wrapper gap is the wrappers' own bookkeeping, the bench gap is
the benchmark's loop, output capture and hashing, and off-CPU time is wall
time in which the process ran no thread.
"""

from __future__ import annotations

import gzip
import itertools
import sys
import threading
import time
from array import array

from curvemotives import cli, core, dsl, formulas, polynomials, realization

# metric name -> the (owner, attribute) pairs it times.  A module-level
# function is replaced in every curvemotives namespace that holds it.
TARGETS = {
    "cli.main": [(cli, "main")],
    "dsl.parse": [(dsl, "parse")],
    "dsl.evaluate": [(dsl, "evaluate")],
    "dsl.print_expr": [(dsl, "print_expr")],
    "core.construct": [(core.MotiveClass, "__init__")],
    "core.eq": [(core.MotiveClass, "__eq__")],
    "core.direct_sum": [(core, "direct_sum")],
    "core.tensor": [(core, "tensor")],
    "core.str": [(core.MotiveClass, "__str__"), (core.MotiveClass, "to_dict"),
                 (core.MotiveClass, "to_json")],
    "formulas.sym_power_curve": [(formulas, "sym_power_curve")],
    "formulas.moduli": [(formulas, "moduli_motive_delbano"),
                        (formulas, "moduli_motive_conjectural")],
    "formulas.proof_chain": [(formulas, "proof_chain_check")],
    "polynomials.construct": [(polynomials.IntPolynomial, "__init__"),
                              (polynomials.BiPolynomial, "__init__")],
    "polynomials.add": [(polynomials.IntPolynomial, "__add__"),
                        (polynomials.IntPolynomial, "__sub__"),
                        (polynomials.IntPolynomial, "__neg__"),
                        (polynomials.BiPolynomial, "__add__")],
    "polynomials.mul": [(polynomials.IntPolynomial, "__mul__"),
                        (polynomials.BiPolynomial, "__mul__")],
    "polynomials.pow": [(polynomials.IntPolynomial, "__pow__")],
    "polynomials.divmod": [(polynomials.IntPolynomial, "__divmod__")],
    "polynomials.eq": [(polynomials.IntPolynomial, "__eq__"),
                       (polynomials.BiPolynomial, "__eq__")],
    "polynomials.str": [(polynomials.IntPolynomial, "__str__"),
                        (polynomials.BiPolynomial, "__str__")],
    "realization.poincare": [(realization, "poincare_polynomial")],
    "realization.hodge": [(realization, "hodge_polynomial")],
    "realization.atiyah_bott": [(realization, "atiyah_bott_oracle")],
    "realization.macdonald": [(realization, "macdonald_oracle")],
    "realization.key_identity": [(realization, "key_identity_sides"),
                                 (realization, "verify_key_identity")],
    "realization.block_report": [(realization, "block_decomposition_report")],
    "realization.diamond": [(realization, "hodge_diamond_rows"),
                            (realization, "render_hodge_diamond")],
    "realization.serialize": [(realization.BlockReport, "to_dict"),
                              (realization.BlockReport, "to_json")],
}

# Counts taken from a call's arguments and result once it has returned.
RESULT_COUNTS = {
    "polynomials.mul": ("polynomials.mul.term_products",
                        lambda args, result: len(args[0].items()) * len(args[1].items())),
    "polynomials.str": ("polynomials.str.bytes",
                        lambda args, result: len(result.encode("utf-8"))),
}

# Exceptions counted where a span raises them.
RAISED_COUNTS = {
    "core.tensor": ("core.tensor.nontate_raised", core.NonTateTensor),
    "dsl.parse": ("dsl.parse_errors", dsl.ParseError),
}

SPAN_COLUMNS = ("span", "parent", "request", "name", "thread",
                "wall_start_ns", "wall_end_ns", "self_cpu_ns", "gap_cpu_ns")


class _Store:
    """The spans and counts of one thread."""

    def __init__(self, thread: int, is_main: bool):
        self.thread = thread  # the order in which threads first made a span
        self.is_main = is_main
        self.stack = []  # [child CPU ns, span id] per open span
        self.columns = {c: array("q") for c in SPAN_COLUMNS}
        self.counts = {}
        self.root_ns = 0  # CPU of this thread's outermost spans, gaps included


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.request = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stores = []
        self._ids = itertools.count()
        self._open_root = -1  # the main thread's open outermost span
        self._patches = []

    # --- install / uninstall ------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if (name == "curvemotives" or name.startswith("curvemotives."))
                   and m is not None]
        for name_id, name in enumerate(self.names):
            for owner, attr in TARGETS[name]:
                original = vars(owner)[attr]
                wrapper = self._wrap(original, name_id, name)
                owners = [owner] if isinstance(owner, type) else [
                    m for m in modules if vars(m).get(attr) is original]
                for holder in owners:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # --- spans --------------------------------------------------------------

    def _store(self) -> _Store:
        store = getattr(self._local, "store", None)
        if store is None:
            is_main = threading.current_thread() is threading.main_thread()
            with self._lock:
                store = _Store(len(self._stores), is_main)
                self._stores.append(store)
            self._local.store = store
        return store

    def _wrap(self, fn, name_id: int, name: str):
        cpu = time.thread_time_ns
        wall = time.perf_counter_ns
        ids = self._ids
        result_count = RESULT_COUNTS.get(name)
        raised_count = RAISED_COUNTS.get(name)
        tracer = self

        def close(store, frame, parent, w0, a, b, c):
            w1 = wall()
            stack = store.stack
            stack.pop()
            cols = store.columns
            cols["span"].append(frame[1])
            cols["parent"].append(parent)
            cols["request"].append(tracer.request)
            cols["name"].append(name_id)
            cols["thread"].append(store.thread)
            cols["wall_start_ns"].append(w0)
            cols["wall_end_ns"].append(w1)
            cols["self_cpu_ns"].append((c - b) - frame[0])
            d = cpu()
            cols["gap_cpu_ns"].append((d - a) - (c - b))
            if stack:
                stack[-1][0] += d - a
            else:
                store.root_ns += d - a
                if store.is_main:
                    tracer._open_root = -1

        def count(store, key, amount):
            store.counts[key] = store.counts.get(key, 0) + amount

        def wrapper(*args, **kwargs):
            a = cpu()
            store = tracer._store()
            stack = store.stack
            frame = [0, next(ids)]
            parent = stack[-1][1] if stack else tracer._open_root
            if not stack and store.is_main:
                tracer._open_root = frame[1]
            stack.append(frame)
            w0 = wall()
            b = cpu()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                c = cpu()
                if raised_count is not None and isinstance(exc, raised_count[1]):
                    count(store, raised_count[0], 1)
                close(store, frame, parent, w0, a, b, c)
                raise
            c = cpu()
            if result_count is not None:
                count(store, result_count[0], result_count[1](args, result))
            close(store, frame, parent, w0, a, b, c)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- results ------------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self._stores = []
        self._local = threading.local()

    def summary(self, pass_wall_s: float, pass_cpu_s: float) -> dict:
        """Per-layer totals of the spans recorded since ``reset``."""
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        counts = {key: 0 for key, _ in (*RESULT_COUNTS.values(), *RAISED_COUNTS.values())}
        gap_ns = root_ns = spans = 0
        for store in self._stores:
            if store.stack:
                raise RuntimeError("a span was left open")
            for name_id, self_cpu in zip(store.columns["name"], store.columns["self_cpu_ns"]):
                calls[name_id] += 1
                self_ns[name_id] += self_cpu
            gap_ns += sum(store.columns["gap_cpu_ns"])
            root_ns += store.root_ns
            spans += len(store.columns["span"])
            for key, value in store.counts.items():
                counts[key] += value
        out = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[name_id]
            out[f"{name}.self_s"] = self_ns[name_id] / 1e9
        out.update(counts)
        self_sum = sum(self_ns) / 1e9
        out["trace.spans"] = spans
        out["trace.wall_s"] = pass_wall_s
        out["trace.self_sum_s"] = self_sum
        out["trace.wrapper_gap_s"] = gap_ns / 1e9
        out["trace.bench_gap_s"] = pass_cpu_s - root_ns / 1e9
        out["trace.offcpu_s"] = pass_wall_s - pass_cpu_s
        return out

    def write(self, path) -> None:
        """Write the recorded spans as gzipped CSV, one span a line."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("# names: " + ",".join(self.names) + "\n")
            handle.write(",".join(SPAN_COLUMNS) + "\n")
            for store in self._stores:
                columns = [store.columns[c] for c in SPAN_COLUMNS]
                for row in zip(*columns):
                    handle.write(",".join(map(str, row)) + "\n")
