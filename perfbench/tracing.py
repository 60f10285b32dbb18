"""Spans and counters recorded around calls into gaussmap's public functions.

Tracing patches module attributes only: each listed function is replaced,
in every gaussmap module that refers to it by name, with a wrapper that
records a span (name, start, end, parent, operation, info). The `cli`
module imported its helpers by name, so they are patched there too. No
file under src/ changes, and an untraced run installs nothing.
"""

import importlib
import sys
import time
import tracemalloc

import numpy as np

# (span name, function name, modules whose attribute is replaced)
SPANS = [
    ("cli.main", "main", ["gaussmap.cli"]),
    ("io.load", "load_map", ["gaussmap.cli", "gaussmap.io"]),
    ("io.load", "load_state_arrays", ["gaussmap.cli", "gaussmap.io"]),
    ("io.report", "write_report", ["gaussmap.cli", "gaussmap.io"]),
    ("classify.classify", "classify", ["gaussmap.cli", "gaussmap.classify"]),
    ("classify.is_g2g", "is_g2g", ["gaussmap.cli", "gaussmap.classify"]),
    ("classify.is_cp", "is_cp", ["gaussmap.classify"]),
    ("classify.search", "minimize_direction_margin", ["gaussmap.classify"]),
    ("classify.factoring", "homogeneous_factoring_check", ["gaussmap.cli", "gaussmap.classify"]),
    ("classify.decompose", "decompose_one_mode", ["gaussmap.cli", "gaussmap.classify"]),
    ("classify.decompose", "decompose_no_noise", ["gaussmap.cli", "gaussmap.classify"]),
    ("gaussian.map_init", "GaussianMap", ["gaussmap.io", "gaussmap.classify"]),
    ("symplectic", "symplectic_eigenvalues", ["gaussmap.cli", "gaussmap.symplectic"]),
    ("symplectic", "is_valid_covariance", ["gaussmap.cli", "gaussmap.symplectic", "gaussmap.gaussian"]),
    ("symplectic", "is_symplectic", ["gaussmap.classify", "gaussmap.symplectic"]),
    ("fockprobe.row", "dilated_fock_coefficients", ["gaussmap.fockprobe"]),
    ("fockprobe.trace_norm", "trace_norm_sum", ["gaussmap.fockprobe"]),
    ("fockprobe.hs_norm", "hs_norm_check", ["gaussmap.fockprobe"]),
    ("fockprobe.sweep", "dilated_fock_sweep", ["gaussmap.fockprobe"]),
    ("fockprobe.probe", "probe_fock_mixture", ["gaussmap.cli", "gaussmap.fockprobe"]),
]
# (counter name, function name, modules)
COUNTERS = [
    ("symplectic.standard_form_calls", "standard_form", ["gaussmap.symplectic", "gaussmap.classify"]),
]
FOCK_SPANS = {"fockprobe.row", "fockprobe.trace_norm", "fockprobe.hs_norm",
              "fockprobe.sweep", "fockprobe.probe"}


def _info(name, args, kwargs, result):
    """Per-span details needed by the metrics, taken from inputs and outputs."""
    if name == "classify.classify":
        return {"n": args[0].n, "inconclusive": result.is_g2g is None}
    if name == "classify.is_g2g":
        return {"inconclusive": result is None}
    if name == "classify.search":
        return {"evals": int(getattr(result, "evals", 0))}
    if name == "classify.factoring":
        return {"n": args[0].n}
    if name == "fockprobe.row":
        return {"m": int(args[0]), "lam": float(args[1]), "N": int(result.truncation_N)}
    if name in ("fockprobe.trace_norm", "fockprobe.hs_norm"):
        return {"m": int(args[0]), "lam": float(args[1])}
    if name == "fockprobe.sweep":
        return {"m": int(args[0]), "lam": float(args[1]),
                "rows": [(r.m, r.truncation_N) for r in result]}
    if name == "fockprobe.probe":
        w = np.asarray(args[0])
        return {"m": w.size - 1, "lam": float(args[1]), "used_rows": int(np.count_nonzero(w)),
                "N": len(result.coefficients) - 1}
    return None


class Tracer:
    """In-memory span log plus the patches that feed it.

    Spans are lists [name, start_ns, end_ns, parent_index, op_id, info];
    op_id ties the spans of one benchmark operation together.
    """

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name, _, _ in COUNTERS}
        self.counts["classify.eigensolves"] = 0
        self.stack = []
        self.op_id = -1
        self._undo = []

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op_id, None]
            index = len(spans)
            spans.append(rec)
            stack.append(index)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[5] = _info(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def eigen_counter(self, fn):
        """Counts numpy.linalg eigensolves whose caller is gaussmap.classify code."""
        counts = self.counts

        def counted(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "gaussmap.classify":
                counts["classify.eigensolves"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, module, attr, wrapper):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        """Patch every listed function that the loaded gaussmap still has."""
        for name, attr, modules in SPANS:
            for mod_name in modules:
                module = importlib.import_module(mod_name)
                if hasattr(module, attr):
                    self._patch(module, attr, self.span(name, getattr(module, attr)))
        for name, attr, modules in COUNTERS:
            for mod_name in modules:
                module = importlib.import_module(mod_name)
                if hasattr(module, attr):
                    self._patch(module, attr, self.counter(name, getattr(module, attr)))
        for attr in ("eigh", "eigvalsh"):
            self._patch(np.linalg, attr, self.eigen_counter(getattr(np.linalg, attr)))

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


def peak_alloc(call):
    """Run call() under tracemalloc and return the peak bytes it allocated."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
