"""Workload process: build one round from the seed, repeat it, check, report.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/. A single caller sends one operation after another (a
closed loop) and times each call alone. Right after each call it times
the reference kernel of calib.py and scales the call's time to the
kernel's reference speed; the check runs after that, outside the timing.
Whole rounds are repeated until the wall-clock total of the calls
reaches --seconds, so every run attempts the same operations in the
same proportions. The last line of stdout is one JSON object.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import calib
import tracing
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


class Loop:
    """Runs rounds of operations and keeps timings and check results."""

    def __init__(self, ops):
        self.ops = ops
        self.scaled_ns = [[] for _ in ops]  # per operation, one sample per round
        self.wall_ns = 0
        self.factors = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.verified = set()
        self.reported = set()

    def _check(self, index, op, output):
        if op.cache_check:
            key = (index, W.output_digest(output))
            if key in self.verified:
                return None
            reason = op.check(output)
            if reason is None:
                self.verified.add(key)
            return reason
        return op.check(output)

    def round(self, tracer=None):
        """One pass over the operations; returns (wall ns, scaled ns) of the calls."""
        clock = time.perf_counter_ns
        wall = scaled = 0
        for index, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = self.attempted
            start = clock()
            try:
                output = op.run()
                reason = None
            except Exception as exc:  # an operation that raises has failed
                output, reason = None, f"{op.label}: raised {exc!r}"
            elapsed = clock() - start
            factor = calib.scale(calib.reference_ns())
            self.scaled_ns[index].append(elapsed * factor)
            self.factors.append(factor)
            wall += elapsed
            scaled += elapsed * factor
            self.attempted += 1
            if reason is None:
                reason = self._check(index, op, output)
            del output
            if reason is not None:
                self.failed += 1
                if not op.fault:
                    self.unexpected.append(reason)
                if reason not in self.reported:
                    self.reported.add(reason)
                    kind = "named fault" if op.fault else "FAILED"
                    print(f"[{kind}] {reason}", file=sys.stderr)
        self.wall_ns += wall
        return wall, scaled

    def run_for(self, seconds, tracer=None):
        """Whole rounds until the calls' wall time reaches `seconds`; returns scaled ns."""
        wall = scaled = 0
        while wall < seconds * 1e9:
            w, s = self.round(tracer)
            wall += w
            scaled += s
        return scaled

    def end_to_end(self):
        """ops_per_s and op_p50_ms from each operation's median scaled time over rounds."""
        per_op = [statistics.median(samples) for samples in self.scaled_ns]
        return {
            "ops_per_s": {"value": len(per_op) / (sum(per_op) / 1e9), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(per_op) / 1e6, "unit": "ms"},
        }


def _median_ms(values_ns):
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


def _nominal(m, bases=(30, 50, 100, 300, 400, 500, 1000, 2000)):
    base = min(bases, key=lambda b: abs(b - m))
    return base if abs(base - m) <= base / 50 else None


def _fock_cells(name, info, cutoff):
    """(table cells, coefficients used) for one fockprobe span, computed.

    The table is the (m+1) x (N+1) array the call builds; N comes from
    the returned truncation_N, or for the scalar sums from the module's
    own cutoff rule when it still has one.
    """
    m = info["m"]
    if name == "fockprobe.row":
        return (m + 1) * (info["N"] + 1), info["N"] + 1
    if name == "fockprobe.sweep":
        n_top = max(n for _, n in info["rows"])
        return (m + 1) * (n_top + 1), sum(n + 1 for _, n in info["rows"])
    if name == "fockprobe.probe":
        return (m + 1) * (info["N"] + 1), info["used_rows"] * (info["N"] + 1)
    if cutoff is None:
        return 0, 0
    lam = info["lam"]
    n_cut, _ = cutoff(m, (lam * lam - 1.0) / (lam * lam + 1.0), W.FOCK_EPS)
    return (m + 1) * (n_cut + 1), n_cut + 1


def layer_metrics(tracer, ops_done, peak_bytes):
    """Per-layer metrics from the spans and counters of the traced rounds."""
    spans = tracer.spans
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child_ns = [0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child_ns[s[3]] += d

    def outermost(i):
        p = spans[i][3]
        while p >= 0:
            if names[p] == names[i]:
                return False
            p = spans[p][3]
        return True

    totals = {}
    counts = {}
    for i, name in enumerate(names):
        counts[name] = counts.get(name, 0) + 1
        if outermost(i):
            totals[name] = totals.get(name, 0) + dur[i]

    def per_op_ms(name):
        return totals.get(name, 0) / 1e6 / ops_done

    def median_where(name, pred):
        return _median_ms([dur[i] for i, s in enumerate(spans) if s[0] == name and pred(s[5])])

    fp = sys.modules.get("gaussmap.fockprobe")
    cutoff = getattr(fp, "_tail_cutoff", None)
    cells = useful = 0
    for i, s in enumerate(spans):
        if s[0] in tracing.FOCK_SPANS and outermost(i):
            c, u = _fock_cells(s[0], s[5], cutoff)
            cells += c
            useful += u

    def info_sum(name, key):
        return sum(s[5][key] for s in spans if s[0] == name)

    m = {
        "cli.self_ms": sum(dur[i] - child_ns[i] for i, n in enumerate(names) if n == "cli.main")
        / 1e6 / ops_done,
        "io.load_ms": per_op_ms("io.load"),
        "io.report_ms": per_op_ms("io.report"),
    }
    for n in (1, 2, 4, 8):
        m[f"classify.decide_ms.n{n}"] = median_where("classify.classify", lambda x, n=n: x["n"] == n)
    m.update({
        "classify.search_calls": counts.get("classify.search", 0) / ops_done,
        "classify.search_ms": per_op_ms("classify.search"),
        "classify.search_evals": info_sum("classify.search", "evals") / ops_done,
        "classify.inconclusive": (info_sum("classify.classify", "inconclusive")
                                  + info_sum("classify.is_g2g", "inconclusive")) / ops_done,
        "classify.factoring_ms": per_op_ms("classify.factoring"),
        "classify.factoring_ms.n2": median_where("classify.factoring", lambda x: x["n"] == 2),
        "classify.factoring_ms.n8": median_where("classify.factoring", lambda x: x["n"] == 8),
        "classify.decompose_ms": per_op_ms("classify.decompose"),
        "classify.cp_ms": per_op_ms("classify.is_cp"),
        "classify.eigensolves": tracer.counts["classify.eigensolves"] / ops_done,
        "gaussian.map_init_ms": per_op_ms("gaussian.map_init"),
        "symplectic.ms": per_op_ms("symplectic"),
        "symplectic.standard_form_calls": tracer.counts["symplectic.standard_form_calls"] / ops_done,
    })
    for base in (50, 500, 2000):
        m[f"fockprobe.row_ms.m{base}"] = median_where(
            "fockprobe.row", lambda x, b=base: x["lam"] == 2.0 and _nominal(x["m"]) == b)
    m["fockprobe.trace_norm_ms.m500"] = median_where(
        "fockprobe.trace_norm", lambda x: x["lam"] == 2.0 and _nominal(x["m"]) == 500)
    m["fockprobe.probe_ms"] = per_op_ms("fockprobe.probe")
    m["fockprobe.sweep_ms"] = per_op_ms("fockprobe.sweep")
    for lam in (1.2, 2.0, 3.0):
        m[f"fockprobe.sweep500_ms.lam{lam:g}"] = median_where(
            "fockprobe.sweep", lambda x, lam=lam: x["lam"] == lam and _nominal(x["m"]) == 500)
    m["fockprobe.table_cells"] = cells / ops_done
    m["fockprobe.useful_ratio"] = useful / cells if cells else 0.0
    m["fockprobe.peak_alloc_mb"] = max(peak_bytes, default=0) / 2**20
    return m


UNITS = {
    "classify.search_calls": "count/op",
    "classify.search_evals": "count/op",
    "classify.inconclusive": "count/op",
    "classify.eigensolves": "count/op",
    "symplectic.standard_form_calls": "count/op",
    "fockprobe.table_cells": "count/op",
    "fockprobe.useful_ratio": "ratio",
    "fockprobe.peak_alloc_mb": "MB",
    "trace.overhead_pct": "%",
}


# Medians of single calls, by size; every other time is a mean per operation.
PER_CALL_MEDIANS = ("classify.decide_ms.", "classify.factoring_ms.", "fockprobe.row_ms.",
                    "fockprobe.trace_norm_ms.", "fockprobe.sweep500_ms.")


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    return "ms" if name.startswith(PER_CALL_MEDIANS) else "ms/op"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(W.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    try:
        rng = np.random.default_rng(args.seed)
        loop = Loop(W.ROUNDS[args.workload](rng, workdir, args.smoke))
        if args.trace:
            plain_ns = loop.run_for(args.seconds / 2)
            plain_ops = loop.attempted
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_ns = loop.run_for(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            traced_ops = loop.attempted - plain_ops
            # One more pass, untimed, for the tracemalloc peak of each Fock call.
            peaks = []
            if args.workload.startswith("fock"):
                peaks = [tracing.peak_alloc(op.run) for op in loop.ops]
            metrics = layer_metrics(tracer, traced_ops, peaks)
            metrics["trace.overhead_pct"] = 100.0 * (
                (traced_ns / traced_ops) / (plain_ns / plain_ops) - 1.0)
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "info"],
                           "spans": tracer.spans, "counts": tracer.counts}, fh)
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
        else:
            # Medians over rounds: every round repeats each call, so a call
            # that met a slow spell the reference kernel missed counts once.
            loop.run_for(args.seconds)
            metrics = loop.end_to_end()
        print(f"wall clock: {loop.attempted / (loop.wall_ns / 1e9):.4g} ops/s; machine speed "
              f"against the reference: {statistics.median(loop.factors):.3f}", file=sys.stderr)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = {
            "correct": not loop.unexpected,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": metrics,
            "peak_rss_mb": peak_kb / 1024.0,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
