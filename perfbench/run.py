"""Benchmark entry point for gaussmap.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. With --trace 0 the last line of stdout
is {"correct", "attempted", "failed", "metrics"} with the end-to-end
metrics setup_s, ops_per_s, op_p50_ms and peak_rss_mb; with --trace 1
the metrics are the per-layer ones. --smoke runs every workload at tiny
sizes, once untraced and once traced, and exits non-zero on any wrong
output. See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("onemode-files", "multimode-maps", "fock-rows", "fock-sweep")
# The gaussmap modules each workload calls; setup_s is the time to import them.
SETUP_MODULE = {
    "onemode-files": "gaussmap.cli",
    "multimode-maps": "gaussmap.cli",
    "fock-rows": "gaussmap.fockprobe",
    "fock-sweep": "gaussmap.fockprobe",
}
SETUP_LAUNCHES = 9
IMPORTTIME_LAUNCHES = 3
CHILD_TIMEOUT_S = 170


def child_env():
    """Environment of every interpreter the benchmark starts.

    gaussmap is imported from the checkout's src/, and BLAS and OpenMP
    pools are capped at the CPUs this process may run on.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cpus = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= cpus:
            env[var] = str(cpus)
    return env


def measure_setup(module, env, launches):
    """Median scaled time from launching an interpreter until `module` is imported.

    The child writes one byte once the import is done; the clock stops
    when the parent reads it, so interpreter teardown is not counted.
    Each launch is scaled by the reference kernel timed just before and
    just after it (see calib.py).
    """
    import calib  # numpy is loaded only once the checkout has been found

    code = f"import {module}, sys; sys.stdout.write('1'); sys.stdout.flush()"
    times = []
    for _ in range(launches):
        before = calib.reference_ns()
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT) as proc:
            marker = proc.stdout.read(1)
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait()
        if marker != b"1" or proc.returncode != 0:
            raise RuntimeError(f"importing {module} failed (exit {proc.returncode})")
        times.append(elapsed * calib.scale((before + calib.reference_ns()) / 2))
    return statistics.median(times)


def import_times_ms(module, env):
    """Cumulative import times of gaussmap and scipy.linalg from -X importtime."""
    samples = {"gaussmap": [], "scipy.linalg": []}
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                              env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) / 1000.0)
    return {
        f"setup.import_ms.{name.replace('.', '_')}": {
            "value": statistics.median(v) if v else 0.0, "unit": "ms"}
        for name, v in samples.items()
    }


def run_workload(workload, seed, seconds, trace, smoke, env):
    """Run loop.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "loop.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, smoke=False):
    env = child_env()
    module = SETUP_MODULE[workload]
    setup_s = None if trace else measure_setup(module, env, 1 if smoke else SETUP_LAUNCHES)
    result = run_workload(workload, seed, seconds, trace, smoke, env)
    metrics = result["metrics"]
    if trace:
        metrics.update(import_times_ms(module, env))
    else:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def smoke():
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(workload, seed=1, seconds=0.2, trace=trace, smoke=True)
            ok = ok and result["correct"]
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"metrics={len(result['metrics'])}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and report pass/fail")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gaussmap", "__init__.py")):
        print(f"run.py: no gaussmap sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
