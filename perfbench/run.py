#!/usr/bin/env python3
"""Benchmark of the `nvortex` command line tool, run from the repository root.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 perfbench/run.py --workload continue_pair --seed 1 --seconds 15 --trace 0

Every workload, untraced and traced, with the tracing overhead and a traced
continuation on one BLAS thread for comparison:

    python3 perfbench/run.py --workload all --seed 1 --seconds 15

The program is imported from ``src/`` of the same checkout; nothing is
installed.  Scratch files go to ``.perfbench_work/`` and are removed at the
end.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers under the names used in perfbench/README.md, the
correctness verdict and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("continue_pair", "continue_triangle_newton",
                  "validate_orbits", "certify_equilibria")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 900
# passes of the reference loop at each boundary between operations
CAL_PASSES = 3
# the reference loop's time on an uncontended host: its fast phases on a
# 2-vCPU Intel Xeon VM (AVX-512) took 3.1-3.4 ms
CAL_NOMINAL_S = 3.3e-3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import the workloads (and with them nvortex) from this checkout."""
    if not (SRC / "nvortex" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'nvortex'}")
    sys.path.insert(0, str(SRC))
    import nvortex
    if Path(nvortex.__file__).resolve().parent != (SRC / "nvortex").resolve():
        raise SystemExit(f"perfbench: imported nvortex from {nvortex.__file__}")
    import workloads
    return workloads


def environment() -> dict:
    """Core count, interpreter and library versions, and BLAS threads."""
    import ctypes

    import numpy
    import scipy

    blas = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            blas.append({"library": Path(path).name,
                         "config": config().decode().strip(),
                         "threads": int(threads())})
            break
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def setup_probe(args) -> int:
    """The repeated part of set-up, in a fresh interpreter: import the
    program and write the workload's inputs."""
    wl = import_program()
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        wl.WORKLOADS[args.workload](args.seed, workdir).write_inputs()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args) -> float:
    """Median wall time of SETUP_REPEATS set-up probes, in seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_loop() -> float:
    """Seconds for one pass of a fixed loop of interpreted arithmetic, small
    dot products and 6x6 matrix products, the mix that `dynamics` and
    `equilibria` spend their time in."""
    import numpy as np

    rows = np.arange(36.0).reshape(6, 6) / 36.0
    rot = np.linalg.qr(rows + np.eye(6))[0]  # orthogonal, so m stays bounded
    m = np.eye(6)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        m = rot @ m @ rot.T
        acc += float(np.dot(rows[i % 6], rows[(i + 1) % 6])) + (i * i) % 7
    return time.perf_counter() - t0


def calibrate() -> float:
    """The host's current speed, as the median of CAL_PASSES reference
    loops, in seconds."""
    return statistics.median(reference_loop() for _ in range(CAL_PASSES))


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def adjusted_ms(outcomes: list, cal: list) -> list:
    """Each operation's wall time in ms, scaled to the nominal host speed by
    the reference loops before and after it.  Without reference loops (a
    workload whose operations are not scaled) the wall times are returned."""
    if not cal:
        return [1e3 * o.seconds for o in outcomes]
    return [1e3 * o.seconds * CAL_NOMINAL_S / (0.5 * (cal[i] + cal[i + 1]))
            for i, o in enumerate(outcomes)]


def report_lines(name: str, outcomes: list, notes: dict, attempted: int,
                 failed: int, setup_s: float, rss_mb: float, adj: list,
                 cal: list) -> list:
    """The end-to-end numbers under the names perfbench/README.md uses."""
    ms = [1e3 * o.seconds for o in outcomes]
    lines = [f"op_adj_ms.p50 = {statistics.median(adj):.3f} ms (median of "
             f"{len(adj)} operations)"]
    if cal:
        lines.append(f"reference loop: median {1e3 * statistics.median(cal):.3f}"
                     f" ms, range {1e3 * min(cal):.3f}-{1e3 * max(cal):.3f} ms,"
                     f" nominal {1e3 * CAL_NOMINAL_S:.3f} ms")
    else:
        lines.append("operations not scaled: op_adj_ms is the wall time")
    if name.startswith("continue_"):
        units = sum(o.units for o in outcomes)
        good = sum(o.good_units for o in outcomes)
        lines += [f"continue_s = {statistics.median(ms) / 1e3:.4f} s "
                  f"(median of {len(ms)} continuations)",
                  f"grid_converged_frac = {good / units:.4f} "
                  f"({good} orbits / {units} r values)"]
    elif name == "validate_orbits":
        lines += [f"validate_ms.p50 = {quantile(ms, 50):.3f} ms "
                  f"({len(ms)} validations)",
                  f"validate_ms.p90 = {quantile(ms, 90):.3f} ms",
                  f"fixture_s = {notes['fixture_s']:.4f} s (set-up "
                  f"continuations of pair cases {notes['fixture_cases']})"]
    else:
        lines += [f"certify_ms.p50 = {quantile(ms, 50):.3f} ms "
                  f"({len(ms)} certifications)",
                  f"certify_ms.p90 = {quantile(ms, 90):.3f} ms"]
    lines += [f"failed_frac = {failed / attempted:.4f} "
              f"({failed} / {attempted} operations)",
              f"setup_s = {setup_s:.4f} s (median of {SETUP_REPEATS})",
              f"peak_rss_mb = {rss_mb:.1f} MB"]
    return lines


def run_workload(args) -> int:
    wl = import_program()
    from tracer import Tracer, layer_metrics

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = None if args.trace else measure_setup(args)
        bench = wl.WORKLOADS[args.workload](args.seed, workdir)
        bench.write_inputs()
        fixture = bench.prepare()
        # the reference loop runs before the first operation and after each
        outcomes, cal = [], [calibrate()] if bench.scaled else []

        def step():
            outcomes.append(bench.op(len(outcomes)))
            if bench.scaled:
                cal.append(calibrate())

        if args.trace:
            with Tracer() as tracer:
                for i in range(bench.traced_ops):
                    tracer.op_id = i
                    step()
        else:
            t0 = time.perf_counter()
            while (len(outcomes) < bench.min_ops
                   or time.perf_counter() - t0 < args.seconds):
                step()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = [p for o in fixture + outcomes for p in o.problems]
    attempted = len(fixture) + len(outcomes)
    failed = sum(bool(o.problems) for o in fixture + outcomes)

    ms = [1e3 * o.seconds for o in outcomes]
    adj = adjusted_ms(outcomes, cal)
    if args.trace:
        metrics = layer_metrics(tracer.summary(),
                                sum(o.fp_iters for o in outcomes))
        metrics["trace.ops"] = (len(outcomes), "count")
        metrics["trace.op_ms.p50"] = (statistics.median(ms), "ms")
        metrics["trace.op_adj_ms.p50"] = (statistics.median(adj), "ms")
        lines = [f"traced {len(outcomes)} operations, "
                 f"{len(tracer.spans)} spans"]
    else:
        metrics = {
            "op_adj_ms.p50": (statistics.median(adj), "ms"),
            "yield_frac": (sum(o.good_units for o in outcomes)
                           / sum(o.units for o in outcomes), "frac"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        lines = report_lines(args.workload, outcomes, bench.notes,
                             attempted, failed, setup_s, rss_mb, adj, cal)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print("  " + line)
    print("  correct: " + ("yes" if not problems else
                           f"NO, {len(problems)} problems"))
    for p in problems[:20]:
        print("    " + p)
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_child(args, workload: str, trace: int, env: dict | None = None) -> dict:
    """Run one workload in a fresh interpreter; echo its report lines."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, env={**os.environ, **(env or {})})
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {workload} (trace {trace}) exited "
                         f"with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload untraced and traced, then the overhead of tracing and
    the per-call cost of lu_factor on the default and on one BLAS thread."""
    plain, traced = {}, {}
    for name in WORKLOAD_NAMES:
        plain[name] = run_child(args, name, 0)
        traced[name] = run_child(args, name, 1)
    one_thread = run_child(args, "continue_pair", 1, {"OPENBLAS_NUM_THREADS": "1"})

    def value(result, metric):
        return result["metrics"][metric]["value"]

    print("tracing overhead (traced / untraced op_adj_ms.p50):")
    for name in WORKLOAD_NAMES:
        base = value(plain[name], "op_adj_ms.p50")
        slow = value(traced[name], "trace.op_adj_ms.p50")
        print(f"  {name:26s} {base:12.3f} ms  {slow:12.3f} ms  x{slow / base:.3f}")
    print("reduction.lu_factor per call on continue_pair (p50 / max):")
    for label, res in (("default BLAS threads", traced["continue_pair"]),
                       ("OPENBLAS_NUM_THREADS=1", one_thread)):
        print(f"  {label:24s} {value(res, 'reduction.lu_factor.p50_ms'):9.3f} ms "
              f"/ {value(res, 'reduction.lu_factor.max_ms'):9.3f} ms over "
              f"{value(res, 'reduction.lu_factor.calls')} calls; traced "
              f"continuation {value(res, 'trace.op_ms.p50') / 1e3:.3f} s")

    results = list(plain.values()) + list(traced.values()) + [one_thread]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{name}.{k}": v for name in WORKLOAD_NAMES
                    for k, v in plain[name]["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
