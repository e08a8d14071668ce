"""fracfilt benchmark: one workload per process, timed rounds, checked outputs.

    python3 perfbench/run.py --workload density --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  fracfilt is imported from ./src, never from an
installed copy; without it the command exits 2 and prints no result.  The last
line of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end metrics; with
--trace 1 they are the per-layer metrics of perfbench/layers.py plus each
check's value.  See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
NAMES = ("density", "ensemble", "particles", "kernel")
SETUP_REPEATS = 3
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "oracle_err_ratio": "ratio"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        p.error("--seed must lie in [0, 2**63)")
    return args


def _import_workloads():
    """Import fracfilt from ./src (pinned to single-threaded BLAS) and the workloads."""
    if not os.path.isfile(os.path.join(SRC, "fracfilt", "__init__.py")):
        print(f"fracfilt sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("FRACFILT_OUT", None)
    sys.path.insert(0, SRC)
    import workloads
    import fracfilt

    if os.path.dirname(os.path.abspath(fracfilt.__file__)) != os.path.join(SRC, "fracfilt"):
        print(f"fracfilt was imported from {fracfilt.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return workloads


def _setup_probe(args) -> float:
    """Set-up time of a fresh process (import and build only)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _metadata(trace_overhead_s):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = 0
    for name in sorted(os.listdir(os.path.join(SRC, "fracfilt"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "fracfilt", name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "src_lines": lines,
        "trace_overhead_s": trace_overhead_s,
    }


def _one_round(wl, workloads, layers, spans):
    checks = workloads.Checks()
    with layers.Tracer(spans=spans) as tracer:
        t0 = time.perf_counter()
        wl.run(checks, tracer)
        wall = time.perf_counter() - t0
    return wall, checks, tracer


def run_workload(args) -> int:
    workloads = _import_workloads()
    import layers

    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    wl = workloads.build(args.workload, args.seed, out_dir)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # rounds repeat identical work until the time is used; the first is a
    # warm-up.  A traced run alternates untraced and traced rounds, so the
    # tracing overhead is measured on the same work.
    walls, traced_walls, layer_rounds = [], [], []
    attempted = failed = 0
    reference = None
    start = time.perf_counter()
    try:
        while True:
            spans = bool(args.trace) and len(walls) > len(traced_walls)
            wall, checks, tracer = _one_round(wl, workloads, layers, spans)
            attempted += checks.attempted
            failed += checks.failed
            if reference is None:
                reference = checks
            else:  # every round must repeat the first one's checks exactly
                attempted += 1
                if (checks.values, checks.failed) != (reference.values, reference.failed):
                    print("round results differ from the first round", file=sys.stderr)
                    failed += 1
            if spans:
                traced_walls.append(wall)
                per_layer = layers.layer_metrics(tracer)
                per_layer.update({m: checks.values.get(m, 0.0) for m in workloads.CHECK_METRICS})
                layer_rounds.append(per_layer)
                last_tracer = tracer
            else:
                walls.append(wall)
            # stop before a round that would end past --seconds, once there
            # are a warm-up and two timed untraced rounds (and a traced one)
            enough = len(walls) >= 3 and (not args.trace or traced_walls)
            if enough and time.perf_counter() - start + wall > args.seconds:
                break
    finally:
        if hasattr(wl, "close"):
            wl.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    overhead = None
    if args.trace:
        last_tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
        overhead = statistics.median(traced_walls) - statistics.median(walls)
    setups = [setup_s] + [_setup_probe(args) for _ in range(SETUP_REPEATS - 1)]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls[1:]),
        "peak_rss_mb": peak_rss_mb,
        "oracle_err_ratio": reference.oracle_err_ratio(),
    }
    failed_frac = failed / attempted
    print(f"# workload {args.workload} seed {args.seed}: {len(walls)} untraced rounds "
          f"{[round(w, 4) for w in walls]}, {len(traced_walls)} traced")
    for k, v in e2e.items():
        print(f"# {k} = {v:.6g} {E2E_UNITS[k]}")
    print(f"# failed_frac = {failed_frac:.6g} ({failed} of {attempted} operations)")
    print("# meta " + json.dumps(_metadata(overhead)))
    if args.trace:
        per_layer = {k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]}
        per_layer["trace.overhead_s"] = overhead
        metrics = {k: {"value": v, "unit": layers.unit(k)} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; their figures, then one JSON line."""
    results, ok = {}, True
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            ok = False
            continue
        for line in lines[:-1]:
            print(f"{name:10s} {line}")
        results[name] = json.loads(lines[-1])
        ok &= results[name]["correct"]
    print(json.dumps({
        "correct": ok,
        "attempted": max(1, sum(r["attempted"] for r in results.values())),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
