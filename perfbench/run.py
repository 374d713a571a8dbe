#!/usr/bin/env python3
"""Benchmark of the handspd package: one workload per invocation.

    python3 perfbench/run.py --workload {train,extract,svm} --seed N \
        --seconds S --trace {0,1} [--size {default,toy}]

Run from anywhere; the package is imported from ``src/`` beside this
directory and the straight-line oracle from ``tests/oracles.py``.  Without
them the benchmark exits with status 2 and prints no result.

The seed makes every input.  After SETUPS set-ups, whole rounds of the
workload repeat for about S seconds; then the run-level checks follow.  The
last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates plain
rounds with rounds in which every layer call is wrapped in a span recorder,
reports the per-layer metrics of the traced rounds and the overhead against
the plain ones, and writes the spans to ``perfbench/out/``.  The line before
the result describes the machine and the sample counts.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 11                     # set-ups per run; setup_s is their median


class MissingProgram(Exception):
    pass


def load_program():
    """Import handspd from ROOT/src; return the oracle module of ROOT/tests."""
    package = ROOT / "src" / "handspd" / "__init__.py"
    oracle_file = ROOT / "tests" / "oracles.py"
    missing = [str(p.relative_to(ROOT)) for p in (package, oracle_file) if not p.is_file()]
    if missing:
        raise MissingProgram(f"missing {', '.join(missing)} under {ROOT}")
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import handspd

    if Path(handspd.__file__).resolve() != package.resolve():
        raise MissingProgram(f"handspd was imported from {handspd.__file__}, not {package}")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", oracle_file)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def blas_threads() -> str:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(rec, setup_times: list[float]) -> dict:
    import numpy as np

    s = rec.samples
    p50, p90 = np.percentile(s["seq_ms"], [50, 90])
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "seq_per_s": _metric(statistics.median(s["seq_per_s"]), "1/s"),
        "seq_ms.p50": _metric(p50, "ms"),
        "seq_ms.p90": _metric(p90, "ms"),
        "round_s": _metric(statistics.median(s["round_s"]), "s"),
    }


def per_layer(span_units: dict, tracer, units: Counter, counts: Counter, round_times) -> dict:
    def per(n, unit):
        return n / units[unit] if units[unit] else 0.0

    totals = tracer.totals()
    out = {}
    for span, unit in span_units.items():
        seconds, calls = totals.get(span, (0.0, 0))
        out[f"{span}.self_ms"] = _metric(per(seconds * 1e3, unit), f"ms/{unit}")
        out[f"{span}.calls"] = _metric(per(calls, unit), f"1/{unit}")
    train_s = totals.get("classify.svm_train", (0.0, 0))[0]
    passes = counts["svm.passes"]
    out.update({
        "eig.frame.matrices": _metric(per(counts["eig.frame.matrices"], "seq"), "1/seq"),
        "reeig.clamped_frac": _metric(
            counts["reeig.clamped"] / counts["reeig.eigenvalues"] if counts["reeig.eigenvalues"] else 0.0,
            "fraction"),
        "svm.passes": _metric(per(passes, "fit"), "1/fit"),
        "svm.ms_per_pass": _metric(train_s * 1e3 / passes if passes else 0.0, "ms/pass"),
        "svm.converged_classes": _metric(per(counts["svm.converged_classes"], "fit"), "1/fit"),
        "trace.overhead_frac": _metric(
            statistics.median(round_times[True]) / statistics.median(round_times[False]) - 1.0,
            "fraction"),
    })
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "extract", "svm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "toy"), default="default",
                        help="network and data size; toy is gradcheck.toy_config()")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS threads: at most one per CPU this process may run on.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    try:
        oracles = load_program()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads
    from handspd.errors import HandSpdError

    workload = workloads.WORKLOADS[args.workload](args.size, oracles)
    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)

    rec = workloads.Recorder()
    tracer = spans.Tracer()
    units: Counter = Counter()
    counts: Counter = Counter()
    round_times = {False: [], True: []}
    min_rounds = 2 if args.trace else 1
    start = time.perf_counter()
    last = 0.0
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start + last <= args.seconds:
        traced = bool(args.trace) and rounds % 2 == 1
        if traced:
            workloads.trace_program(tracer, workload.cfg, counts)
        t0 = time.perf_counter()
        try:
            done = workload.run_round(state, rec)
        except HandSpdError as exc:
            rec.op(False, f"round {rounds} raised {exc!r}")
            done = Counter()
        finally:
            tracer.unwrap_all()
        last = time.perf_counter() - t0
        round_times[traced].append(last)
        if traced:
            units += done
        rounds += 1
    workload.finish(state, rec)

    machine = machine_info()
    if args.trace:
        coverage = tracer.coverage(("network.forward", "network.backward"))
        if units["seq"]:
            rec.op(abs(coverage - 1.0) <= workloads.COVERAGE_TOL,
                   f"span coverage of forward/backward wall time {coverage!r}")
        metrics = per_layer(workloads.SPANS, tracer, units, counts, round_times)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace_{args.workload}_{args.size}_{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed, "size": args.size,
                      "machine": machine})
    else:
        metrics = end_to_end(rec, setup_times)

    print(json.dumps({
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "samples": {name: len(v) for name, v in sorted(rec.samples.items())},
        "machine": machine,
    }))
    for error in rec.errors:
        print(f"perfbench: failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
