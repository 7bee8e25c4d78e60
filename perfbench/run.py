"""Benchmark entry point: one workload, one seed, timed end to end or traced.

    python3 perfbench/run.py --workload infer_routed --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Prints a report line (environment, the
named metrics of the workload, failures by check) and, last, one JSON
result line: `correct`, `attempted`, `failed` and `metrics`. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are its per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

# (name, unit, better); bounds live in BENCHMARK.json. Throughput and
# latency are in probe units (see workloads.probe_burst), which cancel the
# machine's speed drift; the report line carries the same figures in
# seconds.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("units_per_kprobe", "1/kprobe", "higher"),
    ("latency_p50_probes", "probes", "lower"),
    ("latency_tail_probes", "probes", "lower"),
)

# The report's name for the throughput, in units per second, on each workload.
THROUGHPUT_NAMES = {
    "infer_routed": "sketches_per_s",
    "rerank_top50": "queries_per_s",
    "train": "samples_per_s",
}

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed):
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def run(name, seed, seconds, trace):
    """Set up, warm up, measure and check one workload.

    Returns (result, report): the contract result object and the report
    with environment, named metrics and failures.
    """
    import layers
    import workloads

    cls = workloads.WORKLOADS[name]
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        work = cls(seed)
        setup.append(perf_counter() - t0)
    t0 = perf_counter()
    work.warm_up()
    warm_s = perf_counter() - t0

    if trace:
        # untraced then traced halves: their difference is the tracing overhead
        half = workloads.unit_count(cls, seconds / 2)
        plain = workloads.measure(work, half)
        with layers.traced() as tracer:
            units = workloads.measure(work, half, first=half)
        everything = plain + units
    else:
        units = workloads.measure(work, workloads.unit_count(cls, seconds))
        everything = units
    workloads.check_all(work, everything)

    attempted = len(everything)
    failed = sum(bool(u.failed) for u in everything)
    correct = all(u.known for u in everything if u.failed)
    busy_s = sum(u.seconds for u in units)
    costs = workloads.probe_costs(units)
    p50, tail, tail_label = workloads.median_and_tail(costs)
    e2e = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units_per_kprobe": 1e3 * len(costs) / sum(costs),
        "latency_p50_probes": p50,
        "latency_tail_probes": tail,
    }
    ms_p50, ms_tail, _ = workloads.median_and_tail([1e3 * u.seconds for u in units])
    if trace:
        values = layers.layer_metrics(tracer, len(units), busy_s)
        values["failed_frac"] = failed / attempted
        plain_p50 = workloads.median_and_tail(workloads.probe_costs(plain))[0]
        values["trace.overhead_frac"] = p50 / plain_p50 - 1.0
        values.update(layers.conv_table(seed))
        table = layers.PER_LAYER + layers.CONV_TABLE
    else:
        values = e2e
        table = END_TO_END
    metrics = {m: {"value": float(values[m]), "unit": unit} for m, unit, *_ in table}

    named = {m: (e2e[m], unit, better) for m, unit, better in END_TO_END}
    named.update({
        THROUGHPUT_NAMES[name]: (len(units) * cls.samples / busy_s, "1/s", "higher"),
        "latency_p50_ms": (ms_p50, "ms", "lower"),
        "latency_tail_ms": (ms_tail, "ms", "lower"),
        "probe_ms": (1e3 * statistics.median(u.probe_s for u in units), "ms", "none"),
        "failed_frac": (failed / attempted, "frac", "lower"),
    })
    named.update(work.named(everything))
    failures = {}
    for u in everything:
        for check in u.failed:
            failures[check] = failures.get(check, 0) + 1
    errors = [u.error for u in everything if u.error is not None]
    report = {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "unit": cls.unit,
        "units_measured": len(units),
        "tail_percentile": tail_label,
        "warm_up_s": warm_s,
        "setup_runs_s": setup,
        "environment": environment(seed),
        "named": {m: {"value": v, "unit": u, "better": b} for m, (v, u, b) in named.items()},
        "failed_checks": failures,
        "known_defect_units": sum(u.known for u in everything),
        "first_error": errors[0] if errors else None,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(THROUGHPUT_NAMES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    # one BLAS thread, pinned before numpy loads: on two cores, two-thread
    # timings swing widely between early and steady calls
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "sketchparts" / "__init__.py").is_file():
        print(f"perfbench: no src/sketchparts under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
