"""Benchmark of the fracbeltrami experiments.

    python3 benchmarks/run.py --workload gauge-ladder-2d --seed 1 --seconds 50 --trace 0

Sets up the workload several times (``setup_s`` is the median), then runs
whole rounds of its operations until the next round would overrun
``--seconds``, checking every output.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The full run record, with the machine, the BLAS thread
count, every operation's figures and (traced) every span, is written to
``benchmarks/out/``.  The package is imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metrics, named after the traced totals they report
LAYER_METRICS = (
    "spectral.decompose_s",
    "spectral.decompose_calls",
    "spectral.frac_energy_matrix_s",
    "spectral.frac_apply_spectral_s",
    "spectral.assemble_laplacian_s",
    "spectral.dense_mb",
    "exterior.dtn_partial_self_s",
    "exterior.dtn_partial_calls",
    "solvers.exterior_cg_iterations",
    "solvers.exterior_cg_calls",
    "extension.fd_extension_solve_s",
    "solvers.extension_cg_iterations",
    "recovery.experiment_self_s",
    "geometry.make_metric_s",
)
LAYER_UNITS = {"_s": "s", "_calls": "count", "_iterations": "count", "_mb": "MB"}


def blas_threads() -> int:
    """BLAS threads for every run: the usable cores, at most two."""
    return min(2, len(os.sched_getaffinity(0)))


def import_package():
    """Put src/ and the benchmark's own directory on the path, and import
    fracbeltrami from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import fracbeltrami
    if not Path(fracbeltrami.__file__).resolve().is_relative_to(src):
        raise ImportError(f"fracbeltrami was imported from {fracbeltrami.__file__}, "
                          f"not from {src}")
    return fracbeltrami


def _unit(name: str) -> str:
    return next(u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix))


def measure(workload, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, run whole rounds for ``seconds`` and check every output.

    In a traced run the rounds alternate untraced and traced, so the gap
    between the two operation medians is the tracing overhead; per-layer
    figures come from the traced set-ups and traced operations.
    """
    from tracing import Tracer

    tracer = Tracer() if trace else None
    setup_times = []
    state = None
    if tracer:
        tracer.install()
    try:
        for _ in range(workload.setups):
            state = None
            t0 = time.perf_counter()
            state = workload.setup()
            setup_times.append(time.perf_counter() - t0)
    finally:
        if tracer:
            tracer.uninstall()
    setup_spans = (0, tracer.mark()) if tracer else None

    ops = []
    traced_spans = []
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = bool(tracer) and rounds % 2 == 1
        round_start = time.perf_counter()
        if traced:
            begin = tracer.mark()
            tracer.install()
        try:
            for op in workload.round(state):
                ops.append(run_op(op, rounds, traced))
        finally:
            if traced:
                tracer.uninstall()
                traced_spans.append((begin, tracer.mark()))
        rounds += 1
        now = time.perf_counter()
        if tracer and rounds < 2:
            continue
        if now - start + (now - round_start) > seconds:
            break

    failed = sum(1 for op in ops if not op["ok"])
    result = {
        "correct": all(op["ok"] or "error" in op for op in ops),
        "attempted": len(ops),
        "failed": failed,
    }
    times = [op["seconds"] for op in ops if "seconds" in op]
    if not tracer:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    else:
        result["metrics"] = layer_metrics(tracer, setup_spans, traced_spans,
                                          len(setup_times), ops)
    record = {"setup_times": setup_times, "rounds": rounds, "operations": ops}
    if tracer:
        record["spans"] = tracer.dump()
    return result, record


def run_op(op, round_index: int, traced: bool) -> dict:
    """Run one operation and its check; a raise or a failed check fails it."""
    entry = {"kind": op.kind, "round": round_index, "traced": traced}
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        out = op.run()
    except Exception:  # the run goes on; the failure is counted
        entry.update(ok=False, error=traceback.format_exc())
        return entry
    entry["seconds"] = time.perf_counter() - t0
    entry["cpu_seconds"] = time.process_time() - c0
    try:
        entry.update(op.check(out))
    except Exception:
        entry.update(ok=False, error=traceback.format_exc())
    return entry


def layer_metrics(tracer, setup_spans, traced_spans, n_setups, ops) -> dict:
    """Each layer's figure for one set-up plus one operation: set-up totals
    over the set-ups, operation totals over the traced operations."""
    setup = tracer.totals(*setup_spans)
    op_tot = Counter()
    for span_range in traced_spans:
        op_tot.update(tracer.totals(*span_range))
    traced = [op for op in ops if op["traced"]]
    untraced = [op["seconds"] for op in ops if not op["traced"] and "seconds" in op]
    traced_times = [op["seconds"] for op in traced if "seconds" in op]
    metrics = {}
    for name in LAYER_METRICS:
        value = setup.get(name, 0.0) / n_setups + op_tot.get(name, 0.0) / len(traced)
        metrics[name] = {"value": value, "unit": _unit(name)}
    p50_traced = statistics.median(traced_times)
    p50_untraced = statistics.median(untraced)
    metrics["trace.op_s_p50"] = {"value": p50_traced, "unit": "s"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (p50_traced / p50_untraced - 1.0), "unit": "%"}
    return metrics


def machine_record(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": threads,
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the thread count must be fixed before numpy (and its BLAS) loads
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was loaded before the BLAS thread count was set")
    threads = blas_threads()
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    result, record = measure(workload, args.seconds, bool(args.trace))

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(threads), "result": result, **record}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"{args.workload}: attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {result['correct']}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
