"""Benchmark of the betadrop package: four closed-loop workloads.

Run from the root of a checkout (the package is imported from ``./src``):

    python3 perfbench/run.py --workload train_lenet5_bb --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the whole measuring window is untraced and the result
holds the end-to-end metrics.  With ``--trace 1`` the first half of the window
is untraced and the second half runs with every betadrop entry point wrapped
(see ``tracer.py``); the result then holds the per-layer metrics, and the
tracing overhead is the traced minus the untraced mean call time.

Standard output ends with two JSON lines: a detail record (machine, per-call
statistics under the workload's own metric names, checks, behaviour records)
and the result line ``{"correct", "attempted", "failed", "metrics"}``.
All timers run in-process: ``time.perf_counter`` for wall time and
``resource.getrusage`` for CPU time and peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join("perfbench", "_out")  # relative to the checkout root
BLAS_THREADS = 1

WORKLOAD_NAMES = ("train_lenet5_bb", "train_lenet300_dbb", "infer_lenet5_dbb",
                  "pipeline_two_cluster")

# End-to-end metrics, reported by every workload; what the timed call is
# depends on the workload (see README.md).
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "examples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-workload names of the same quantities, printed in the detail record.
NAMED = {
    "train_lenet5_bb": {"step": ("step_ms", "train_examples_per_s")},
    "train_lenet300_dbb": {"step": ("step_ms", "train_examples_per_s")},
    "infer_lenet5_dbb": {"eval_b1": ("eval_b1_ms", None),
                         "eval_b500": ("eval_b500_ms", "eval_examples_per_s")},
    "pipeline_two_cluster": {"pass": ("pipeline_ms", "pipeline_examples_per_s")},
}

# Per-layer metrics kept by run.py rather than the tracer (behaviour records
# and the tracing overhead).
TRACE_EXTRA_UNITS = {
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.ops": "count",
    "analysis.predicted_runtime_speedup": "ratio",
    "analysis.mean_kept": "count",
    "behaviour.final_loss": "nats",
    "behaviour.test_error_pct": "%",
    "behaviour.kept_units": "count",
}

TAIL_PERCENTILES = (50, 75, 90, 95, 99)


def tail(values) -> dict | None:
    """The highest of ``TAIL_PERCENTILES`` with at least 10 samples above it."""
    import numpy as np

    best = None
    for p in TAIL_PERCENTILES:
        value = float(np.percentile(values, p))
        beyond = int(sum(v > value for v in values))
        if beyond >= 10:
            best = {"percentile": p, "value": value, "n_beyond": beyond, "n": len(values)}
    return best


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "timers": "in-process: time.perf_counter (wall), resource.getrusage (cpu, peak rss)",
    }


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _loop(wl, state, meter, seconds: float, tracer=None) -> int:
    """Closed loop: call until ``seconds`` have passed (at least once)."""
    ops = 0
    deadline = perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.start_op()
        try:
            wl.call(state, meter)
        except Exception:  # a failed call is counted, and the loop goes on
            if not any(s.kind == "error" for s in meter.samples):
                traceback.print_exc(file=sys.stderr)
            meter.record("error", 0.0, 0, False)
        ops += 1
        if perf_counter() >= deadline:
            return ops


def _call_stats(samples) -> dict:
    by_kind: dict[str, list] = {}
    for s in samples:
        by_kind.setdefault(s.kind, []).append(s)
    out = {}
    for kind, group in by_kind.items():
        ms = [1e3 * s.seconds for s in group]
        seconds = sum(s.seconds for s in group)
        out[kind] = {
            "n": len(group),
            "p50_ms": statistics.median(ms),
            "mean_ms": statistics.fmean(ms),
            "tail_ms": tail(ms),
            "examples_per_s": sum(s.examples for s in group) / seconds if seconds else None,
        }
    return out


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0,
        setup_reps: int = 3, **sizes) -> tuple[dict, dict]:
    """Run one workload; returns (detail record, result line).

    ``sizes`` go to the workload's constructor (the smoke tests shrink it).
    """
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[name](seed, **sizes)
    setup_times = []
    for _ in range(setup_reps):
        t0 = perf_counter()
        state = wl.setup()
        setup_times.append(perf_counter() - t0)

    meter = workloads.Meter()
    cpu0, t0 = _cpu_s(), perf_counter()
    untraced_seconds = seconds / 2 if trace else seconds
    _loop(wl, state, meter, untraced_seconds)
    untraced = list(meter.samples)
    tracer = None
    traced_ops = 0
    if trace:
        tracer = Tracer()
        tracer.install()
        meter.tracer = tracer
        try:
            traced_ops = _loop(wl, state, meter, seconds - untraced_seconds, tracer)
        finally:
            tracer.uninstall()
            meter.tracer = None
    loop_wall, loop_cpu = perf_counter() - t0, _cpu_s() - cpu0
    # Read before the output checks, which build a second copy of the state.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        end = wl.finish(state)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        end = {"checks": {"finish": False}, "records": {}}

    checks = end["checks"]
    attempted = len(meter.samples) + len(checks)
    failed = sum(not s.ok for s in meter.samples) + sum(not ok for ok in checks.values())
    stats = _call_stats(untraced)
    latency = stats.get(wl.latency_kind, {})
    throughput = stats.get(wl.throughput_kind, {})
    e2e = {
        "setup_s": import_s + statistics.median(setup_times),
        "latency_ms_p50": latency.get("p50_ms"),
        "examples_per_s": throughput.get("examples_per_s"),
        "peak_rss_mb": peak_rss_mb,
    }
    named = {"setup_s": {"value": e2e["setup_s"], "unit": "s"},
             "peak_rss_mb": {"value": e2e["peak_rss_mb"], "unit": "MB"},
             "error_rate": {"value": failed / attempted, "unit": "failed/attempted",
                            "base": attempted}}
    for kind, (ms_name, rate_name) in NAMED[name].items():
        if kind not in stats:
            continue
        named[f"{ms_name}_p50"] = {"value": stats[kind]["p50_ms"], "unit": "ms"}
        if stats[kind]["tail_ms"] is not None:
            named[f"{ms_name}_tail"] = {"unit": "ms", **stats[kind]["tail_ms"]}
        if rate_name:
            named[rate_name] = {"value": stats[kind]["examples_per_s"], "unit": "1/s"}

    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(),
        "import_s": import_s, "setup_reps_s": setup_times,
        "loop_wall_s": loop_wall, "loop_cpu_s": loop_cpu,
        "named": named, "calls": stats, "checks": checks, "records": end["records"],
    }

    if not trace:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    else:
        metrics = _trace_metrics(wl, tracer, traced_ops, untraced, meter.samples[len(untraced):],
                                 end["records"], detail)
        tracer.write(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.npz"))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def _trace_metrics(wl, tracer, ops, untraced, traced, records, detail) -> dict:
    from tracer import PER_LAYER

    values = tracer.per_layer(ops)

    def mean_ms(samples):
        ms = [1e3 * s.seconds for s in samples if s.kind == wl.latency_kind]
        return statistics.fmean(ms) if ms else 0.0

    base, traced_ms = mean_ms(untraced), mean_ms(traced)
    values["trace.overhead_ms"] = traced_ms - base
    values["trace.overhead_pct"] = 100.0 * (traced_ms - base) / base if base else 0.0
    values["trace.ops"] = ops
    values["analysis.predicted_runtime_speedup"] = records.get("predicted_runtime_speedup", 0.0)
    values["analysis.mean_kept"] = float(sum(records.get("mean_kept", [])))
    values["behaviour.final_loss"] = records.get("final_loss", 0.0)
    values["behaviour.test_error_pct"] = records.get("test_error_pct", 0.0)
    values["behaviour.kept_units"] = float(sum(records.get("kept_counts", [])))
    if "training.step_ms" in values and values["training.step_ms"]:
        parts = ("training.forward_ms", "autodiff.backward_ms", "training.adam_ms",
                 "training.step_other_ms")
        detail["step_decomposition_ms"] = {
            **{p: values[p] for p in parts},
            "sum_of_parts": sum(values[p] for p in parts),
            "traced_step_mean": traced_ms,
            "untraced_step_mean": base,
            "overhead": traced_ms - base,
        }
    detail["top_self_ms_per_op"] = {
        k: v / max(ops, 1) for k, v in list(tracer.self_times_ms().items())[:25]
    }
    units = {**{k: u for k, (u, _) in PER_LAYER.items()}, **TRACE_EXTRA_UNITS}
    return {k: {"value": float(values[k]), "unit": units[k]} for k in units}


def _import_seconds(src: str) -> float:
    """Time the same imports as ``main`` in a fresh interpreter."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
            "import betadrop, workloads; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, src, HERE], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "betadrop", "__init__.py")):
        print(f"error: no betadrop package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)

    t0 = perf_counter()
    import betadrop
    import workloads  # noqa: F401  (imports numpy, scipy and every betadrop module)
    import_s = perf_counter() - t0
    if os.path.dirname(os.path.abspath(betadrop.__file__)) != os.path.join(src, "betadrop"):
        print(f"error: imported betadrop from {betadrop.__file__}, not {src}", file=sys.stderr)
        return 2
    # One import is a noisy sample; two more in fresh interpreters give a median.
    import_s = statistics.median([import_s] + [_import_seconds(src) for _ in range(2)])

    detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
