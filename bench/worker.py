"""Run one workload in this process and print its result object.

``python -m bench.worker --workload W --seed S --seconds N --trace 0|1``
is what :mod:`bench` starts in a fresh subprocess per workload. The last
line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; with ``--out DIR`` the
full record (every metric, checks, samples) goes to
``DIR/<workload>-s<seed>[-trace].json`` and a traced run's spans to
``DIR/<workload>-s<seed>-spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from bench import trace as tracing
from bench import workloads

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "quality_overall": "ratio",
}


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        scale: str = "full", out: str | None = None) -> tuple[dict, workloads.RunRecord]:
    """Run one workload; returns the full record and the live run record."""
    size = workloads.SCALES[scale][workload]
    started_at = time.time()
    tracer = tracing.Tracer() if trace else workloads.NoTracer()
    if trace:
        tracer.install()
        tracer.start()
    try:
        record = workloads.RUNNERS[workload](seed, seconds, size, tracer)
    finally:
        if trace:
            traced_window = tracer.stop()
            tracer.uninstall()

    e2e = workloads.e2e_metrics(record)
    problems = list(record.problems)
    layers = None
    if trace:
        layers = tracing.layer_metrics(tracer, traced_window, record.attempted,
                                       record.service)
        missing = tracing.missing_layers(tracer, workload, service_jobs=record.attempted
                                         if workload == "service_mix" else 0)
        problems += [f"layer metric {name} recorded no span on its home workload"
                     for name in missing]
        metrics = {metric.name: {"value": layers[metric.name], "unit": metric.unit}
                   for metric in tracing.LAYER_METRICS}
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in e2e.items()}
    result = {
        "correct": not problems,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics,
    }
    full = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "started_at": started_at,
        "result": result,
        "e2e": e2e,
        "layers": layers,
        "self_times_s": tracer.self_times() if trace else None,
        "counters": dict(tracer.counts) if trace else None,
        "problems": problems,
        "passes": record.passes,
        "samples": len(record.latencies),
        "latencies_ms": [round(1000.0 * value, 3) for value in record.latencies],
        "setup_seconds": record.setup_seconds,
        "window_s": record.window,
        # Each pass's median reference slice: the host's speed, and what
        # the pass's times were scaled by.
        "reference_ms": [1000.0 * value for value in record.reference],
        "extra": record.extra,
    }
    if out is not None:
        os.makedirs(out, exist_ok=True)
        stem = os.path.join(out, f"{workload}-s{seed}")
        with open(f"{stem}{'-trace' if trace else ''}.json", "w", encoding="utf-8") as handle:
            json.dump(full, handle, indent=1, sort_keys=True)
        if trace:
            tracer.write_spans(f"{stem}-spans.jsonl")
    return full, record


def pin_to_one_cpu() -> None:
    """Keep this process, and every thread it starts, on one CPU.

    The CPUs of a shared virtual machine run at different speeds, and each
    one's speed changes from minute to minute. Times are scaled by
    reference work timed on the main thread (``workloads.REFERENCE_S``), so
    the program must run where that work runs: unpinned, ``service_mix``'s
    job threads could run on another CPU than the main thread. The GIL
    runs one thread at a time anyway.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.worker", description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    full, _record = run(args.workload, args.seed, args.seconds, bool(args.trace), out=args.out)
    for problem in full["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(full["result"]), flush=True)
    return 0 if full["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
