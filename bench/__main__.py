"""Benchmark command line: ``python3 -m bench``.

    python3 -m bench --seed 0                      # every workload, untraced
    python3 -m bench --seed 0 --trace              # untraced and traced, with overhead
    python3 -m bench --workload cqa_queries --seed 3 --seconds 12 --trace 0

Each workload runs in its own fresh subprocess (``python -m bench.worker``)
with ``PYTHONHASHSEED`` derived from ``--seed``, one after another. Every
metric is printed as ``workload metric value unit``. With exactly one
workload the last line is that run's result object
(``{"correct", "attempted", "failed", "metrics"}``). The exit code is 0
when every check passed, 1 when one failed and 2 when a run could not
produce a result (for instance when ``src/repro`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Time a run may take beyond its ``seconds`` before it is killed: set-up,
#: the last round of requests, which always completes, and the untimed
#: checks, which include waiting up to ``workloads.JOB_DEADLINE_S`` for a
#: late job.
RUN_MARGIN_S = 150


def run_workload(workload: str, seed: int, seconds: float, trace: bool, *,
                 out: str) -> dict | None:
    """One workload in a fresh subprocess; its result object, or None."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "bench.worker", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
               "--out", out]
    timeout = seconds + RUN_MARGIN_S
    try:
        completed = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                                   text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {timeout:.0f}s (--seconds {seconds:g} "
              f"plus {RUN_MARGIN_S}s for set-up and checks)", file=sys.stderr)
        return None
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{workload}: run exited {completed.returncode} without a result",
              file=sys.stderr)
        return None
    return result


def _overhead(out: str, workload: str, seed: int) -> float | None:
    """Traced ÷ untraced median latency, from the two runs' records."""
    medians = []
    for suffix in ("", "-trace"):
        path = os.path.join(out, f"{workload}-s{seed}{suffix}.json")
        try:
            with open(path, encoding="utf-8") as handle:
                medians.append(json.load(handle)["e2e"]["latency_p50_ms"])
        except (OSError, KeyError, json.JSONDecodeError):
            return None
    plain, traced = medians
    return traced / plain if plain > 0 else None


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="traced run: per-layer metrics instead of end-to-end ones; "
                             "with several workloads both runs and the tracing overhead")
    parser.add_argument("--out", default=str(ROOT / "bench-results"),
                        help="directory for full run records and spans")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    chosen = args.workload or workloads
    single = len(chosen) == 1
    if single:
        modes = [bool(args.trace)]
    else:
        modes = [False, True] if args.trace else [False]

    status = 0
    result = None
    for workload in chosen:
        for trace in modes:
            result = run_workload(workload, args.seed, seconds, trace, out=args.out)
            if result is None:
                return 2
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
            print(f"{workload} attempted {result['attempted']} count")
            print(f"{workload} failed {result['failed']} count")
            if not result["correct"]:
                status = 1
        if len(modes) == 2:
            overhead = _overhead(args.out, workload, args.seed)
            if overhead is not None:
                print(f"{workload} trace_overhead {overhead:.4g} x")
    if single:
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
