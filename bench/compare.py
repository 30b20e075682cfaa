"""Compare two sets of benchmark runs: ``python -m bench.compare A/ B/``.

``A`` and ``B`` are ``--out`` directories of ``python3 -m bench`` runs
(untraced records, one file per workload and seed). For every workload and
end-to-end metric the tool reports each side's median and quartiles and two
verdicts:

- **repeat** — ``agree`` when the medians differ by at most the metric's
  bound (a share of A's median, from ``BENCHMARK.json``), ``differ`` when
  they do not, and ``unresolved`` when either side's quartile spread is
  wider than the bound, so the runs cannot tell.
- **paired** — the gain rule: runs are paired by seed; B claims a gain only
  with at least 10 pairs, run alternately (A first in about half of them),
  B better in at least nine tenths of all pairs (ties count for neither),
  and a median gap larger than A's quartile spread.

A ``(reference ms)`` line per workload gives both sides' median time of the
reference work the runs scale their times by: the same work on both sides,
so a change there is the machine's speed, not the code's.

The exit code is 0 when every metric agrees and 1 otherwise, so two sets
of runs of the same code can be checked for repeatability in a script.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_FRACTION = 0.9


def load_runs(directory: str) -> dict[str, dict[int, dict]]:
    """Untraced run records by workload, then seed."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("trace") or "e2e" not in record:
            continue
        runs.setdefault(record["workload"], {})[int(record["seed"])] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def machine_speed(runs: dict[int, dict]) -> float | None:
    """Median over runs of the reference work's time (None if unrecorded)."""
    laps = [statistics.median(r["reference_ms"]) for r in runs.values() if r.get("reference_ms")]
    return statistics.median(laps) if laps else None


def repeat_verdict(a: list[float], b: list[float], bound: float) -> tuple[str, float]:
    """Repeatability verdict and the relative change of B's median."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    change = (b_med - a_med) / a_med if a_med else 0.0
    spread = max((a_q3 - a_q1) / a_med if a_med else 0.0,
                 (b_q3 - b_q1) / b_med if b_med else 0.0)
    if spread > bound:
        return "unresolved", change
    return ("agree" if abs(change) <= bound else "differ"), change


def paired_verdict(a_runs: dict[int, dict], b_runs: dict[int, dict], metric: str,
                   better: str) -> str:
    """The paired gain rule over runs with matching seeds."""
    seeds = sorted(set(a_runs) & set(b_runs))
    if len(seeds) < MIN_PAIRS:
        return f"{len(seeds)} pairs (< {MIN_PAIRS})"
    a_first = sum(a_runs[s]["started_at"] < b_runs[s]["started_at"] for s in seeds)
    if abs(2 * a_first - len(seeds)) > 1 + len(seeds) // 5:
        return f"not alternating (A first in {a_first} of {len(seeds)})"
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (b_runs[s]["e2e"][metric] - a_runs[s]["e2e"][metric]) > 0
               for s in seeds)
    a_values = [a_runs[s]["e2e"][metric] for s in seeds]
    b_values = [b_runs[s]["e2e"][metric] for s in seeds]
    a_q1, a_med, a_q3 = quartiles(a_values)
    gap = sign * (statistics.median(b_values) - a_med)
    if wins >= WIN_FRACTION * len(seeds) and gap > a_q3 - a_q1:
        return f"gain (B wins {wins}/{len(seeds)})"
    return f"no claim (B wins {wins}/{len(seeds)})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench.compare", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="runs of the parent (or first set)")
    parser.add_argument("b", help="runs of the change (or second set)")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    workloads = [w["name"] for w in spec["workloads"]
                 if w["name"] in a_runs and w["name"] in b_runs]
    if not workloads:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 2

    header = (f"{'workload':16s} {'metric':17s} {'A median [q1, q3]':>30s} "
              f"{'B median [q1, q3]':>30s} {'change':>8s} {'bound':>6s}  repeat      paired")
    print(header)
    disagreements = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["e2e"][name] for r in a_runs[workload].values()]
            b = [r["e2e"][name] for r in b_runs[workload].values()]
            verdict, change = repeat_verdict(a, b, metric["bound"])
            disagreements += verdict != "agree"
            paired = paired_verdict(a_runs[workload], b_runs[workload], name, metric["better"])
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(f"{workload:16s} {name:17s} {cells[0]:>30s} {cells[1]:>30s} "
                  f"{change:+8.1%} {metric['bound']:6.0%}  {verdict:11s} {paired}")
        speeds = [machine_speed(runs[workload]) for runs in (a_runs, b_runs)]
        if None not in speeds:
            print(f"{workload:16s} {'(reference ms)':17s} {speeds[0]:>30.4g} {speeds[1]:>30.4g} "
                  f"{(speeds[1] - speeds[0]) / speeds[0]:+8.1%}  same work on both sides: "
                  "a change here is the machine's")
    print(f"{disagreements} of {len(workloads) * len(spec['end_to_end'])} "
          "metric medians differ or are unresolved")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
