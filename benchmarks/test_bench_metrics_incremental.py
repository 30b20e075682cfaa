"""Incremental quality-metrics benchmark: the evaluate phase must be cheap.

PR 4 made the feedback loop's *re-wrangling* cheap; this bench guards the
other half of each round — re-evaluating the four quality criteria. The
monolithic path rescans the whole result (plus the reference join, the CFD
witness checks and the master coverage) per round; the sufficient-statistic
engine (:mod:`repro.quality.stats`) patches only the touched rows'
contributions while the result itself is being patched, and ``evaluate``
then just finalises counters.

Each round asserts the checked contract before timing means anything: the
stats-derived report must be **exactly** equal to a forced full
recomputation over the same table — criteria, per-attribute completeness
and row count.

The incremental side of the ratio is honest about maintenance: it counts
the engine's metric-patch phase (``metrics_seconds``) *plus* the
stats-backed ``evaluate()``; the full side is ``evaluate(use_stats=False)``
— the per-round rescan the monolithic metrics paid.

Set ``BENCH_SMOKE=1`` to shrink the scenario; the speedup assert then uses
a relaxed floor (fixed per-round costs dominate tiny runs), while the
equality assert stays exact.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import print_table
from repro.feedback.annotations import simulate_feedback
from repro.fusion.duplicates import DuplicateDetectorConfig
from repro.incremental.validate import _prepare
from repro.quality.cfd_learning import CFDLearnerConfig
from repro.scenarios.synth import SynthConfig, generate_synthetic
from repro.service.api import FeedbackRequest
from repro.wrangler.config import WranglerConfig

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Ground-truth entities (result volume is ~1.5x with two sources).
ENTITIES = 600 if SMOKE else 10_000
#: Feedback rounds per case.
ROUNDS = 2 if SMOKE else 3
#: Annotations per round — ≤1% of the result rows.
BUDGET = max(1, (ENTITIES * 3 // 2) // 100)
#: Required full-rescan / incremental wall-clock ratio on the evaluate
#: phase. The ISSUE 5 acceptance bar is ≥3x at full size; tiny smoke
#: scenarios are dominated by fixed per-round costs, so that floor relaxes.
MIN_SPEEDUP = 1.2 if SMOKE else 3.0

#: Entity-key blocking keeps duplicate detection feasible at 10^4, and the
#: product_catalog learner is pinned to exact FDs so the scenario stays a
#: single-fusion-pass shape (same configs, and same rationale, as
#: benchmarks/test_bench_incremental.py).
CASES = {
    "product_catalog": WranglerConfig(
        duplicate_detector=DuplicateDetectorConfig(
            blocking_attributes=("sku",),
            comparison_attributes=("name", "price", "brand", "category"),
        ),
        cfd_learner=CFDLearnerConfig(min_confidence=1.0),
    ),
    "shipment_tracking": WranglerConfig(
        duplicate_detector=DuplicateDetectorConfig(
            blocking_attributes=("tracking_id",),
            comparison_attributes=("dest_city", "weight_kg", "carrier", "status"),
        ),
    ),
}


def _reports_equal(left, right) -> bool:
    return (
        left is not None
        and right is not None
        and left.as_dict() == right.as_dict()
        and left.attribute_completeness == right.attribute_completeness
        and left.row_count == right.row_count
    )


def _run_case(family: str) -> list[dict]:
    scenario = generate_synthetic(SynthConfig(family=family, entities=ENTITIES, seed=0))
    session = _prepare(scenario, CASES[family])
    rounds = []
    for round_number in range(1, ROUNDS + 1):
        annotations = simulate_feedback(
            session.result(),
            scenario.ground_truth,
            scenario.evaluation_key,
            budget=BUDGET,
            seed=round_number,
            strategy="targeted",
            id_prefix=f"b{round_number}",
        )
        outcome = session.session().feedback(
            FeedbackRequest(annotations=tuple(annotations), incremental=True, evaluate=False)
        ).incremental

        started = time.perf_counter()
        fast = session.evaluate()
        incremental_seconds = (
            time.perf_counter() - started + float(outcome.get("metrics_seconds", 0.0))
        )
        started = time.perf_counter()
        full = session.evaluate(use_stats=False)
        full_seconds = time.perf_counter() - started

        rounds.append(
            {
                "round": round_number,
                "annotations": len(annotations),
                "rows": len(session.result()),
                "applied": bool(outcome.get("applied")),
                "metrics_patched": list(outcome.get("metrics_patched", [])),
                "equal": _reports_equal(fast, full),
                "incremental_seconds": incremental_seconds,
                "full_seconds": full_seconds,
            }
        )
    return rounds


def _assert_case(family: str, rounds: list[dict]) -> None:
    # The speedup claim is only meaningful if the maintained statistics
    # finalise to exactly the full recomputation, round after round.
    for check in rounds:
        assert check["equal"], f"stats report != full recompute: {check}"
        assert check["applied"], f"expected a patched round, got {check}"
        assert check["metrics_patched"], f"expected patched metric facts: {check}"
    incremental = sum(check["incremental_seconds"] for check in rounds)
    full = sum(check["full_seconds"] for check in rounds)
    speedup = full / max(incremental, 1e-9)
    print_table(
        f"{family}: {BUDGET} annotations/round (≤1% of rows), evaluate-phase "
        f"speedup {speedup:.1f}x (floor {MIN_SPEEDUP}x)",
        ["round", "annotations", "rows", "incremental s", "full s", "ratio"],
        [
            [
                check["round"],
                check["annotations"],
                check["rows"],
                f"{check['incremental_seconds']:.4f}",
                f"{check['full_seconds']:.4f}",
                f"{check['full_seconds'] / max(check['incremental_seconds'], 1e-9):.1f}x",
            ]
            for check in rounds
        ],
    )
    assert speedup >= MIN_SPEEDUP, (
        f"evaluate-phase speedup {speedup:.2f}x is below the {MIN_SPEEDUP}x floor"
    )


def test_bench_metrics_incremental_product_catalog(benchmark):
    """Fusion-heavy evaluate loop: clustered duplicates, equality-checked."""
    rounds = benchmark.pedantic(
        lambda: _run_case("product_catalog"), rounds=1, iterations=1
    )
    _assert_case("product_catalog", rounds)


def test_bench_metrics_incremental_shipment_tracking(benchmark):
    """Join-heavy evaluate loop: lookup-sourced attributes, equality-checked."""
    rounds = benchmark.pedantic(
        lambda: _run_case("shipment_tracking"), rounds=1, iterations=1
    )
    _assert_case("shipment_tracking", rounds)
