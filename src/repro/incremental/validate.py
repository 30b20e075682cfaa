"""Validation: incremental re-wrangling must equal the full pipeline.

The incremental engine is an optimisation, not a semantics change. This
module checks exactly that, the way the CQA literature frames incremental
repair correctness: run the same scenario twice — one session applying each
feedback round through the incremental engine (the path
:meth:`WranglingSession.feedback <repro.service.session.WranglingSession.feedback>`
takes), one through the full orchestrated re-run — and assert after every
round that the materialised result tables are row-for-row equal (same rows,
same order, same values), the same mapping is selected, and the revised
match scores agree.

Two more contracts ride along: a session checkpointed and restored before
every round must equal one that never stopped (:func:`check_restored`), and
appended source rows patched incrementally must equal a full re-run, with
every candidate's cached ``mapping_score`` facts equal to a from-scratch
re-score (:func:`check_appends`).

Used three ways:

- as a library (:func:`check_incremental`) by the property-based tests;
- by ``benchmarks/test_bench_incremental.py``, whose speedup claim is only
  meaningful if the cheap path computes the same thing;
- as a CLI::

      PYTHONPATH=src python -m repro.incremental.validate --check \
          --family product_catalog --entities 2000 --rounds 3 --budget 20 \
          [--contract incremental|restore|append]
"""

from __future__ import annotations

import argparse
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.facts import Predicates
from repro.feedback.annotations import simulate_feedback
from repro.mapping.transducers import score_candidates
from repro.scenarios.base import Scenario
from repro.scenarios.synth import SynthConfig, generate_synthetic
from repro.wrangler.config import WranglerConfig

__all__ = [
    "RoundCheck",
    "ValidationReport",
    "check_incremental",
    "check_restored",
    "check_appends",
    "main",
]


@dataclass
class RoundCheck:
    """The comparison outcome of one feedback round."""

    round: int
    #: Annotations asserted (rows appended, for the append contract).
    annotations: int
    rows_incremental: int
    rows_full: int
    tables_equal: bool
    selection_equal: bool
    matches_equal: bool
    #: Whether the patched metric statistics finalise to exactly the report
    #: a full recomputation over the current tables produces (both sessions).
    metrics_equal: bool = True
    #: Whether both sessions' ``mapping_score`` facts equal a from-scratch
    #: re-score (checked by the append contract).
    scores_equal: bool = True
    #: Whether the incremental engine patched (False → it fell back).
    patched: bool = False
    fallback_reason: str = ""
    seconds_incremental: float = 0.0
    seconds_full: float = 0.0
    mismatch: str = ""

    @property
    def ok(self) -> bool:
        """Equality held for this round (patched or not)."""
        return (
            self.tables_equal
            and self.selection_equal
            and self.matches_equal
            and self.metrics_equal
            and self.scores_equal
        )


@dataclass
class ValidationReport:
    """Outcome of one incremental-vs-full validation run."""

    scenario: str
    rounds: list[RoundCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every round's incremental output equalled the full re-run's."""
        return all(check.ok for check in self.rounds)

    @property
    def patched_rounds(self) -> int:
        """How many rounds the engine actually patched (vs fell back)."""
        return sum(1 for check in self.rounds if check.patched)

    def speedup(self) -> float:
        """Wall-clock full/incremental ratio across all rounds."""
        incremental = sum(check.seconds_incremental for check in self.rounds)
        full = sum(check.seconds_full for check in self.rounds)
        return full / max(incremental, 1e-9)

    def describe(self) -> dict[str, Any]:
        """A compact, JSON-friendly summary."""
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "rounds": len(self.rounds),
            "patched_rounds": self.patched_rounds,
            "speedup": round(self.speedup(), 2),
            "failures": [
                {"round": check.round, "mismatch": check.mismatch}
                for check in self.rounds
                if not check.ok
            ],
        }


def _prepare(scenario: Scenario, config: WranglerConfig):
    """One session wrangled through bootstrap + data context."""
    # Imported lazily: the wrangler pipeline imports this package's engine,
    # and a module-level import back into the pipeline would be circular.
    from repro.wrangler.pipeline import Wrangler

    wrangler = Wrangler(config=config)
    scenario.install(wrangler)
    wrangler.run("bootstrap", evaluate=False)
    if scenario.reference is not None:
        wrangler.add_reference_data(scenario.reference)
    if scenario.master is not None:
        wrangler.add_master_data(scenario.master)
    if scenario.reference is not None or scenario.master is not None:
        wrangler.run("data_context", evaluate=False)
    return wrangler


def _compare_reports(left, right, where: str) -> str:
    """Empty string when two quality reports are exactly equal."""
    if left is None or right is None:
        if left is right:
            return ""
        return f"{where}: one report is missing"
    if left.as_dict() != right.as_dict():
        return f"{where}: criteria differ: {left.as_dict()} vs {right.as_dict()}"
    if left.attribute_completeness != right.attribute_completeness:
        return f"{where}: per-attribute completeness differs"
    if left.row_count != right.row_count:
        return f"{where}: row counts differ: {left.row_count} vs {right.row_count}"
    return ""


def _compare_metrics(incremental_session, full_session) -> str:
    """The incremental-metrics equality contract, checked three ways.

    The incremental session's maintained statistics must finalise to the
    same report as a forced full recomputation over its own result — and
    both must equal the full session's recomputation, so the maintained
    numbers cannot silently drift from what a from-scratch pipeline knows.
    """
    fast = incremental_session.evaluate()
    slow = incremental_session.evaluate(use_stats=False)
    full = full_session.evaluate(use_stats=False)
    mismatch = _compare_reports(fast, slow, "incremental stats vs rescan")
    if mismatch:
        return mismatch
    return _compare_reports(slow, full, "incremental vs full session")


def _compare_scores(wrangler) -> str:
    """Empty string when the session's ``mapping_score`` facts equal a
    from-scratch re-score of every candidate (no per-leaf statistics)."""
    facts = sorted(wrangler.kb.facts(Predicates.MAPPING_SCORE))
    rescored = sorted(args for _predicate, args in score_candidates(wrangler.kb))
    if facts == rescored:
        return ""
    differing = sorted(set(facts) ^ set(rescored))
    return f"mapping_score facts differ from a from-scratch re-score: {differing[:4]}"


def _compare_tables(left, right) -> str:
    """Empty string when equal, else a description of the first difference."""
    if left is None or right is None:
        if left is right:
            return ""
        return "one session has no result table"
    if list(left.schema.attribute_names) != list(right.schema.attribute_names):
        return (
            f"schemas differ: {list(left.schema.attribute_names)} "
            f"vs {list(right.schema.attribute_names)}"
        )
    left_rows = left.tuples()
    right_rows = right.tuples()
    if len(left_rows) != len(right_rows):
        return f"row counts differ: {len(left_rows)} vs {len(right_rows)}"
    for position, (a, b) in enumerate(zip(left_rows, right_rows)):
        if a != b:
            return f"row {position} differs: {a!r} vs {b!r}"
    return ""


def _round_check(
    round_number: int,
    changes: int,
    left,
    right,
    outcome: dict[str, Any],
    seconds: tuple[float, float],
    *,
    fingerprints: tuple[str, str] | None = None,
    scores: bool = False,
) -> RoundCheck:
    """Compare two wranglers after one round.

    ``left`` took the path under test and ``outcome`` is the incremental
    engine's report on it; ``right`` took the reference path. ``seconds``
    times the two paths in the same order.
    """
    left_table, right_table = left.result(), right.result()
    mismatch = _compare_tables(left_table, right_table)
    if not mismatch and fingerprints is not None and fingerprints[0] != fingerprints[1]:
        mismatch = f"fingerprints differ: {fingerprints[0]} vs {fingerprints[1]}"
    metrics_mismatch = _compare_metrics(left, right)
    scores_mismatch = (_compare_scores(left) or _compare_scores(right)) if scores else ""
    left_selected = left.selected_mapping()
    right_selected = right.selected_mapping()
    left_id = left_selected.mapping_id if left_selected else None
    right_id = right_selected.mapping_id if right_selected else None
    left_matches = sorted(left.kb.facts(Predicates.MATCH))
    right_matches = sorted(right.kb.facts(Predicates.MATCH))
    applied = bool(outcome.get("applied"))
    return RoundCheck(
        round=round_number,
        annotations=changes,
        rows_incremental=len(left_table) if left_table is not None else 0,
        rows_full=len(right_table) if right_table is not None else 0,
        tables_equal=not mismatch,
        selection_equal=left_id == right_id,
        matches_equal=left_matches == right_matches,
        metrics_equal=not metrics_mismatch,
        scores_equal=not scores_mismatch,
        patched=applied,
        fallback_reason="" if applied else str(outcome.get("reason", "")),
        seconds_incremental=seconds[0],
        seconds_full=seconds[1],
        mismatch=mismatch or metrics_mismatch or scores_mismatch,
    )


def check_incremental(
    scenario: Scenario | SynthConfig | None = None,
    *,
    rounds: int = 3,
    budget: int = 10,
    seed: int = 0,
    wrangler_config: WranglerConfig | None = None,
    ground_truth_key: Sequence[str] | None = None,
) -> ValidationReport:
    """Run ``rounds`` identical feedback rounds through both paths and compare.

    Each round simulates a user annotating ``budget`` cells of the *full*
    session's current result against ground truth, then asserts the same
    annotations into both sessions. Equality must hold whether the
    incremental engine patched or fell back — the fallback is part of the
    contract.
    """
    if scenario is None:
        scenario = SynthConfig()
    if isinstance(scenario, SynthConfig):
        scenario = generate_synthetic(scenario)
    config = wrangler_config or WranglerConfig()
    key = tuple(ground_truth_key or scenario.evaluation_key)

    incremental_session = _prepare(scenario, config)
    full_session = _prepare(scenario, config)
    report = ValidationReport(scenario=scenario.name)

    for round_number in range(1, rounds + 1):
        reference_table = full_session.result()
        if reference_table is None:
            break
        annotations = simulate_feedback(
            reference_table,
            scenario.ground_truth,
            key,
            budget=budget,
            seed=seed * 7919 + round_number,
            strategy="targeted",
            id_prefix=f"v{round_number}",
        )
        # Both sides skip the quality-report diagnostic: the comparison (and
        # the timing) is about the re-wrangling itself.
        started = time.perf_counter()
        incremental_result = incremental_session._apply_feedback(
            annotations, incremental=True, evaluate=False
        )
        incremental_elapsed = time.perf_counter() - started

        started = time.perf_counter()
        full_session.add_feedback(annotations)
        full_session.run("feedback", evaluate=False)
        full_elapsed = time.perf_counter() - started

        report.rounds.append(
            _round_check(
                round_number,
                len(annotations),
                incremental_session,
                full_session,
                incremental_result.details.get("incremental", {}),
                (incremental_elapsed, full_elapsed),
            )
        )
    return report


def check_restored(
    scenario: Scenario | SynthConfig | None = None,
    *,
    rounds: int = 3,
    budget: int = 10,
    seed: int = 0,
    wrangler_config: WranglerConfig | None = None,
    checkpoint_path: str | None = None,
) -> ValidationReport:
    """Checkpoint → kill → restore must be invisible to the feedback loop.

    The session-persistence counterpart of :func:`check_incremental`: one
    session stays alive throughout; the other is checkpointed to disk,
    discarded and restored **before every feedback round** (simulating a
    process death between rounds). After each round both sessions must hold
    row-for-row equal result tables, the same selected mapping, the same
    match facts and exactly equal quality metrics.
    """
    import os
    import tempfile

    from repro.service.api import FeedbackRequest
    from repro.service.session import WranglingSession

    if scenario is None:
        scenario = SynthConfig()
    if isinstance(scenario, SynthConfig):
        scenario = generate_synthetic(scenario)
    config = wrangler_config or WranglerConfig()
    key = tuple(scenario.evaluation_key)

    live = WranglingSession(_prepare(scenario, config), scenario=scenario)
    survivor = WranglingSession(_prepare(scenario, config), scenario=scenario)
    report = ValidationReport(scenario=f"{scenario.name}(restore)")

    with tempfile.TemporaryDirectory() as scratch:
        path = checkpoint_path or os.path.join(scratch, "survivor.ckpt")
        for round_number in range(1, rounds + 1):
            reference_table = live.result()
            if reference_table is None:
                break
            annotations = simulate_feedback(
                reference_table,
                scenario.ground_truth,
                key,
                budget=budget,
                seed=seed * 7919 + round_number,
                strategy="targeted",
                id_prefix=f"r{round_number}",
            )
            request = FeedbackRequest(annotations=tuple(annotations), evaluate=False)

            started = time.perf_counter()
            live_metrics = live.feedback(request)
            live_elapsed = time.perf_counter() - started

            # The survivor dies and comes back between rounds.
            survivor.checkpoint(path)
            del survivor
            started = time.perf_counter()
            survivor = WranglingSession.restore(path)
            restored_metrics = survivor.feedback(request)
            restored_elapsed = time.perf_counter() - started

            report.rounds.append(
                _round_check(
                    round_number,
                    len(annotations),
                    survivor.wrangler,
                    live.wrangler,
                    restored_metrics.incremental or {},
                    (restored_elapsed, live_elapsed),
                    fingerprints=(restored_metrics.fingerprint, live_metrics.fingerprint),
                )
            )
    return report


def check_appends(
    scenario: Scenario | SynthConfig | None = None,
    *,
    rounds: int = 3,
    rows: int = 10,
    wrangler_config: WranglerConfig | None = None,
) -> ValidationReport:
    """Appended source rows: the incremental patch must equal a full re-run.

    The last ``rounds * rows`` rows of every source (at most half of it)
    are held back, and both sessions are prepared without them. Each round
    then appends the next ``rows`` held-back rows of every source, one
    append per source, with ``incremental=True`` on one session and
    ``incremental=False`` on the other. After each round both sessions must
    hold row-for-row equal results, the same selected mapping, the same
    match facts and exactly equal metrics, and each session's
    ``mapping_score`` facts must equal a from-scratch re-score: candidate
    scoring patches its per-leaf statistics on these appends.
    """
    if scenario is None:
        scenario = SynthConfig()
    if isinstance(scenario, SynthConfig):
        scenario = generate_synthetic(scenario)
    config = wrangler_config or WranglerConfig()
    held: dict[str, list[tuple]] = {}
    shortened = []
    for table in scenario.sources:
        kept = table.tuples()
        count = min(rounds * rows, len(kept) // 2)
        held[table.name] = kept[len(kept) - count :]
        shortened.append(table.replace_rows(kept[: len(kept) - count]))
    scenario = dataclasses.replace(scenario, sources=shortened)

    incremental_session = _prepare(scenario, config)
    full_session = _prepare(scenario, config)
    report = ValidationReport(scenario=f"{scenario.name}(append)")

    for round_number in range(1, rounds + 1):
        start = (round_number - 1) * rows
        blocks = {
            relation: tail[start : start + rows]
            for relation, tail in sorted(held.items())
            if len(tail) > start
        }
        if not blocks:
            break
        reasons = []
        started = time.perf_counter()
        for relation, block in blocks.items():
            result = incremental_session._append_source_rows(
                relation, block, incremental=True, evaluate=False
            )
            outcome = result.details.get("incremental", {})
            if not outcome.get("applied"):
                reasons.append(f"{relation}: {outcome.get('reason', '')}")
        incremental_elapsed = time.perf_counter() - started

        started = time.perf_counter()
        for relation, block in blocks.items():
            full_session._append_source_rows(relation, block, incremental=False, evaluate=False)
        full_elapsed = time.perf_counter() - started

        report.rounds.append(
            _round_check(
                round_number,
                sum(len(block) for block in blocks.values()),
                incremental_session,
                full_session,
                {"applied": not reasons, "reason": "; ".join(reasons)},
                (incremental_elapsed, full_elapsed),
                scores=True,
            )
        )
    return report


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; exits non-zero when ``--check`` finds a divergence."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.incremental.validate",
        description="Check incremental re-wrangling against the full pipeline.",
    )
    parser.add_argument("--family", default="product_catalog", help="scenario family")
    parser.add_argument("--entities", type=int, default=500, help="ground-truth entities")
    parser.add_argument("--sources", type=int, default=2, help="source tables")
    parser.add_argument("--seed", type=int, default=0, help="scenario seed")
    parser.add_argument("--rounds", type=int, default=3, help="feedback rounds")
    parser.add_argument(
        "--budget",
        type=int,
        default=10,
        help="annotations per round (append contract: rows per source per round)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every round's outputs are identical",
    )
    parser.add_argument(
        "--contract",
        choices=("incremental", "restore", "append"),
        default="incremental",
        help="which equality contract to check: incremental-vs-full rounds "
        "(default), checkpoint/restore-vs-uninterrupted sessions, or "
        "incremental-vs-full source-row appends",
    )
    args = parser.parse_args(argv)

    config = SynthConfig(
        family=args.family,
        entities=args.entities,
        sources=args.sources,
        seed=args.seed,
    )
    if args.contract == "append":
        report = check_appends(config, rounds=args.rounds, rows=args.budget)
        changes = "rows appended"
    else:
        checker = check_incremental if args.contract == "incremental" else check_restored
        report = checker(config, rounds=args.rounds, budget=args.budget, seed=args.seed)
        changes = "annotations"
    for check in report.rounds:
        status = "ok " if check.ok else "FAIL"
        mode = "patched" if check.patched else f"fallback ({check.fallback_reason})"
        print(
            f"{status} round {check.round}: {check.annotations} {changes}, "
            f"rows {check.rows_incremental}/{check.rows_full}, {mode}, "
            f"incremental {check.seconds_incremental:.3f}s vs full {check.seconds_full:.3f}s"
        )
        if check.mismatch:
            print(f"     mismatch: {check.mismatch}")
    print(
        f"{report.scenario}: {'EQUAL' if report.ok else 'DIVERGED'} over "
        f"{len(report.rounds)} rounds ({report.patched_rounds} patched), "
        f"speedup {report.speedup():.2f}x"
    )
    if args.check and not report.ok:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI test
    raise SystemExit(main())
