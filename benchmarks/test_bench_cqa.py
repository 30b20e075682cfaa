"""Consistent query answering benchmark: certain answers without repairs.

Two gates, both over generated ``query_workload`` scenarios:

1. ``test_bench_cqa_correctness`` — small scale, every workload query
   (rewritable and fallback alike) answered in ``mode="certain"`` must
   equal the brute-force intersection of its answers over *every* repair
   of the dirty base instance. This is the textbook definition of certain
   answers; the bench times the production path while asserting it against
   the oracle.
2. ``test_bench_cqa_rewriting`` — full size (10^4 entities), every
   rewritable workload query must answer through first-order rewriting:
   one stratified datalog evaluation over the unrepaired tables, no repair
   ever materialised (``method == "rewriting"``, answers exact).

Set ``BENCH_SMOKE=1`` to shrink the full-size case; the correctness case
is small by construction (brute force enumerates the repair space).
"""

from __future__ import annotations

import os

from benchmarks.conftest import print_table
from repro.cqa import build_repair_space, parse_query, query_answers
from repro.cqa.enumerate import _order_key
from repro.fusion.duplicates import DuplicateDetectorConfig
from repro.quality.cfd_learning import CFDLearnerConfig
from repro.scenarios.synth import SynthConfig
from repro.service.session import WranglingSession
from repro.wrangler.config import WranglerConfig

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Ground-truth entities for the rewriting case.
ENTITIES = 600 if SMOKE else 10_000
#: Workload size for the rewriting case (shapes cycle through key lookups,
#: scans, constant filters and the self-join fallback specimen).
WORKLOAD = 8
#: The correctness case stays tiny regardless of SMOKE: its oracle
#: enumerates the full repair space of the dirty instance, and roughly half
#: the key blocks of a two-source scenario conflict somewhere — the repair
#: count is exponential in that. 16 entities keeps it at ~512 repairs while
#: every workload shape still has non-empty certain answers.
ORACLE_ENTITIES = 16
ORACLE_SEED = 1
ORACLE_WORKLOAD = 5

#: Entity-key blocking keeps duplicate detection feasible at 10^4 and the
#: learner pinned to exact FDs keeps bootstrap a single fusion pass — the
#: same full-size setup (and rationale) as benchmarks/test_bench_incremental.py.
#: The query phase under the timer never touches either knob.
FULL_CONFIG = WranglerConfig(
    duplicate_detector=DuplicateDetectorConfig(
        blocking_attributes=("sku",),
        comparison_attributes=("name", "price", "brand", "category"),
    ),
    cfd_learner=CFDLearnerConfig(min_confidence=1.0),
)


def _session(
    entities: int,
    seed: int,
    workload: int,
    config: WranglerConfig | None = None,
    **knobs,
) -> WranglingSession:
    session = WranglingSession.from_scenario(
        SynthConfig(entities=entities, seed=seed, query_workload=workload, **knobs),
        config=config,
    )
    session.run()
    return session


def _scenario_keys(session: WranglingSession) -> dict[str, tuple[str, ...]]:
    return {
        session.wrangler.target_relation: tuple(session.scenario.evaluation_key)
    }


def _brute_force_certain(query, schemas, tables, keys):
    """The textbook definition: intersect answers over *all* repairs."""
    space = build_repair_space(tables, schemas, keys, query)
    answers = None
    for repaired in space.repairs(max_repairs=10**9):
        per_repair = set(query_answers(query, schemas, repaired))
        answers = per_repair if answers is None else answers & per_repair
    return tuple(sorted(answers or set(), key=_order_key))


def test_bench_cqa_correctness(benchmark):
    """Certain answers == brute-force repair intersection, query by query."""
    # schema_drift=0 keeps the evaluation key in every source: a drifted
    # source that drops ``sku`` collapses the instance into one giant
    # key-less block whose certain answers are vacuously empty.
    session = _session(ORACLE_ENTITIES, ORACLE_SEED, ORACLE_WORKLOAD,
                       schema_drift=0.0)
    wrangler = session.wrangler
    keys = _scenario_keys(session)
    workload = session.scenario.details["query_workload"]

    outcomes = benchmark.pedantic(
        lambda: [
            wrangler.query(entry["query"], mode="certain", keys=keys)
            for entry in workload
        ],
        rounds=1,
        iterations=1,
    )

    rows = []
    for entry, outcome in zip(workload, outcomes):
        query = parse_query(entry["query"])
        schemas, certain_tables, _repaired, _details = wrangler._query_environment(
            query
        )
        resolved = {
            relation: key for relation, key in keys.items() if relation in schemas
        }
        expected = _brute_force_certain(query, schemas, certain_tables, resolved)
        assert outcome.certain == expected, (
            f"{entry['query']}: certain answers diverge from the brute-force "
            f"repair intersection"
        )
        assert outcome.exact, f"{entry['query']}: inexact at oracle scale"
        rows.append(
            [entry["kind"], outcome.method, len(expected), str(outcome.exact)]
        )
    print_table(
        f"cqa correctness: {len(workload)} workload queries over "
        f"{ORACLE_ENTITIES} entities, all == brute force",
        ["kind", "method", "certain answers", "exact"],
        rows,
    )
    assert any(row[2] for row in rows), (
        "oracle degenerated: every certain-answer set is empty"
    )


def test_bench_cqa_rewriting(benchmark):
    """Rewritable workload queries answer without materialising a repair."""
    # schema_drift=0 for the same reason as the oracle case, plus a perf
    # one: a drifted source that drops ``sku`` merges its ~0.75n rows into
    # one NULL-key block, and the rewriting's block-mate join is quadratic
    # in block size (~56M pairs at 10^4) — a degenerate instance, not a
    # rewriting workload. With the key everywhere, blocks stay at the
    # realistic 1-3 rows and the program measures what it claims to.
    session = _session(ENTITIES, 0, WORKLOAD, config=FULL_CONFIG, schema_drift=0.0)
    wrangler = session.wrangler
    keys = _scenario_keys(session)
    rewritable = [
        entry
        for entry in session.scenario.details["query_workload"]
        if entry["rewritable"]
    ]
    assert rewritable, "workload generated no rewritable queries"

    outcomes = benchmark.pedantic(
        lambda: [
            wrangler.query(entry["query"], mode="certain", keys=keys)
            for entry in rewritable
        ],
        rounds=1,
        iterations=1,
    )

    rows = []
    for entry, outcome in zip(rewritable, outcomes):
        # The whole point: first-order rewriting over the dirty tables —
        # enumeration (and with it any repair materialisation) never runs.
        assert outcome.method == "rewriting", (
            f"{entry['query']}: fell back to {outcome.method}"
        )
        assert outcome.exact
        assert outcome.rewritable
        rows.append(
            [
                entry["kind"],
                len(outcome.certain),
                len(entry["answers"]),
            ]
        )
    print_table(
        f"cqa rewriting: {len(rewritable)} rewritable queries over "
        f"{ENTITIES} entities, zero repairs materialised",
        ["kind", "certain (dirty)", "ground truth (clean)"],
        rows,
    )
