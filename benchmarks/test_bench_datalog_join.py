"""Micro-benchmarks for hash-indexed join evaluation in the Vadalog reasoner.

Three workloads exercise the index paths the architecture leans on:

- **transitive closure** — recursion; delta relations must be indexed or
  every round re-scans the whole ``edge`` relation;
- **mapping selection** — the multi-way join + comparison shape of the
  mapping-selection transducer's dependency views;
- **negation-heavy** — stratified negation, probing the full-width index.

Sizes span 10²–10⁵ tuples. The indexed engine is timed with
pytest-benchmark at every size; the A/B tests additionally run the
``indexed=False`` reference evaluator, assert byte-identical models/query answers,
and assert the ≥10× speedup at the largest A/B size (the naive engine is
quadratic, so it is only exercised at sizes where it finishes in seconds).

Set ``BENCH_SMOKE=1`` (the CI bench job does) to restrict every workload to
the small sizes.

A calibration benchmark measuring a fixed pure-Python workload is included
so that ``benchmarks/check_regression.py`` can normalise means across
machines of different speeds.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.datalog import Database, Engine, Program

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Tuple counts for indexed-only timing (the naive engine never sees these).
INDEXED_SIZES = [100, 1_000, 10_000] if SMOKE else [100, 1_000, 10_000, 100_000]
#: Tuple counts for the indexed-vs-naive A/B comparison.
AB_SIZES = [100, 300] if SMOKE else [100, 1_000]
#: Required speedup at the largest A/B size.
MIN_SPEEDUP = 2.0 if SMOKE else 10.0

TC_PROGRAM = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y), edge(Y, Z).
"""

MAPPING_PROGRAM = """
viable(M, R) :- candidate(M, R), score(M, S), S >= 600, profile(R, Q), Q >= 300.
selected(M) :- viable(M, R), target(R).
"""

NEGATION_PROGRAM = """
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
blocked(X) :- reach(X, Y), bad(Y).
clean(X) :- node(X), not blocked(X).
isolated(X) :- node(X), not reach(X, X), not blocked(X).
"""


def chain_edges(n: int, depth: int = 5) -> dict[str, list[tuple]]:
    """``n`` edge tuples arranged as disjoint chains of length ``depth``."""
    rows = []
    for chain in range(max(1, n // depth)):
        for step in range(depth):
            rows.append((f"n{chain}_{step}", f"n{chain}_{step + 1}"))
    return {"edge": rows[:n] if len(rows) >= n else rows}

def mapping_relations(n: int) -> dict[str, list[tuple]]:
    """A mapping-selection shaped EDB with ``~n`` tuples across 4 relations."""
    quarter = max(1, n // 4)
    candidates = [(f"m{i}", f"rel{i % (quarter // 4 + 1)}") for i in range(quarter)]
    scores = [(f"m{i}", (i * 37) % 1000) for i in range(quarter)]
    profiles = [(f"rel{i}", (i * 53) % 1000) for i in range(quarter)]
    targets = [(f"rel{i}",) for i in range(0, quarter, 3)]
    return {"candidate": candidates, "score": scores,
            "profile": profiles, "target": targets}

def negation_relations(n: int) -> dict[str, list[tuple]]:
    """Chain edges plus node/bad relations for the negation workload."""
    edb = chain_edges(max(1, n * 2 // 3), depth=4)
    nodes = sorted({v for row in edb["edge"] for v in row})
    edb["node"] = [(v,) for v in nodes]
    edb["bad"] = [(v,) for i, v in enumerate(nodes) if i % 11 == 0]
    return edb


WORKLOADS = {
    "transitive_closure": (TC_PROGRAM, chain_edges, "tc(X, Y)"),
    "mapping_selection": (MAPPING_PROGRAM, mapping_relations, "selected(M)"),
    "negation_heavy": (NEGATION_PROGRAM, negation_relations, "clean(X)"),
}


def _snapshot(model: Database) -> dict[str, list[tuple]]:
    """A deterministic, comparable rendering of a full model."""
    return {predicate: sorted(model.relation(predicate), key=repr)
            for predicate in model.predicates()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("size", INDEXED_SIZES)
def test_datalog_join(benchmark, workload: str, size: int):
    """Time the indexed engine across workloads and sizes."""
    text, generate, _goal = WORKLOADS[workload]
    program = Program.parse(text)
    edb = generate(size)
    rounds = 1 if size >= 10_000 else 3
    model = benchmark.pedantic(
        lambda: Engine(program, indexed=True).run(edb), rounds=rounds, iterations=1)
    assert model.count() > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_indexed_matches_naive(workload: str):
    """Both engine modes produce byte-identical models and query answers,
    and the index pays off ≥``MIN_SPEEDUP``× at the largest A/B size."""
    text, generate, goal = WORKLOADS[workload]
    program = Program.parse(text)
    timings: dict[int, tuple[float, float]] = {}
    for size in AB_SIZES:
        edb = generate(size)
        started = time.perf_counter()
        indexed_engine = Engine(program, indexed=True)
        indexed_model = indexed_engine.run(edb)
        indexed_elapsed = time.perf_counter() - started
        started = time.perf_counter()
        naive_engine = Engine(program, indexed=False)
        naive_model = naive_engine.run(edb)
        naive_elapsed = time.perf_counter() - started
        assert _snapshot(indexed_model) == _snapshot(naive_model)
        assert (indexed_engine.query(goal, database=indexed_model)
                == naive_engine.query(goal, database=naive_model))
        timings[size] = (indexed_elapsed, naive_elapsed)
    largest = max(AB_SIZES)
    indexed_elapsed, naive_elapsed = timings[largest]
    speedup = naive_elapsed / max(indexed_elapsed, 1e-9)
    print(f"\n[{workload}] size={largest}: indexed={indexed_elapsed:.4f}s "
          f"naive={naive_elapsed:.4f}s speedup={speedup:.1f}x")
    assert speedup >= MIN_SPEEDUP, (
        f"{workload}: expected >= {MIN_SPEEDUP}x speedup at size {largest}, "
        f"got {speedup:.1f}x (indexed {indexed_elapsed:.4f}s vs naive {naive_elapsed:.4f}s)")


def test_bench_calibration(benchmark):
    """A fixed pure-Python workload used to normalise across machines.

    ``check_regression.py`` divides every datalog-join mean by this
    benchmark's mean before comparing against the committed baseline, so a
    uniformly slower CI machine does not trip the regression gate.
    """
    def workload() -> int:
        table = {(i % 97, i % 89): i for i in range(20_000)}
        total = 0
        for i in range(20_000):
            total += table.get((i % 97, i % 89), 0)
        return total

    assert benchmark(workload) > 0
