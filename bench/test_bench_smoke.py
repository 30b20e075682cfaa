"""Smoke test of the benchmark at its tiny scale (runs in-process).

Checks that every metric ``BENCHMARK.json`` lists is emitted, that a traced
run attributes spans to every layer on its home workload, and that a
``shipment_ingest`` run replayed without the incremental engine ends in the
same results.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bench import trace as tracing
from bench import workloads
from bench.worker import E2E_UNITS, run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SECONDS = 0.2
SEED = 3


@pytest.fixture(scope="module")
def runs():
    """An untraced and a traced tiny run of every workload."""
    return {
        workload: tuple(run(workload, SEED, SECONDS, trace, scale="tiny")[0]
                        for trace in (False, True))
        for workload in workloads.WORKLOADS
    }


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_UNITS
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert declared == {m.name: (m.unit, m.better) for m in tracing.LAYER_METRICS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_listed_metric_is_emitted(runs, workload):
    plain, traced = runs[workload]
    assert set(plain["result"]["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["result"]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for result in (plain["result"], traced["result"]):
        assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert all(m["value"] > 0 for m in plain["result"]["metrics"].values())


def test_traced_run_attributes_spans_to_each_layer(runs):
    covered = set()
    for workload, (_plain, traced) in runs.items():
        # A layer homed on this workload without a single event fails the run.
        assert traced["problems"] == [], (workload, traced["problems"])
        covered |= {name for name, seconds in traced["self_times_s"].items() if seconds > 0}
    assert {name for _module, _path, name in tracing.SPANNED} <= covered


def test_shipment_ingest_replay_without_incremental_matches():
    size = workloads.SCALES["tiny"]["shipment_ingest"]
    _full, record = run("shipment_ingest", SEED, SECONDS, False, scale="tiny")
    assert all(record.requests), "every session must have served requests"
    live = [session.fingerprint() for session in record.sessions]
    replayed = workloads.replay_fingerprints(record, incremental=False, size=size)
    assert replayed == live
