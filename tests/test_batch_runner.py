"""Tests for the parallel batch wrangling runner (repro.wrangler.batch)."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenarios.synth import SynthConfig, generate_synthetic
from repro.wrangler import batch as batch_module
from repro.wrangler.config import WranglerConfig
from repro.wrangler.batch import (
    BatchConfig,
    BatchReport,
    iter_run,
    main,
    run_batch,
    run_scenario,
    table_fingerprint,
    wrangle_scenario,
)

TINY = {"entities": 40, "seed": 3}


def tiny_configs(count: int = 3) -> list[SynthConfig]:
    families = ("product_catalog", "sensor_log", "org_directory")
    return [SynthConfig(family=families[index % 3], seed=20 + index, entities=40)
            for index in range(count)]


class TestSingleScenario:
    def test_run_scenario_produces_structured_result(self):
        result = run_scenario(SynthConfig(family="org_directory", **TINY))
        assert result.ok
        assert result.family == "org_directory"
        assert result.phases == ("bootstrap", "data_context")
        assert result.rows > 0
        assert result.steps > 0
        assert result.manual_actions > 0
        assert 0.0 < result.quality["overall"] <= 1.0
        assert len(result.fingerprint) == 64
        assert result.seconds > 0

    def test_feedback_phase_runs_when_budgeted(self):
        result = run_scenario(SynthConfig(family="product_catalog", **TINY),
                              BatchConfig(feedback_budget=10))
        assert result.phases == ("bootstrap", "data_context", "feedback")

    def test_data_context_can_be_disabled(self):
        result = run_scenario(SynthConfig(family="product_catalog", **TINY),
                              BatchConfig(use_data_context=False))
        assert result.phases == ("bootstrap",)

    def test_failures_become_error_results(self):
        result = run_scenario(SynthConfig(family="no_such_family", seed=1))
        assert not result.ok
        assert "unknown scenario family" in result.error
        assert result.fingerprint == ""

    def test_wrangle_scenario_accepts_prebuilt_scenarios(self):
        scenario = generate_synthetic(SynthConfig(family="sensor_log", **TINY))
        direct = wrangle_scenario(scenario)
        via_config = run_scenario(SynthConfig(family="sensor_log", **TINY))
        assert direct.equivalence_key() == via_config.equivalence_key()

    def test_worker_registry_is_reused_within_a_worker(self):
        first = batch_module._worker_registry()
        sessions = batch_module._worker_sessions()
        second = batch_module._worker_registry()
        assert first is second
        assert batch_module._worker_sessions() == sessions + 1

    def test_table_fingerprint_is_order_independent(self):
        scenario = generate_synthetic(SynthConfig(family="org_directory", **TINY))
        table = scenario.ground_truth
        reversed_table = table.replace_rows(list(reversed(table.tuples())))
        assert table_fingerprint(table) == table_fingerprint(reversed_table)
        assert table_fingerprint(None) != table_fingerprint(table)


class TestBatchExecution:
    def test_serial_and_process_results_are_identical(self):
        configs = tiny_configs(4)
        serial = run_batch(configs, BatchConfig(executor="serial"))
        pooled = run_batch(configs, BatchConfig(executor="process", workers=2))
        assert [r.equivalence_key() for r in serial.results] == \
            [r.equivalence_key() for r in pooled.results]
        assert serial.aggregate() == pooled.aggregate()
        assert pooled.workers == 2

    def test_thread_executor_matches_serial(self):
        configs = tiny_configs(2)
        serial = run_batch(configs, BatchConfig(executor="serial"))
        threaded = run_batch(configs, BatchConfig(executor="thread", workers=2))
        assert [r.equivalence_key() for r in serial.results] == \
            [r.equivalence_key() for r in threaded.results]

    def test_results_preserve_input_order(self):
        configs = tiny_configs(4)
        report = run_batch(configs, BatchConfig(executor="process", workers=2))
        assert [r.name for r in report.results] == [c.label() for c in configs]

    def test_empty_batch(self):
        report = run_batch([], BatchConfig(executor="serial"))
        assert report.results == []
        assert report.aggregate()["scenarios"] == 0

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            run_batch(tiny_configs(1), BatchConfig(executor="gpu"))

    def test_bad_scenarios_do_not_kill_the_batch(self):
        configs = [*tiny_configs(2), SynthConfig(family="no_such_family", seed=1)]
        report = run_batch(configs, BatchConfig(executor="serial"))
        assert len(report.succeeded) == 2
        assert len(report.failed) == 1
        assert report.aggregate()["failed"] == 1

    def test_kwarg_overrides(self):
        report = run_batch(tiny_configs(2), workers=1, executor="serial")
        assert report.executor == "serial"
        assert report.workers == 1


class TestIterRun:
    def test_streams_results_in_input_order(self):
        configs = tiny_configs(3)
        streamed = list(iter_run(configs, BatchConfig(executor="serial")))
        assert [r.name for r in streamed] == [c.label() for c in configs]

    def test_stream_matches_run_batch(self):
        configs = tiny_configs(3)
        streamed = list(iter_run(configs, BatchConfig(executor="process", workers=2)))
        report = run_batch(configs, BatchConfig(executor="serial"))
        assert [r.equivalence_key() for r in streamed] == \
            [r.equivalence_key() for r in report.results]

    def test_is_lazy_under_serial_executor(self):
        # Pulling one result must not have run the whole batch: the serial
        # path yields as it goes, so large sweeps can stop (or aggregate and
        # discard) without materialising every result.
        ran: list[str] = []
        original = batch_module.run_scenario

        def spy(config, batch=None):
            ran.append(config.label())
            return original(config, batch)

        configs = tiny_configs(3)
        batch_module.run_scenario = spy
        try:
            stream = iter_run(configs, BatchConfig(executor="serial"))
            first = next(stream)
            assert len(ran) == 1
            stream.close()
        finally:
            batch_module.run_scenario = original
        assert first.name == configs[0].label()
        assert len(ran) == 1

    def test_early_close_shuts_pool_down(self):
        stream = iter_run(tiny_configs(3), BatchConfig(executor="process", workers=2))
        first = next(stream)
        stream.close()  # must not hang or leak the pool
        assert first.ok

    def test_empty_stream(self):
        assert list(iter_run([], BatchConfig(executor="serial"))) == []


class TestFeedbackRounds:
    def test_multiple_rounds_extend_the_phase_list(self):
        result = run_scenario(SynthConfig(family="product_catalog", **TINY),
                              BatchConfig(feedback_budget=4, feedback_rounds=3))
        assert result.ok, result.error
        assert result.phases == ("bootstrap", "data_context", "feedback",
                                 "feedback2", "feedback3")
        assert result.incremental_patches == 0

    def test_incremental_rounds_patch_and_match_full_runs(self):
        config = SynthConfig(family="product_catalog", **TINY)
        full = run_scenario(config, BatchConfig(feedback_budget=4, feedback_rounds=2))
        patched = run_scenario(
            config,
            BatchConfig(feedback_budget=4, feedback_rounds=2,
                        wrangler=WranglerConfig(enable_incremental=True)))
        assert full.ok and patched.ok, (full.error, patched.error)
        assert patched.incremental_patches >= 1
        # The incremental engine is an optimisation, not a semantics change.
        assert patched.fingerprint == full.fingerprint
        assert patched.quality == full.quality


class TestCheckpointing:
    def test_restart_reloads_completed_shards(self, tmp_path):
        configs = tiny_configs(3)
        batch = BatchConfig(executor="serial")
        first = run_batch(configs, batch, checkpoint_dir=str(tmp_path))
        assert not first.failed
        assert all(not result.checkpointed for result in first.results)
        assert len(list(tmp_path.glob("*.json"))) == len(configs)

        second = run_batch(configs, batch, checkpoint_dir=str(tmp_path))
        assert all(result.checkpointed for result in second.results)
        assert [r.equivalence_key() for r in second.results] == [
            r.equivalence_key() for r in first.results]

    def test_corrupt_checkpoint_reruns_that_shard(self, tmp_path):
        configs = tiny_configs(2)
        batch = BatchConfig(executor="serial")
        run_batch(configs, batch, checkpoint_dir=str(tmp_path))
        victim = sorted(tmp_path.glob("*.json"))[0]
        victim.write_text("{not json", encoding="utf-8")
        report = run_batch(configs, batch, checkpoint_dir=str(tmp_path))
        assert sum(1 for result in report.results if result.checkpointed) == 1
        assert not report.failed

    def test_fingerprint_mismatch_invalidates_checkpoints(self, tmp_path):
        configs = tiny_configs(2)
        run_batch(configs, BatchConfig(executor="serial"), checkpoint_dir=str(tmp_path))
        # Changing a result-shaping knob changes the shard fingerprints:
        # nothing may resume from the stale shards.
        report = run_batch(configs, BatchConfig(executor="serial", feedback_budget=3),
                           checkpoint_dir=str(tmp_path))
        assert all(not result.checkpointed for result in report.results)

    def test_tampered_payload_is_rejected(self, tmp_path):
        configs = tiny_configs(1)
        batch = BatchConfig(executor="serial")
        run_batch(configs, batch, checkpoint_dir=str(tmp_path))
        path = next(tmp_path.glob("*.json"))
        payload = json.loads(path.read_text())
        payload["shard_fingerprint"] = "0" * 64
        path.write_text(json.dumps(payload), encoding="utf-8")
        report = run_batch(configs, batch, checkpoint_dir=str(tmp_path))
        assert not report.results[0].checkpointed

    def test_partial_checkpoints_only_run_missing_shards(self, tmp_path):
        configs = tiny_configs(3)
        batch = BatchConfig(executor="serial")
        run_batch(configs[:2], batch, checkpoint_dir=str(tmp_path))
        report = run_batch(configs, batch, checkpoint_dir=str(tmp_path))
        flags = [result.checkpointed for result in report.results]
        assert flags == [True, True, False]
        # Input order is preserved across the cached/fresh interleave.
        assert [result.name for result in report.results] == [
            config.label() for config in configs]


class TestBatchReport:
    def test_by_family_and_as_dict(self):
        report = run_batch(tiny_configs(3), BatchConfig(executor="serial"))
        families = report.by_family()
        assert set(families) == {"product_catalog", "sensor_log", "org_directory"}
        rendered = report.as_dict()
        assert rendered["aggregate"]["succeeded"] == 3
        assert len(rendered["results"]) == 3
        json.dumps(rendered)  # must be JSON-serialisable

    def test_fingerprints_exposed_per_scenario(self):
        configs = tiny_configs(2)
        report = run_batch(configs, BatchConfig(executor="serial"))
        prints = report.fingerprints()
        assert set(prints) == {config.label() for config in configs}
        assert all(len(value) == 64 for value in prints.values())


# -- property: batch == sum of independent sequential runs --------------------

config_strategy = st.builds(
    SynthConfig,
    family=st.sampled_from(("product_catalog", "sensor_log", "org_directory")),
    seed=st.integers(min_value=0, max_value=10_000),
    entities=st.integers(min_value=10, max_value=60),
    sources=st.integers(min_value=1, max_value=3),
    source_coverage=st.floats(min_value=0.3, max_value=1.0),
    noise=st.floats(min_value=0.0, max_value=0.4),
    missing=st.floats(min_value=0.0, max_value=0.4),
    missing_pattern=st.sampled_from(("random", "column", "tail")),
    schema_drift=st.floats(min_value=0.0, max_value=1.0),
)


@given(st.lists(config_strategy, min_size=1, max_size=3))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_batch_aggregate_equals_sum_of_independent_runs(configs):
    """For ANY generated scenario set, the batch runner's aggregate report
    equals the aggregate of independent sequential runs of the same configs
    (and the per-scenario results are identical)."""
    batch = BatchConfig(executor="serial")
    report = run_batch(configs, batch)
    independent = [run_scenario(config, batch) for config in configs]

    assert [r.equivalence_key() for r in report.results] == \
        [r.equivalence_key() for r in independent]
    rebuilt = BatchReport(results=independent, wall_seconds=0.0, workers=1,
                          executor="serial")
    assert report.aggregate() == rebuilt.aggregate()
    assert report.by_family() == rebuilt.by_family()


def test_process_pool_aggregate_equals_independent_runs():
    """The same property holds across the process pool, where scenarios are
    regenerated inside worker processes."""
    configs = tiny_configs(4)
    pooled = run_batch(configs, BatchConfig(executor="process", workers=2))
    independent = [run_scenario(config) for config in configs]
    rebuilt = BatchReport(results=independent, wall_seconds=0.0, workers=1,
                          executor="serial")
    assert pooled.aggregate() == rebuilt.aggregate()
    assert [r.equivalence_key() for r in pooled.results] == \
        [r.equivalence_key() for r in independent]


class TestCommandLine:
    def test_cli_serial_run_with_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "--families", "product_catalog", "sensor_log",
            "--per-family", "1", "--entities", "40",
            "--executor", "serial", "--json", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "batch: 2/2 scenarios ok" in captured
        payload = json.loads(out.read_text())
        assert payload["aggregate"]["succeeded"] == 2
        assert len(payload["results"]) == 2

    def test_cli_reports_failures_in_exit_code(self, capsys):
        code = main(["--families", "product_catalog", "--per-family", "1",
                     "--entities", "40", "--executor", "serial",
                     "--missing-pattern", "diagonal", "--quiet"])
        assert code == 1
        assert "FAIL" not in capsys.readouterr().out  # --quiet suppresses rows
