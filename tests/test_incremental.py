"""Tests for the incremental re-wrangling engine (`repro.incremental`)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.facts import Feedback, Predicates
from repro.core.knowledge_base import KnowledgeBase
from repro.feedback.annotations import simulate_feedback
from repro.incremental import ChangeSet, FeedbackDelta, SourceRowsDelta, cluster_map, resolve
from repro.incremental.validate import _prepare, check_incremental
from repro.provenance.feedback import LineageFeedbackPropagator
from repro.scenarios.synth import SynthConfig, generate_synthetic
from repro.service.api import AppendRequest, FeedbackRequest
from repro.wrangler.config import WranglerConfig


def tables_equal(left, right):
    """Row-for-row equality (same schema, same order, same values)."""
    if left is None or right is None:
        return left is right
    return (
        list(left.schema.attribute_names) == list(right.schema.attribute_names)
        and left.tuples() == right.tuples()
    )


def feedback(wrangler, annotations, **options):
    """One feedback round through the session surface."""
    return wrangler.session().feedback(
        FeedbackRequest(annotations=tuple(annotations), **options)
    )


def append(wrangler, relation, rows, **options):
    """Append source rows through the session surface."""
    return wrangler.session().append(
        AppendRequest(relation=relation, rows=tuple(rows), **options)
    )


def twin_sessions(config: SynthConfig, wrangler_config: WranglerConfig | None = None):
    """Two identically prepared sessions over one scenario."""
    scenario = generate_synthetic(config)
    wrangler_config = wrangler_config or WranglerConfig()
    return scenario, _prepare(scenario, wrangler_config), _prepare(scenario, wrangler_config)


class TestChangeSetAlgebra:
    def test_emit_deltas_maps_any_attribute_to_none(self):
        kb = KnowledgeBase()
        for annotation in (
            Feedback("f1", "res", "k1", Predicates.ANY_ATTRIBUTE, False),
            Feedback("f2", "res", "k2", "price", True),
            Feedback("f3", "res", "k3", "price", False),
        ):
            kb.assert_tuple(annotation.to_fact())
        propagator = LineageFeedbackPropagator()
        change_set = propagator.emit_deltas(kb)
        by_id = {delta.feedback_id: delta for delta in change_set.feedback_deltas()}
        assert by_id["f1"].attribute is None
        assert by_id["f2"].attribute == "price" and by_id["f2"].correct
        assert change_set.describe()["by_kind"] == {"feedback": 3}
        # Annotations whose table effects are already materialised are skipped.
        unseen = propagator.emit_deltas(kb, seen={"f1", "f3"})
        assert [delta.feedback_id for delta in unseen] == ["f2"]

    def test_changes_table_only_for_negative_feedback(self):
        assert FeedbackDelta("r", "k", "x", correct=False).changes_table
        assert not FeedbackDelta("r", "k", "x", correct=True).changes_table


class TestClusterMap:
    def test_transitive_clusters(self):
        clusters = cluster_map([("a", "b"), ("b", "c"), ("x", "y")])
        assert clusters["a"] == clusters["c"] == frozenset({"a", "b", "c"})
        assert clusters["x"] == frozenset({"x", "y"})
        assert "z" not in clusters

    def test_empty(self):
        assert cluster_map([]) == {}


class TestResolve:
    def test_feedback_closure_includes_cluster_members(self):
        # product_catalog over-merges aggressively, so clusters are plentiful.
        scenario = generate_synthetic(
            SynthConfig(family="product_catalog", entities=120, seed=2)
        )
        wrangler = _prepare(scenario, WranglerConfig())
        relation = wrangler.result_name()
        state = wrangler.incremental.get(relation)
        clustered = cluster_map(state.pairs)
        assert clustered, "expected duplicate clusters in product_catalog"
        member = next(iter(clustered))
        change_set = ChangeSet(
            (FeedbackDelta(relation, member, "price", correct=False, feedback_id="fx"),)
        )
        dirty = resolve(
            change_set,
            wrangler.incremental,
            {relation: wrangler.selected_mapping()},
            wrangler.kb.catalog,
        )
        assert clustered[member] <= dirty[relation].recompute


class TestApplyFeedbackIncremental:
    def run_rounds(self, config, rounds=2, budget=6, wrangler_config=None):
        scenario, incremental, full = twin_sessions(config, wrangler_config)
        outcomes = []
        for round_number in range(1, rounds + 1):
            annotations = simulate_feedback(
                full.result(),
                scenario.ground_truth,
                scenario.evaluation_key,
                budget=budget,
                seed=round_number,
                strategy="targeted",
                id_prefix=f"t{round_number}",
            )
            result = feedback(incremental, annotations, incremental=True)
            outcomes.append(result.incremental)
            full.add_feedback(annotations)
            full.run("feedback")
            assert tables_equal(incremental.result(), full.result()), (
                f"round {round_number} diverged"
            )
        return incremental, full, outcomes

    def test_patched_rounds_match_full_pipeline(self):
        incremental, full, outcomes = self.run_rounds(
            SynthConfig(family="product_catalog", entities=120, seed=2)
        )
        assert any(outcome["applied"] for outcome in outcomes)
        assert sorted(incremental.kb.facts(Predicates.MATCH)) == sorted(
            full.kb.facts(Predicates.MATCH)
        )
        assert (
            incremental.selected_mapping().mapping_id == full.selected_mapping().mapping_id
        )

    def test_tuple_level_feedback_drops_rows_in_both_paths(self):
        scenario, incremental, full = twin_sessions(
            SynthConfig(family="sensor_log", entities=100, seed=5)
        )
        victim = incremental.result().row_keys()[3]
        annotations = [Feedback("drop1", incremental.result_name(), victim,
                                Predicates.ANY_ATTRIBUTE, False)]
        result = feedback(incremental, annotations, incremental=True)
        assert result.incremental["applied"]
        full.add_feedback(annotations)
        full.run("feedback")
        assert victim not in incremental.result().row_keys()
        assert tables_equal(incremental.result(), full.result())

    def test_stale_snapshot_falls_back_and_still_matches(self):
        scenario, incremental, full = twin_sessions(
            SynthConfig(family="product_catalog", entities=100, seed=7)
        )
        incremental.incremental.get(incremental.result_name()).mark_stale("test-staleness")
        annotations = simulate_feedback(
            full.result(), scenario.ground_truth, scenario.evaluation_key,
            budget=5, seed=1, strategy="targeted", id_prefix="s",
        )
        result = feedback(incremental, annotations, incremental=True)
        assert not result.incremental["applied"]
        assert "test-staleness" in result.incremental["reason"]
        full.add_feedback(annotations)
        full.run("feedback")
        assert tables_equal(incremental.result(), full.result())

    def test_incremental_disabled_without_provenance(self):
        scenario = generate_synthetic(SynthConfig(family="org_directory", entities=80, seed=1))
        wrangler = _prepare(scenario, WranglerConfig(track_provenance=False))
        annotations = simulate_feedback(
            wrangler.result(), scenario.ground_truth, scenario.evaluation_key,
            budget=3, seed=0, strategy="targeted",
        )
        result = feedback(wrangler, annotations, incremental=True)
        assert not result.incremental["applied"]
        assert wrangler.result() is not None

    def test_positive_feedback_only_keeps_table_untouched(self):
        scenario, incremental, full = twin_sessions(
            SynthConfig(family="org_directory", entities=90, seed=9)
        )
        annotations = [
            annotation
            for annotation in simulate_feedback(
                full.result(), scenario.ground_truth, scenario.evaluation_key,
                budget=40, seed=2, strategy="random", id_prefix="p",
            )
            if annotation.correct
        ][:5]
        if not annotations:  # pragma: no cover - scenario-dependent
            pytest.skip("no confirmable cells in this scenario")
        result = feedback(incremental, annotations, incremental=True)
        assert result.incremental["applied"]
        full.add_feedback(annotations)
        full.run("feedback")
        assert tables_equal(incremental.result(), full.result())


class TestStructuralDeltas:
    def test_source_append_matches_full_rerun(self):
        scenario, incremental, full = twin_sessions(
            SynthConfig(family="shipment_tracking", entities=120, seed=6)
        )
        source = scenario.sources[0]
        new_rows = [source.tuples()[0], source.tuples()[1]]
        result = append(incremental, source.name, new_rows, incremental=True)
        append(full, source.name, new_rows, incremental=False)
        assert tables_equal(incremental.result(), full.result())
        assert len(incremental.result()) == len(full.result())
        outcome = result.incremental
        if outcome["applied"]:
            assert outcome["rows_rematerialised"] >= len(new_rows)

    def test_lookup_append_rematerialises_joined_rows(self):
        scenario, incremental, full = twin_sessions(
            SynthConfig(family="shipment_tracking", entities=120, seed=8)
        )
        # A brand-new depot no shipment references: nothing should change.
        depots = incremental.kb.get_table("depots")
        unknown = ("DEP-9999", "nowhere", "z.nobody")
        before = incremental.result().tuples()
        result = append(incremental, "depots", [unknown], incremental=True)
        assert result.incremental["applied"]
        assert incremental.result().tuples() == before
        append(full, "depots", [unknown], incremental=False)
        assert tables_equal(incremental.result(), full.result())
        assert len(depots) + 1 == len(incremental.kb.get_table("depots"))

    def test_combined_appends_to_one_source_all_materialise(self):
        scenario, incremental, full = twin_sessions(
            SynthConfig(family="org_directory", entities=100, seed=12)
        )
        source = scenario.sources[0]
        first = [source.tuples()[0]]
        second = [source.tuples()[1], source.tuples()[2]]
        # Two appends in one change set: both deltas must resolve to their
        # own tail positions, not just the most recent append's.
        table = incremental.kb.get_table(source.name)
        incremental.kb.update_table(table.extend(first + second))
        change_set = ChangeSet(
            (
                SourceRowsDelta(source.name, appended=tuple(first)),
                SourceRowsDelta(source.name, appended=tuple(second)),
            )
        )
        result = incremental.session().apply(change_set)
        append(full, source.name, first + second, incremental=False)
        assert tables_equal(incremental.result(), full.result())
        outcome = result.incremental
        if outcome["applied"]:
            assert outcome["rows_rematerialised"] >= 3


class TestRowRemoval:
    """Row removals dirty a driving source's whole segment (its positional
    row ids shift) or every row that may have joined a removed lookup row;
    the patch must still equal a full re-run, and the rebuilt source
    statistics must equal a rescan."""

    REMOVED = (1, 4, 5)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize(
        ("family", "relation"),
        [
            ("product_catalog", None),
            ("shipment_tracking", None),
            ("real_estate", None),
            ("shipment_tracking", "depots"),
        ],
        ids=["product_catalog-driving", "shipment_tracking-driving",
             "real_estate-driving", "shipment_tracking-depots"],
    )
    def test_removed_rows_match_full_rerun(self, family, relation, seed):
        scenario, incremental, full = twin_sessions(
            SynthConfig(family=family, entities=120, seed=seed)
        )
        if relation is None:
            relation = incremental.selected_mapping().leaf_mappings()[0].sources[0]
        for wrangler in (incremental, full):
            table = wrangler.kb.get_table(relation)
            kept = [row for index, row in enumerate(table.tuples()) if index not in self.REMOVED]
            wrangler.kb.update_table(table.replace_rows(kept))
        result = incremental.session().apply(
            ChangeSet((SourceRowsDelta(relation, removed_indexes=self.REMOVED),))
        )
        full.run("revision")
        assert result.incremental["applied"], result.incremental["reason"]
        assert relation in result.incremental["metrics_patched"]
        assert tables_equal(incremental.result(), full.result())
        fast = incremental.evaluate()
        slow = incremental.evaluate(use_stats=False)
        assert fast.as_dict() == slow.as_dict()
        assert fast.attribute_completeness == slow.attribute_completeness
        assert fast.row_count == slow.row_count


class TestIncrementalMetrics:
    """Metric facts patch from sufficient statistics instead of rescanning
    the result after every revision."""

    def feedback_round(self, scenario, session, round_number, budget=5):
        annotations = simulate_feedback(
            session.result(),
            scenario.ground_truth,
            scenario.evaluation_key,
            budget=budget,
            seed=round_number,
            strategy="targeted",
            id_prefix=f"m{round_number}",
        )
        result = feedback(session, annotations, incremental=True, evaluate=False)
        return result.incremental

    def assert_stats_exact(self, session):
        fast = session.evaluate()
        slow = session.evaluate(use_stats=False)
        assert fast is not None and slow is not None
        assert fast.as_dict() == slow.as_dict()
        assert fast.attribute_completeness == slow.attribute_completeness
        assert fast.row_count == slow.row_count

    def test_feedback_rounds_patch_metrics_without_index_rebuild(self):
        scenario = generate_synthetic(SynthConfig(family="sensor_log", entities=120, seed=3))
        session = _prepare(scenario, WranglerConfig())
        relation = session.result_name()
        for round_number in (1, 2, 3):
            outcome = self.feedback_round(scenario, session, round_number)
            assert outcome["applied"], outcome
            assert relation in outcome["metrics_patched"]
            self.assert_stats_exact(session)

    def test_source_append_patches_source_metrics(self):
        scenario = generate_synthetic(SynthConfig(family="sensor_log", entities=90, seed=6))
        session = _prepare(scenario, WranglerConfig())
        source = scenario.sources[0].name
        from repro.quality.transducers import quality_stats_stash

        stash = quality_stats_stash(session.kb, create=False)
        assert stash is not None and source in stash.entries
        template = session.kb.get_table(source).tuples()[0]
        result = append(session, source, [template, template])
        outcome = result.incremental
        if outcome["applied"]:
            assert source in outcome["metrics_patched"]
            entry = stash.entries[source]
            assert entry.stats.row_count == len(session.kb.get_table(source))

    def test_base_table_provider_matches_real_execution(self):
        from repro.mapping.execution import MappingExecutor
        from repro.mapping.transducers import _snapshot_base_table_provider

        scenario = generate_synthetic(
            SynthConfig(family="shipment_tracking", entities=80, seed=2)
        )
        session = _prepare(scenario, WranglerConfig())
        # Age the snapshot through a feedback round first: the provider must
        # serve pre-repair base rows even after patches touched the result.
        self.feedback_round(scenario, session, 1)
        mapping = session.selected_mapping()
        provider = _snapshot_base_table_provider(session.kb)
        assert provider is not None
        served = provider(mapping)
        if served is None:
            pytest.skip("snapshot not servable in this scenario")
        target_schema = session.kb.schema_of(mapping.target_relation)
        executed = MappingExecutor(session.kb.catalog).execute(
            mapping, target_schema, result_name="__candidate_check"
        )
        assert dict(zip(served.row_keys(), served.tuples())) == dict(
            zip(executed.row_keys(), executed.tuples())
        )


class TestValidateHarness:
    def test_check_incremental_reports_equal_rounds(self):
        report = check_incremental(
            SynthConfig(family="sensor_log", entities=90, seed=1), rounds=2, budget=4
        )
        assert report.ok, report.describe()
        assert len(report.rounds) == 2
        assert report.patched_rounds >= 1
        assert report.speedup() > 0

    def test_validate_cli_check_passes(self, capsys):
        from repro.incremental.validate import main

        code = main(
            [
                "--family", "org_directory", "--entities", "80",
                "--rounds", "1", "--budget", "3", "--check",
            ]
        )
        assert code == 0
        assert "EQUAL" in capsys.readouterr().out


class TestIncrementalProperty:
    """The satellite contract: for a random scenario and a random feedback
    batch, incremental re-wrangling is row-for-row equal to a from-scratch
    full pipeline, round after round."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        family=st.sampled_from(
            ["product_catalog", "sensor_log", "org_directory", "shipment_tracking", "real_estate"]
        ),
        seed=st.integers(min_value=0, max_value=10_000),
        entities=st.integers(min_value=50, max_value=140),
        budget=st.integers(min_value=1, max_value=10),
        rounds=st.integers(min_value=1, max_value=2),
    )
    def test_incremental_equals_from_scratch(self, family, seed, entities, budget, rounds):
        report = check_incremental(
            SynthConfig(family=family, entities=entities, seed=seed),
            rounds=rounds,
            budget=budget,
            seed=seed,
        )
        assert report.ok, report.describe()
