"""Integration tests for the Wrangler facade and the full transducer complement."""

from __future__ import annotations

import pytest

from repro import (
    COMPLETENESS,
    ACCURACY,
    CONSISTENCY,
    Predicates,
    UserContext,
    Wrangler,
    WranglerConfig,
    build_default_registry,
)
from repro.core.orchestrator import PreferInstanceMatchingPolicy
from repro.feedback.annotations import simulate_feedback
from repro.incremental.validate import _prepare
from repro.mapping.model import PROVENANCE_ROW_ID, PROVENANCE_SOURCE
from repro.quality import build_stats
from repro.quality.transducers import CFD_ARTIFACT_KEY
from repro.relational import Attribute, DataType, Schema
from repro.scenarios.synth import SynthConfig, family_names, generate_synthetic
from repro.service.api import FeedbackRequest


class TestDefaultRegistry:
    def test_contains_the_papers_transducers(self):
        registry = build_default_registry()
        names = set(registry.names())
        assert {"data_extraction", "schema_matching", "instance_matching",
                "mapping_generation", "mapping_selection", "cfd_learning",
                "quality_metrics", "mapping_evaluation"} <= names

    def test_table1_style_description(self):
        registry = build_default_registry()
        rows = registry.describe()
        by_name = {row["name"]: row for row in rows}
        assert by_name["schema_matching"]["input_dependencies"] == [
            "schema(S, source)", "schema(T, target)"]
        assert by_name["instance_matching"]["input_dependencies"] == [
            "dataset(S, source, N)", "data_context(C, K, T)"]
        assert by_name["mapping_selection"]["input_dependencies"] == ["mapping_score(M, C, V)"]
        assert by_name["cfd_learning"]["input_dependencies"] == ["data_context(C, K, T)"]


class TestWranglerBootstrap:
    def test_bootstrap_produces_a_result(self, tiny_scenario):
        wrangler = Wrangler()
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        outcome = wrangler.run("bootstrap", ground_truth=tiny_scenario.ground_truth)
        assert outcome.table is not None
        assert outcome.row_count > 0
        assert outcome.selected_mapping is not None
        assert outcome.quality is not None
        assert outcome.steps_executed > 0
        # result columns follow the target schema plus provenance columns
        names = outcome.table.schema.attribute_names
        assert set(tiny_scenario.target.attribute_names) <= set(names)
        assert PROVENANCE_SOURCE in names and PROVENANCE_ROW_ID in names

    def test_no_result_before_running(self, tiny_scenario):
        wrangler = Wrangler()
        wrangler.add_source(tiny_scenario.rightmove)
        wrangler.set_target_schema(tiny_scenario.target)
        assert wrangler.result() is None
        assert wrangler.selected_mapping() is None
        assert wrangler.evaluate() is None

    def test_target_schema_required_for_result_name(self):
        with pytest.raises(ValueError):
            Wrangler().result_name()

    def test_trace_is_browsable(self, tiny_scenario):
        wrangler = Wrangler()
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        wrangler.run("bootstrap")
        text = wrangler.trace.to_text()
        assert "schema_matching" in text
        assert wrangler.trace.summary()["by_phase"]["bootstrap"] > 0

    def test_runs_are_idempotent_without_new_information(self, tiny_scenario):
        wrangler = Wrangler()
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        first = wrangler.run("bootstrap")
        second = wrangler.run("again")
        assert first.steps_executed > 0
        assert second.steps_executed == 0

    def test_manual_actions_counts_interactions(self, tiny_scenario):
        wrangler = Wrangler()
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        base = wrangler.manual_actions()
        assert base == 4  # three sources + one target schema
        wrangler.run("bootstrap")
        wrangler.add_reference_data(tiny_scenario.address_reference)
        assert wrangler.manual_actions() >= base + 1


class TestWranglerPayAsYouGo:
    def test_data_context_triggers_dormant_transducers(self, tiny_scenario):
        wrangler = Wrangler()
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        wrangler.run("bootstrap")
        ran_before = set(wrangler.trace.execution_counts())
        assert "instance_matching" not in ran_before
        assert "cfd_learning" not in ran_before

        wrangler.add_reference_data(tiny_scenario.address_reference)
        outcome = wrangler.run("data_context")
        ran_after = set(wrangler.trace.execution_counts())
        assert "instance_matching" in ran_after
        assert "cfd_learning" in ran_after
        assert outcome.steps_executed > 0
        assert wrangler.kb.count(Predicates.CFD) > 0

    def test_feedback_triggers_mapping_evaluation(self, tiny_scenario):
        wrangler = Wrangler()
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        wrangler.run("bootstrap")
        added = wrangler.simulate_feedback(tiny_scenario.ground_truth, budget=20, seed=2)
        assert added > 0
        wrangler.run("feedback")
        counts = wrangler.trace.execution_counts()
        assert counts.get("mapping_evaluation", 0) >= 1
        assert counts.get("feedback_repair", 0) >= 1

    def test_user_context_changes_weights_and_reselects(self, tiny_scenario):
        wrangler = Wrangler()
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        wrangler.run("bootstrap")
        selections_before = wrangler.trace.execution_counts().get("mapping_selection", 0)
        context = UserContext()
        context.prefer(COMPLETENESS("crimerank"), ACCURACY("type"), "very strongly")
        context.prefer(CONSISTENCY(), COMPLETENESS("bedrooms"), "strongly")
        wrangler.set_user_context(context)
        wrangler.run("user_context")
        assert wrangler.kb.count(Predicates.CRITERION_WEIGHT) > 0
        selections_after = wrangler.trace.execution_counts().get("mapping_selection", 0)
        assert selections_after > selections_before

    def test_manual_feedback_api(self, tiny_scenario):
        wrangler = Wrangler()
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        wrangler.run("bootstrap")
        result = wrangler.result()
        row_key = result[0][PROVENANCE_ROW_ID]
        wrangler.feedback_on_attribute(str(row_key), "bedrooms", correct=False)
        wrangler.feedback_on_tuple(str(row_key), correct=True)
        assert wrangler.kb.count(Predicates.FEEDBACK) == 2

    def test_custom_policy_is_used(self, tiny_scenario):
        wrangler = Wrangler(policy=PreferInstanceMatchingPolicy())
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        wrangler.add_reference_data(tiny_scenario.address_reference)
        wrangler.run("all_at_once")
        counts = wrangler.trace.execution_counts()
        assert counts.get("instance_matching", 0) >= 1

    def test_web_source_path(self, tiny_scenario):
        wrangler = Wrangler()
        pages = tiny_scenario.web_pages()
        wrangler.add_web_source("rightmove", pages["rightmove"])
        wrangler.add_web_source("onthemarket", pages["onthemarket"])
        wrangler.add_source(tiny_scenario.deprivation)
        wrangler.set_target_schema(tiny_scenario.target)
        outcome = wrangler.run("bootstrap")
        assert wrangler.trace.execution_counts().get("data_extraction", 0) == 1
        assert wrangler.kb.has_table("rightmove")
        assert outcome.row_count > 0

    def test_candidate_mappings_exposed(self, tiny_scenario):
        wrangler = Wrangler()
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        wrangler.run("bootstrap")
        candidates = wrangler.candidate_mappings()
        assert len(candidates) >= 3
        assert any(mapping.kind == "union" for mapping in candidates)


class TestEvaluationContext:
    """A result is scored against its own target's data context, alike by
    its metric facts, the maintained statistics and a rescan."""

    @staticmethod
    def assert_scored_alike(wrangler):
        report = wrangler.evaluate()
        assert report.as_dict() == wrangler.evaluate(use_stats=False).as_dict()
        facts = {
            criterion: value
            for _kind, relation, criterion, value in wrangler.kb.facts(Predicates.METRIC)
            if relation == wrangler.result_name()
        }
        assert facts == {name: round(value, 6) for name, value in report.as_dict().items()}

    def test_result_ignores_another_targets_reference(self, tiny_scenario):
        wrangler = Wrangler()
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        # A second target sorts first and is bound to a reference whose
        # every street is wrong; the property result must not be scored
        # against it.
        other = Schema("aaa_other", [Attribute("street", DataType.STRING),
                                     Attribute("postcode", DataType.STRING)])
        wrangler.kb.describe_schema(other, Predicates.ROLE_TARGET)
        address = tiny_scenario.address_reference
        street = address.schema.position("street")
        bad = address.rename("aaa_bad_ref").replace_rows([
            row[:street] + (f"Nowhere {number}",) + row[street + 1:]
            for number, row in enumerate(address.tuples())
        ])
        wrangler.add_reference_data(bad, target_relation="aaa_other")
        wrangler.add_reference_data(address, target_relation="property")
        wrangler.run("all", evaluate=False)
        assert wrangler.evaluate().accuracy > 0.5
        self.assert_scored_alike(wrangler)

        annotations = simulate_feedback(
            wrangler.result(), tiny_scenario.ground_truth, ("postcode", "price"),
            budget=5, seed=1, strategy="targeted",
        )
        outcome = wrangler.session().feedback(
            FeedbackRequest(annotations=tuple(annotations), incremental=True, evaluate=False)
        ).incremental
        assert outcome["applied"], outcome["reason"]
        assert wrangler.result_name() in outcome["metrics_patched"]
        self.assert_scored_alike(wrangler)

    def test_metric_facts_follow_a_rerepaired_result(self):
        # The data-context phase re-materialises the result, scores it and
        # then repairs it again, rewriting cells without a new repair fact:
        # the repair itself must bring the metric facts along.
        scenario = generate_synthetic(
            SynthConfig(family="shipment_tracking", entities=300, seed=0)
        )
        self.assert_scored_alike(_prepare(scenario, WranglerConfig()))

    def test_metric_facts_follow_a_full_feedback_round(self):
        scenario = generate_synthetic(SynthConfig(family="sensor_log", entities=60, seed=0))
        wrangler = _prepare(scenario, WranglerConfig())
        wrangler.add_feedback(simulate_feedback(
            wrangler.result(), scenario.ground_truth, scenario.evaluation_key,
            budget=10, seed=1, strategy="targeted",
        ))
        wrangler.run("feedback", evaluate=False)
        self.assert_scored_alike(wrangler)

    @pytest.mark.parametrize("family", family_names())
    def test_ground_truth_evaluation_scans_against_the_ground_truth(self, family):
        scenario = generate_synthetic(SynthConfig(family=family, entities=60, seed=2))
        wrangler = _prepare(scenario, WranglerConfig())
        result, truth = wrangler.result(), scenario.ground_truth
        learned = wrangler.kb.get_artifact(CFD_ARTIFACT_KEY)
        shared = [k for k in scenario.evaluation_key if k in result.schema and k in truth.schema]
        expected = build_stats(
            result,
            reference=truth,
            reference_key=shared,
            cfds=[cfd for cfd in learned.cfds if cfd.rhs in result.schema],
            witnesses=learned.witnesses,
            master=truth,
            master_key=shared,
        ).finalise()
        report = wrangler.evaluate(ground_truth=truth, key=scenario.evaluation_key)
        assert report == expected
