"""Tests for the incremental re-wrangling engine (`repro.incremental`)."""

from __future__ import annotations

import dataclasses
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.facts import Feedback, Predicates
from repro.core.knowledge_base import KnowledgeBase
from repro.feedback.annotations import simulate_feedback
from repro.incremental import ChangeSet, FeedbackDelta, SourceRowsDelta, cluster_map, resolve
from repro.incremental.state import IncrementalState, RelationState
from repro.incremental.validate import _prepare, check_appends, check_incremental
from repro.mapping.generation import MappingGenerator
from repro.mapping.model import AttributeAssignment, JoinCondition, SchemaMapping
from repro.mapping.transducers import (
    BASE_SCORES_ARTIFACT_KEY,
    MappingGenerationTransducer,
    score_candidates,
)
from repro.provenance.feedback import LineageFeedbackPropagator
from repro.quality import stats as quality_stats
from repro.relational.catalog import Catalog
from repro.relational.schema import Attribute, Schema
from repro.relational.table import Table
from repro.relational.types import DataType
from repro.scenarios.synth import SynthConfig, generate_synthetic
from repro.service.api import AppendRequest, FeedbackRequest, SimulateRequest
from repro.service.session import WranglingSession
from repro.wrangler.config import WranglerConfig
from repro.wrangler.pipeline import Wrangler, build_default_registry


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


def assert_scores_rescored(wrangler):
    """The ``mapping_score`` facts equal a from-scratch re-score, exactly."""
    facts = sorted(wrangler.kb.facts(Predicates.MAPPING_SCORE))
    assert facts == sorted(args for _predicate, args in score_candidates(wrangler.kb))


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

    def test_lookup_append_reads_coerced_join_keys(self):
        # An INTEGER join key appended as "7" is stored as 7. Resolution must
        # look up the stored value, or the driving row that now joins keeps
        # the NULLs a full run would fill.
        orders = Table(
            Schema("orders", [Attribute("order_id", DataType.STRING),
                              Attribute("customer_id", DataType.INTEGER)]),
            [("o0", 7), ("o1", 1)],
        )
        customers = Table(
            Schema("customers", [Attribute("customer_id", DataType.INTEGER),
                                 Attribute("name", DataType.STRING)]),
            [(1, "ann")],
        )
        appended = (("7", "bob"),)
        catalog = Catalog()
        catalog.register(orders)
        catalog.register(customers.extend(appended))
        leaf = SchemaMapping(
            "m_join_orders_customers",
            "order",
            "join",
            sources=("orders", "customers"),
            assignments=(
                AttributeAssignment("order_id", "orders", "order_id"),
                AttributeAssignment("name", "customers", "name"),
            ),
            join_conditions=(JoinCondition("orders", "customer_id", "customers", "customer_id"),),
        )
        state = IncrementalState()
        state.relations["order_result"] = RelationState(
            "order_result", order=["orders:0", "orders:1"]
        )
        change_set = ChangeSet((SourceRowsDelta("customers", appended=appended),))
        dirty = resolve(change_set, state, {"order_result": leaf}, catalog)
        assert dirty["order_result"].rematerialise == {"orders:0"}


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


def held_back(config: SynthConfig, rows: int):
    """A scenario with the last ``rows`` rows of every source held back."""
    scenario = generate_synthetic(config)
    held: dict[str, list[tuple]] = {}
    sources = []
    for table in scenario.sources:
        kept = table.tuples()
        held[table.name] = kept[len(kept) - rows:]
        sources.append(table.replace_rows(kept[: len(kept) - rows]))
    return dataclasses.replace(scenario, sources=sources), held


class TestAppendsAfterFeedback:
    """An append wakes only the transducers whose inputs it changed: the
    schema matcher must not re-assert its pre-feedback match scores."""

    def test_append_after_feedback_matches_full_rerun(self):
        scenario, held = held_back(
            SynthConfig(family="shipment_tracking", entities=60, seed=0), rows=5
        )
        incremental = _prepare(scenario, WranglerConfig())
        full = _prepare(scenario, WranglerConfig())
        annotations = simulate_feedback(
            full.result(), scenario.ground_truth, scenario.evaluation_key,
            budget=6, seed=1, strategy="targeted",
        )
        assert feedback(incremental, annotations, incremental=True).incremental["applied"]
        full.add_feedback(annotations)
        full.run("feedback")
        for relation, rows in sorted(held.items()):
            result = append(incremental, relation, rows, incremental=True)
            assert result.incremental["applied"], result.incremental["reason"]
            append(full, relation, rows, incremental=False)
            assert tables_equal(incremental.result(), full.result())
            assert sorted(incremental.kb.facts(Predicates.MATCH)) == sorted(
                full.kb.facts(Predicates.MATCH)
            )


class TestDeregisteredComponents:
    """A pipeline without a component the patch stands in for is patched by
    nobody: the engine falls back, and the full run is the reference."""

    @staticmethod
    def prepare(scenario, dropped):
        registry = build_default_registry()
        registry.deregister(dropped)
        wrangler = Wrangler(registry=registry)
        scenario.install(wrangler)
        wrangler.run("bootstrap", evaluate=False)
        wrangler.add_reference_data(scenario.reference)
        if scenario.master is not None:
            wrangler.add_master_data(scenario.master)
        wrangler.run("data_context", evaluate=False)
        return wrangler

    @pytest.mark.parametrize("dropped", ["data_repair", "data_fusion"])
    @pytest.mark.parametrize("family", ["product_catalog", "real_estate"])
    def test_feedback_rounds_equal_full_runs(self, family, dropped):
        scenario = generate_synthetic(SynthConfig(family=family, entities=40, seed=0))
        incremental, full = self.prepare(scenario, dropped), self.prepare(scenario, dropped)
        for round_number in (1, 2):
            annotations = simulate_feedback(
                full.result(), scenario.ground_truth, scenario.evaluation_key,
                budget=8, seed=round_number, strategy="targeted", id_prefix=f"d{round_number}",
            )
            outcome = feedback(incremental, annotations, incremental=True).incremental
            full.add_feedback(annotations)
            full.run("feedback")
            assert tables_equal(incremental.result(), full.result())
            assert not outcome["applied"] and dropped in outcome["reason"]


class TestRefusedClusterLineage:
    def test_appended_duplicate_keeps_member_lineage(self):
        # The appended rows pair with members of existing clusters, whose
        # lineage an earlier merge folded into the survivor; the re-fused
        # survivors must still carry every member's witnesses.
        scenario, held = held_back(
            SynthConfig(family="product_catalog", entities=30, seed=0), rows=5
        )
        incremental = _prepare(scenario, WranglerConfig())
        full = _prepare(scenario, WranglerConfig())
        refused = 0
        for relation, rows in sorted(held.items()):
            result = append(incremental, relation, rows, incremental=True, evaluate=False)
            assert result.incremental["applied"], result.incremental["reason"]
            refused += result.incremental["clusters_refused"]
            append(full, relation, rows, incremental=False, evaluate=False)
        assert refused > 0
        assert tables_equal(incremental.result(), full.result())
        relation = incremental.result_name()
        assert dict(incremental.provenance.iter_tuples(relation)) == dict(
            full.provenance.iter_tuples(relation)
        )


class TestLookupAppendJoinShapes:
    """A new lookup row that matches driving rows which had no partner, under
    the generated join conditions and under reversed (lookup-first) ones:
    the patch equals a full re-run and the candidates' scores equal a
    from-scratch re-score."""

    HELD = 3

    def scenario(self, seed: int):
        """shipment_tracking with the last depots held back (shipments that
        reference them have no partner until the append)."""
        scenario = generate_synthetic(
            SynthConfig(family="shipment_tracking", entities=120, seed=seed)
        )
        sources = list(scenario.sources)
        position = next(i for i, table in enumerate(sources) if table.name == "depots")
        rows = sources[position].tuples()
        sources[position] = sources[position].replace_rows(rows[: -self.HELD])
        return dataclasses.replace(scenario, sources=sources), rows[-self.HELD:]

    def check_append(self, incremental, full, held):
        result = append(incremental, "depots", held, incremental=True)
        append(full, "depots", held, incremental=False)
        assert result.incremental["applied"], result.incremental["reason"]
        assert result.incremental["rows_rematerialised"] > 0
        assert tables_equal(incremental.result(), full.result())
        for session in (incremental, full):
            assert_scores_rescored(session)
        fast, slow = incremental.evaluate(), incremental.evaluate(use_stats=False)
        assert fast.as_dict() == slow.as_dict() == full.evaluate(use_stats=False).as_dict()

    @pytest.mark.parametrize("seed", [0, 3])
    def test_new_depot_fills_rows_without_partner(self, seed):
        scenario, held = self.scenario(seed)
        incremental = _prepare(scenario, WranglerConfig())
        full = _prepare(scenario, WranglerConfig())
        assert "depots" in incremental.selected_mapping().all_sources()
        self.check_append(incremental, full, held)

    def test_reversed_join_conditions(self):
        scenario, held = self.scenario(1)

        def prepare():
            registry = build_default_registry(WranglerConfig())
            registry.register(ReversedJoinGeneration(), replace=True)
            wrangler = Wrangler(registry=registry)
            scenario.install(wrangler)
            wrangler.run("bootstrap", evaluate=False)
            wrangler.add_reference_data(scenario.reference)
            wrangler.run("data_context", evaluate=False)
            return wrangler

        incremental, full = prepare(), prepare()
        leaves = incremental.selected_mapping().leaf_mappings()
        reversed_leaves = [
            leaf for leaf in leaves
            if leaf.kind == "join" and leaf.join_conditions[0].right_relation == leaf.sources[0]
        ]
        assert reversed_leaves, "expected the selected mapping to join depots"
        self.check_append(incremental, full, held)


class ReversedJoinGeneration(MappingGenerationTransducer):
    """Mapping generation writing every join condition lookup-first."""

    def __init__(self):
        super().__init__()
        self._generator = ReversedJoinGenerator()


class ReversedJoinGenerator(MappingGenerator):
    def generate(self, *args, **kwargs):
        return [self.reverse(mapping) for mapping in super().generate(*args, **kwargs)]

    def reverse(self, mapping):
        if mapping.kind == "union":
            return dataclasses.replace(
                mapping, children=tuple(self.reverse(child) for child in mapping.children)
            )
        return dataclasses.replace(
            mapping,
            join_conditions=tuple(
                JoinCondition(c.right_relation, c.right_attribute, c.left_relation,
                              c.left_attribute)
                for c in mapping.join_conditions
            ),
        )


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


class TestValidateHarness:
    def test_check_incremental_reports_equal_rounds(self):
        report = check_incremental(
            SynthConfig(family="sensor_log", entities=90, seed=1), rounds=2, budget=4
        )
        assert report.ok, report.describe()
        assert len(report.rounds) == 2
        assert report.patched_rounds >= 1
        assert report.speedup() > 0

    def test_check_appends_reports_equal_rounds(self):
        report = check_appends(
            SynthConfig(family="shipment_tracking", entities=90, seed=2), rounds=2, rows=5
        )
        assert report.ok, report.describe()
        assert len(report.rounds) == 2
        assert report.patched_rounds >= 1

    def test_validate_cli_append_contract_passes(self, capsys):
        from repro.incremental.validate import main

        code = main(
            [
                "--family", "sensor_log", "--entities", "80", "--rounds", "1",
                "--budget", "4", "--check", "--contract", "append",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "EQUAL" in output and "rows appended" in output

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


class TestCandidateScoreCache:
    def test_feedback_rounds_reuse_every_leaf(self):
        scenario = generate_synthetic(
            SynthConfig(family="shipment_tracking", entities=90, seed=4)
        )
        session = WranglingSession(_prepare(scenario, WranglerConfig()), scenario=scenario)
        kb = session.wrangler.kb
        cache = kb.get_artifact(BASE_SCORES_ARTIFACT_KEY)["caches"]["shipment"]
        versions = cache.last_version
        for seed in (1, 2, 3):
            session.handle(SimulateRequest(budget=5, seed=seed))
            assert_scores_rescored(session.wrangler)
        # Same context, same leaves: no leaf was patched or rebuilt.
        assert kb.get_artifact(BASE_SCORES_ARTIFACT_KEY)["caches"]["shipment"] is cache
        assert cache.last_version == versions

    def test_append_and_feedback_rounds_build_no_context_index(self, monkeypatch):
        scenario = generate_synthetic(
            SynthConfig(family="shipment_tracking", entities=90, seed=4)
        )
        depots = next(table for table in scenario.sources if table.name == "depots")
        held = depots.tuples()[-5:]
        scenario = dataclasses.replace(scenario, sources=[
            table.replace_rows(table.tuples()[:-5]) if table is depots else table
            for table in scenario.sources
        ])
        wrangler = _prepare(scenario, WranglerConfig())
        annotations = simulate_feedback(
            wrangler.result(), scenario.ground_truth, scenario.evaluation_key,
            budget=5, seed=1, strategy="targeted",
        )
        builds = []

        def counted(name):
            original = getattr(quality_stats, name)

            def build(*args):
                builds.append(name)
                return original(*args)
            return build

        for name in ("build_reference_index", "build_master_keys"):
            monkeypatch.setattr(quality_stats, name, counted(name))
        # A lookup append rebuilds the join leaves that read it, in the
        # context the cache kept, indexes included.
        result = append(wrangler, "depots", held, incremental=True, evaluate=False)
        assert result.incremental["applied"], result.incremental["reason"]
        result = feedback(wrangler, annotations, incremental=True, evaluate=False)
        assert result.incremental["applied"], result.incremental["reason"]
        assert builds == []


class TestCachedScoresProperty:
    """Candidate scoring keeps per-leaf statistics across requests: after any
    sequence of appends (to driving or lookup sources), feedback rounds and
    checkpoint/restores, every ``mapping_score`` fact equals a from-scratch
    re-score as an exact float."""

    MAX_STEPS = 4
    MAX_ROWS = 10

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        family=st.sampled_from(
            ["product_catalog", "sensor_log", "org_directory", "shipment_tracking", "real_estate"]
        ),
        seed=st.integers(min_value=0, max_value=10_000),
        entities=st.integers(min_value=50, max_value=120),
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.just("append"),
                    st.integers(min_value=0, max_value=99),
                    st.integers(min_value=0, max_value=MAX_ROWS),
                ),
                st.tuples(
                    st.just("feedback"),
                    st.integers(min_value=0, max_value=1 << 20),
                    st.integers(min_value=1, max_value=6),
                ),
                st.tuples(st.just("restore"), st.just(0), st.just(0)),
            ),
            min_size=1,
            max_size=MAX_STEPS,
        ),
    )
    def test_cached_scores_equal_a_from_scratch_rescore(self, family, seed, entities, steps):
        scenario = generate_synthetic(SynthConfig(family=family, entities=entities, seed=seed))
        held: dict[str, list[tuple]] = {}
        sources = []
        for table in scenario.sources:
            rows = table.tuples()
            count = min(self.MAX_STEPS * self.MAX_ROWS, len(rows) // 2)
            held[table.name] = rows[len(rows) - count :]
            sources.append(table.replace_rows(rows[: len(rows) - count]))
        scenario = dataclasses.replace(scenario, sources=sources)
        session = WranglingSession(_prepare(scenario, WranglerConfig()), scenario=scenario)
        assert_scores_rescored(session.wrangler)
        relations = sorted(held)
        with tempfile.TemporaryDirectory() as directory:
            for kind, pick, amount in steps:
                if kind == "append":
                    relation = relations[pick % len(relations)]
                    rows, held[relation] = held[relation][:amount], held[relation][amount:]
                    session.handle(AppendRequest(relation=relation, rows=tuple(rows)))
                elif kind == "feedback":
                    session.handle(SimulateRequest(budget=amount, seed=pick))
                else:
                    path = os.path.join(directory, "session.ckpt")
                    session.checkpoint(path)
                    session = WranglingSession.restore(path)
                assert_scores_rescored(session.wrangler)
