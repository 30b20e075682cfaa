"""Tests for the end-to-end provenance subsystem (`repro.provenance`)."""

from __future__ import annotations

import pickle

import pytest

from repro.core import KnowledgeBase, Predicates
from repro.fusion.duplicates import DuplicatePair, cluster_row_keys
from repro.fusion.fusion import DataFuser, FusionPolicy
from repro.mapping.execution import MappingExecutor
from repro.mapping.model import AttributeAssignment, JoinCondition, SchemaMapping
from repro.provenance import (
    LineageFeedbackPropagator,
    ProvenanceStore,
    SourceRef,
    explain,
    provenance_store,
    render_lineage,
)
from repro.quality.cfd import CFD
from repro.quality.repair import CFDRepairer
from repro.relational import Attribute, Catalog, DataType, Schema, Table
from repro.wrangler.pipeline import Wrangler

TARGET = Schema("item", [
    Attribute("name", DataType.STRING),
    Attribute("price", DataType.FLOAT),
    Attribute("origin", DataType.STRING),
])

RESULT_SCHEMA = Schema("item_result", [
    Attribute("name", DataType.STRING),
    Attribute("price", DataType.FLOAT),
    Attribute("origin", DataType.STRING),
    Attribute("_source", DataType.STRING),
    Attribute("_row_id", DataType.STRING),
])


def catalog_with_sources() -> Catalog:
    catalog = Catalog()
    catalog.register(Table(Schema("shop_a", [
        Attribute("title", DataType.STRING),
        Attribute("cost", DataType.FLOAT),
    ]), [("widget", 10.0), ("gadget", 20.0)]))
    catalog.register(Table(Schema("makers", [
        Attribute("title", DataType.STRING),
        Attribute("country", DataType.STRING),
    ]), [("widget", "DE"), ("sprocket", "FR")]))
    return catalog


def direct_mapping() -> SchemaMapping:
    return SchemaMapping(
        mapping_id="m_direct_shop_a",
        target_relation="item",
        kind="direct",
        sources=("shop_a",),
        assignments=(
            AttributeAssignment("name", "shop_a", "title"),
            AttributeAssignment("price", "shop_a", "cost"),
        ),
    )


def join_mapping() -> SchemaMapping:
    return SchemaMapping(
        mapping_id="m_join_shop_a_makers",
        target_relation="item",
        kind="join",
        sources=("shop_a", "makers"),
        assignments=(
            AttributeAssignment("name", "shop_a", "title"),
            AttributeAssignment("price", "shop_a", "cost"),
            AttributeAssignment("origin", "makers", "country"),
        ),
        join_conditions=(JoinCondition("shop_a", "title", "makers", "title"),),
    )


class TestProvenanceStore:
    def test_ref_interning(self):
        store = ProvenanceStore()
        assert store.ref("s", "s:1") is store.ref("s", "s:1")

    def test_cell_sources_interning(self):
        store = ProvenanceStore()
        first = store.intern_cell_sources({"a": "s", "b": "t"})
        second = store.intern_cell_sources({"b": "t", "a": "s"})
        assert first is second

    def test_disabled_store_records_nothing(self):
        store = ProvenanceStore(enabled=False)
        store.record_tuple("r", "k", operator="mapping",
                           witnesses=(frozenset((SourceRef("s", "s:0"),)),))
        store.record_cell("r", "k", "a", operator="repair")
        store.merge_tuples("r", "k", ["j"])
        store.record_drop("r", "k", reason="x")
        assert store.tracked_count() == 0
        assert store.stats()["tuples"] == 0

    def test_merge_unions_witnesses_and_drops_members(self):
        store = ProvenanceStore()
        left = frozenset((store.ref("s", "s:0"),))
        right = frozenset((store.ref("t", "t:4"),))
        store.record_tuple("r", "a", operator="mapping", witnesses=(left,), mapping_id="m1")
        store.record_tuple("r", "b", operator="mapping", witnesses=(right,), mapping_id="m1")
        store.merge_tuples("r", "a", ["b"])
        lineage = store.tuple_lineage("r", "a")
        assert lineage.witnesses == frozenset((left, right))
        assert lineage.operator == "fusion"
        assert store.tuple_lineage("r", "b") is None
        assert "b" in store.dropped("r")

    def test_why_and_contributing_sources(self):
        store = ProvenanceStore()
        witness = frozenset((store.ref("s", "s:0"), store.ref("t", "t:1")))
        store.record_tuple("r", "k", operator="mapping", witnesses=(witness,),
                           cell_sources={"name": "s", "origin": "t"})
        assert store.contributing_sources("r", "k") == {"s", "t"}
        assert store.contributing_sources("r", "k", "origin") == {"t"}
        assert store.why("r", "k", "name") == frozenset((frozenset((store.ref("s", "s:0"),)),))

    def test_pickle_roundtrip(self):
        store = ProvenanceStore()
        store.record_tuple("r", "k", operator="mapping",
                           witnesses=(frozenset((store.ref("s", "s:0"),)),),
                           mapping_id="m1", cell_sources={"a": "s"})
        restored = pickle.loads(pickle.dumps(store))
        assert restored.tuple_lineage("r", "k").mapping_id == "m1"
        assert restored.contributing_sources("r", "k", "a") == {"s"}


class TestMappingExecutionLineage:
    def test_direct_rows_record_single_witness(self):
        store = ProvenanceStore()
        executor = MappingExecutor(catalog_with_sources(), provenance=store)
        table = executor.execute(direct_mapping(), TARGET, result_name="item_result")
        lineage = store.tuple_lineage("item_result", "shop_a:0")
        assert lineage.mapping_id == "m_direct_shop_a"
        assert lineage.witnesses == frozenset((frozenset((SourceRef("shop_a", "shop_a:0"),)),))
        assert table.row_keys() == ["shop_a:0", "shop_a:1"]

    def test_empty_lineage_constant_for_unassigned_attribute(self):
        # ``origin`` has no assignment in the direct mapping: the cell is a
        # padded NULL constant whose why-provenance is the empty witness set.
        store = ProvenanceStore()
        executor = MappingExecutor(catalog_with_sources(), provenance=store)
        table = executor.execute(direct_mapping(), TARGET, result_name="item_result")
        assert table[0]["origin"] is None
        cell = store.cell_lineage("item_result", "shop_a:0", "origin")
        assert cell.witnesses == frozenset()
        assert store.contributing_sources("item_result", "shop_a:0", "origin") == set()

    def test_join_rows_record_joined_witness_and_cell_sources(self):
        store = ProvenanceStore()
        executor = MappingExecutor(catalog_with_sources(), provenance=store)
        executor.execute(join_mapping(), TARGET, result_name="item_result")
        lineage = store.tuple_lineage("item_result", "shop_a:0")
        assert lineage.all_refs() == {SourceRef("shop_a", "shop_a:0"),
                                      SourceRef("makers", "makers:0")}
        # The joined-in attribute is attributed to the lookup source alone.
        assert store.contributing_sources("item_result", "shop_a:0", "origin") == {"makers"}
        assert store.contributing_sources("item_result", "shop_a:0", "price") == {"shop_a"}

    def test_unjoined_row_has_empty_cell_lineage_for_joined_attribute(self):
        # "gadget" has no maker: left-outer semantics keep the row, the
        # joined attribute stays NULL with no witness.
        store = ProvenanceStore()
        executor = MappingExecutor(catalog_with_sources(), provenance=store)
        table = executor.execute(join_mapping(), TARGET, result_name="item_result")
        assert table[1]["origin"] is None
        assert store.contributing_sources("item_result", "shop_a:1", "origin") == set()

    def test_rematerialisation_replaces_lineage(self):
        store = ProvenanceStore()
        executor = MappingExecutor(catalog_with_sources(), provenance=store)
        executor.execute(join_mapping(), TARGET, result_name="item_result")
        executor.execute(direct_mapping(), TARGET, result_name="item_result")
        lineage = store.tuple_lineage("item_result", "shop_a:0")
        assert lineage.mapping_id == "m_direct_shop_a"
        assert lineage.all_refs() == {SourceRef("shop_a", "shop_a:0")}


class TestFusionLineage:
    def fused_table(self, store: ProvenanceStore):
        table = Table(RESULT_SCHEMA, [
            ("widget", 10.0, "DE", "shop_a", "shop_a:0"),
            ("widget", 12.0, None, "shop_b", "shop_b:0"),
            ("gadget", 20.0, None, "shop_a", "shop_a:1"),
        ])
        for key, source in (("shop_a:0", "shop_a"), ("shop_b:0", "shop_b"),
                            ("shop_a:1", "shop_a")):
            store.record_tuple(
                "item_result", key, operator="mapping",
                witnesses=(frozenset((store.ref(source, key),)),),
                mapping_id="m_union", cell_sources={"name": source, "price": source,
                                                    "origin": source})
        fuser = DataFuser(attribute_policies={"price": FusionPolicy.MIN})
        pairs = [DuplicatePair(0, 1, 0.99)]
        return fuser.fuse(table, pairs, provenance=store)

    def test_fused_duplicates_merge_witnesses(self):
        store = ProvenanceStore()
        result = self.fused_table(store)
        assert result.rows_removed == 1
        lineage = store.tuple_lineage("item_result", "shop_a:0")
        assert lineage.operator == "fusion"
        # One why-provenance witness per merged duplicate.
        assert len(lineage.witnesses) == 2
        assert store.tuple_lineage("item_result", "shop_b:0") is None

    def test_conflicting_cell_blames_the_winning_source(self):
        store = ProvenanceStore()
        result = self.fused_table(store)
        # MIN policy: the 10.0 price from shop_a wins the conflict.
        assert result.table[0]["price"] == 10.0
        cell = store.cell_lineage("item_result", "shop_a:0", "price")
        assert cell.operator == "fusion"
        assert cell.detail == FusionPolicy.MIN
        assert cell.source_relations() == {"shop_a"}
        # The non-conflicting name is still supported by both duplicates.
        assert store.contributing_sources("item_result", "shop_a:0", "name") == {
            "shop_a", "shop_b"}

    def test_cluster_row_keys(self):
        table = Table(RESULT_SCHEMA, [
            ("widget", 10.0, "DE", "shop_a", "shop_a:0"),
            ("widget", 12.0, None, "shop_b", "shop_b:0"),
            ("gadget", 20.0, None, "shop_a", "shop_a:1"),
        ])
        clusters = cluster_row_keys(table, [DuplicatePair(0, 1, 0.99)])
        assert clusters == [["shop_a:0", "shop_b:0"]]


class TestRepairLineage:
    def test_repaired_cell_records_cfd_override(self):
        store = ProvenanceStore()
        table = Table(RESULT_SCHEMA, [
            ("widget", 10.0, "FR", "shop_a", "shop_a:0"),
        ])
        store.record_tuple("item_result", "shop_a:0", operator="mapping",
                           witnesses=(frozenset((store.ref("shop_a", "shop_a:0"),)),),
                           mapping_id="m1",
                           cell_sources={"name": "shop_a", "price": "shop_a",
                                         "origin": "shop_a"})
        cfd = CFD(cfd_id="c1", relation="item_result", lhs=("name",), rhs="origin",
                  lhs_pattern=(("name", "widget"),), rhs_pattern="DE",
                  support=1.0, confidence=1.0)
        repairer = CFDRepairer()
        result = repairer.repair(table, [cfd], provenance=store)
        assert result.repaired_cells == 1
        cell = store.cell_lineage("item_result", "shop_a:0", "origin")
        assert cell.operator == "repair"
        assert cell.detail == "c1:violation"
        # The repaired value no longer descends from the mapped source row.
        assert cell.witnesses == frozenset()
        # Untouched cells keep their mapping lineage.
        assert store.contributing_sources("item_result", "shop_a:0", "name") == {"shop_a"}


class TestExplain:
    def build_result(self):
        store = ProvenanceStore()
        catalog = catalog_with_sources()
        executor = MappingExecutor(catalog, provenance=store)
        table = executor.execute(join_mapping(), TARGET, result_name="item_result")
        return store, catalog, table

    def test_explain_cell_returns_source_rows_and_mapping(self):
        store, catalog, table = self.build_result()
        tree = explain(table, 0, "origin", store=store, catalog=catalog)
        assert tree.kind == "cell"
        assert tree.value == "DE"
        assert tree.mapping_id == "m_join_shop_a_makers"
        leaves = [node for node in tree.walk() if node.kind == "source"]
        assert [leaf.relation for leaf in leaves] == ["makers"]
        assert leaves[0].source_row == {"title": "widget", "country": "DE"}

    def test_explain_tuple_and_row_key_addressing(self):
        store, catalog, table = self.build_result()
        tree = explain(table, "shop_a:0", store=store, catalog=catalog)
        assert tree.kind == "tuple"
        assert tree.source_relations() == {"shop_a", "makers"}

    def test_render_lineage_mentions_sources_and_mapping(self):
        store, catalog, table = self.build_result()
        text = render_lineage(explain(table, 0, "origin", store=store, catalog=catalog))
        assert "m_join_shop_a_makers" in text
        assert "makers:0" in text
        assert "country='DE'" in text

    def test_explain_unknown_row_and_missing_lineage(self):
        store, catalog, table = self.build_result()
        with pytest.raises(KeyError):
            explain(table, 99, "origin", store=store)
        with pytest.raises(LookupError):
            explain(table, 0, store=ProvenanceStore())


class TestLineageFeedbackPropagation:
    def seeded_kb(self):
        kb = KnowledgeBase()
        store = provenance_store(kb)
        catalog = catalog_with_sources()
        executor = MappingExecutor(catalog, provenance=store)
        table = executor.execute(join_mapping(), TARGET, result_name="item_result")
        kb.catalog.register(table)
        kb.assert_fact(Predicates.RESULT, "item_result", "m_join_shop_a_makers", len(table))
        return kb, store

    def test_feedback_attributed_to_joined_source(self):
        kb, store = self.seeded_kb()
        kb.assert_fact(Predicates.FEEDBACK, "f1", "item_result", "shop_a:0",
                       "origin", Predicates.INCORRECT)
        propagation = LineageFeedbackPropagator().collect(kb, store)
        assert propagation.unattributed == []
        assert ("makers", "origin") in propagation.evidence
        assert ("shop_a", "origin") not in propagation.evidence
        assert propagation.evidence[("makers", "origin")].incorrect == 1

    def test_mapping_penalties_implicate_only_containing_mappings(self):
        kb, store = self.seeded_kb()
        kb.assert_fact(Predicates.FEEDBACK, "f1", "item_result", "shop_a:0",
                       "origin", Predicates.INCORRECT)
        candidates = {"m_join_shop_a_makers": join_mapping(),
                      "m_direct_shop_a": direct_mapping()}
        propagation = LineageFeedbackPropagator().collect(kb, store, candidates)
        assert propagation.implicated_mappings() == ["m_join_shop_a_makers"]

    def test_repaired_cell_blames_the_cfd_not_the_mapping(self):
        kb, store = self.seeded_kb()
        store.record_cell("item_result", "shop_a:0", "origin",
                          operator="repair", detail="c1:violation")
        kb.assert_fact(Predicates.FEEDBACK, "f1", "item_result", "shop_a:0",
                       "origin", Predicates.INCORRECT)
        propagation = LineageFeedbackPropagator().collect(kb, store)
        assert ("cfd:c1:violation", "origin") in propagation.evidence
        assert ("makers", "origin") not in propagation.evidence


class TestWranglerIntegration:
    @pytest.fixture(scope="class")
    def session(self, tiny_scenario):
        wrangler = Wrangler()
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        result = wrangler.run("bootstrap")
        return wrangler, result

    def test_explain_on_real_estate_cell(self, session):
        wrangler, result = session
        assert result.selected_mapping is not None
        # Find a row whose crimerank is populated: its lineage must name the
        # deprivation source row that supplied it.
        table = result.table
        index = next(i for i, row in enumerate(table.rows())
                     if row["crimerank"] is not None)
        tree = wrangler.explain(index, "crimerank")
        assert tree.mapping_id == result.selected_mapping.mapping_id
        leaves = [node for node in tree.walk() if node.kind == "source"]
        assert leaves, "expected contributing source rows"
        assert {leaf.relation for leaf in leaves} == {"deprivation"}
        assert leaves[0].source_row is not None
        rendered = wrangler.explain_text(index, "crimerank")
        assert "deprivation" in rendered

    def test_lineage_feedback_changes_only_implicated_mapping_scores(self, session,
                                                                     tiny_scenario):
        wrangler, result = session
        table = result.table
        index = next(i for i, row in enumerate(table.rows())
                     if row["crimerank"] is not None)
        row_key = table.row_key(index)
        before = {(mapping_id, criterion): value
                  for mapping_id, criterion, value
                  in wrangler.kb.facts(Predicates.MAPPING_SCORE)}
        implicated_sources = wrangler.explain(index, "crimerank").source_relations()
        assert implicated_sources == {"deprivation"}
        implicated = {mapping.mapping_id
                      for mapping in wrangler.candidate_mappings()
                      if any(assignment.source_relation in implicated_sources
                             and assignment.target_attribute == "crimerank"
                             for leaf in mapping.leaf_mappings()
                             for assignment in leaf.assignments)}
        wrangler.feedback_on_attribute(row_key, "crimerank", correct=False)
        wrangler.run("feedback")
        after = {(mapping_id, criterion): value
                 for mapping_id, criterion, value
                 in wrangler.kb.facts(Predicates.MAPPING_SCORE)}
        changed_mappings = {mapping_id
                            for (mapping_id, criterion) in set(before) | set(after)
                            if before.get((mapping_id, criterion))
                            != after.get((mapping_id, criterion))}
        assert changed_mappings, "feedback should revise some mapping scores"
        assert changed_mappings <= implicated, (
            f"only implicated mappings may change, got {changed_mappings - implicated}")

    def test_provenance_off_switch(self, tiny_scenario):
        from repro.wrangler.config import WranglerConfig

        wrangler = Wrangler(config=WranglerConfig(track_provenance=False))
        wrangler.add_sources(tiny_scenario.sources())
        wrangler.set_target_schema(tiny_scenario.target)
        result = wrangler.run("bootstrap")
        assert result.table is not None
        assert wrangler.provenance.tracked_count() == 0
        with pytest.raises(LookupError):
            wrangler.explain(0, "crimerank")


class TestStoreSizeStability:
    def test_record_tuple_revives_dropped_keys(self):
        store = ProvenanceStore()
        store.record_tuple("r", "k", operator="mapping",
                           witnesses=(frozenset((store.ref("s", "s:0"),)),))
        store.record_drop("r", "k", reason="merged away")
        assert "k" in store.dropped("r")
        store.record_tuple("r", "k", operator="mapping",
                           witnesses=(frozenset((store.ref("s", "s:0"),)),))
        # Patched rows replace their annotations: no lingering drop marker.
        assert "k" not in store.dropped("r")
        assert store.tuple_lineage("r", "k") is not None

    def test_store_size_stable_across_repeated_apply_feedback(self):
        """Repeated feedback rounds must not grow the lineage store: patched
        rows replace (not append to) their witness sets and drop markers."""
        from repro.feedback.annotations import simulate_feedback
        from repro.incremental.validate import _prepare
        from repro.scenarios.synth import SynthConfig, generate_synthetic
        from repro.service.api import FeedbackRequest
        from repro.wrangler.config import WranglerConfig

        scenario = generate_synthetic(
            SynthConfig(family="product_catalog", entities=120, seed=2))
        wrangler = _prepare(scenario, WranglerConfig())
        relation = wrangler.result_name()
        store = wrangler.provenance

        sizes = []
        for round_number in range(1, 5):
            annotations = simulate_feedback(
                wrangler.result(), scenario.ground_truth, scenario.evaluation_key,
                budget=6, seed=round_number, strategy="targeted",
                id_prefix=f"g{round_number}")
            wrangler.session().feedback(
                FeedbackRequest(annotations=tuple(annotations), incremental=True))
            stats = store.stats(relation)
            sizes.append((stats["tuples"], stats["cell_overrides"], stats["dropped"]))
        # The first round may add feedback overrides for newly annotated
        # cells; after that the store must be size-stable — patched rows
        # replace their witness sets and drop markers instead of appending.
        assert sizes[1] == sizes[2] == sizes[3], sizes
        tuples0, overrides0, dropped0 = sizes[0]
        tuples_n, overrides_n, dropped_n = sizes[-1]
        assert tuples_n <= tuples0
        assert overrides_n <= overrides0 + tuples0  # new feedback marks only
        assert dropped_n <= dropped0 + 1
        # And the tracked population still matches the table + merged rows.
        assert tuples_n <= len(wrangler.incremental.get(relation).order)


class TestBatchProvenance:
    def test_annotated_results_pickle_through_process_pool(self):
        from repro.scenarios.synth import SynthConfig
        from repro.wrangler.batch import BatchConfig, run_batch

        configs = [SynthConfig(family="product_catalog", entities=60, seed=3)]
        report = run_batch(configs, BatchConfig(executor="process", workers=1))
        [result] = report.results
        assert result.ok, result.error
        assert result.provenance is not None
        assert result.provenance["tuples"] == result.rows
        assert result.provenance["sources"]
        # The result (with its lineage summary) survives another pickle hop.
        restored = pickle.loads(pickle.dumps(result))
        assert restored.provenance == result.provenance
        assert restored.as_dict()["provenance"]["tuples"] == result.rows

    def test_batch_provenance_off_switch(self):
        from repro.scenarios.synth import SynthConfig
        from repro.wrangler.batch import BatchConfig, run_scenario
        from repro.wrangler.config import WranglerConfig

        config = SynthConfig(family="product_catalog", entities=60, seed=3)
        wrangler = WranglerConfig(enable_incremental=False, track_provenance=False)
        result = run_scenario(config, BatchConfig(executor="serial", wrangler=wrangler))
        assert result.ok, result.error
        assert result.provenance is None
