"""Unit tests for mapping model, generation, execution, selection and transducers."""

from __future__ import annotations

import pytest

from repro.core import KnowledgeBase, Predicates
from repro.mapping import (
    AttributeAssignment,
    JoinCondition,
    LeafStatsCache,
    MappingExecutor,
    MappingGenerationTransducer,
    MappingGenerator,
    MappingGeneratorConfig,
    MappingQualityTransducer,
    MappingScore,
    MappingScorer,
    MappingSelectionTransducer,
    MappingSelector,
    MAPPINGS_ARTIFACT_KEY,
    ResultMaterialisationTransducer,
    SchemaMapping,
    SourceSelectionTransducer,
    result_relation_name,
)
from repro.matching import Correspondence, MatchSet
from repro.relational import Attribute, Catalog, DataType, Schema, Table

TARGET = Schema("property", [
    Attribute("street", DataType.STRING),
    Attribute("postcode", DataType.STRING),
    Attribute("price", DataType.FLOAT),
    Attribute("crimerank", DataType.INTEGER),
])

RIGHTMOVE = Table(Schema("rightmove", [
    Attribute("street", DataType.STRING),
    Attribute("postcode", DataType.STRING),
    Attribute("price", DataType.FLOAT),
]), [
    ("Oak Street", "M1 1AA", 100000.0),
    ("Elm Road", "M5 3CC", 200000.0),
    ("Mill Lane", None, 150000.0),
])

ONTHEMARKET = Table(Schema("onthemarket", [
    Attribute("address_street", DataType.STRING),
    Attribute("post_code", DataType.STRING),
    Attribute("asking_price", DataType.FLOAT),
]), [
    ("Oak Street", "M1 1AA", 100000.0),
    ("Birch Close", "M4 4DD", 300000.0),
])

DEPRIVATION = Table(Schema("deprivation", [
    Attribute("postcode", DataType.STRING),
    Attribute("crime", DataType.INTEGER),
]), [
    ("M1 1AA", 10),
    ("M5 3CC", 25),
    ("M4 4DD", 5),
])


def full_matches() -> MatchSet:
    return MatchSet([
        Correspondence("rightmove", "street", "property", "street", 1.0),
        Correspondence("rightmove", "postcode", "property", "postcode", 1.0),
        Correspondence("rightmove", "price", "property", "price", 1.0),
        Correspondence("onthemarket", "address_street", "property", "street", 0.8),
        Correspondence("onthemarket", "post_code", "property", "postcode", 0.85),
        Correspondence("onthemarket", "asking_price", "property", "price", 0.9),
        Correspondence("deprivation", "postcode", "property", "postcode", 1.0),
        Correspondence("deprivation", "crime", "property", "crimerank", 0.9),
    ])


def make_catalog() -> Catalog:
    catalog = Catalog()
    for table in (RIGHTMOVE, ONTHEMARKET, DEPRIVATION):
        catalog.register(table)
    return catalog


def direct_rightmove() -> SchemaMapping:
    return SchemaMapping(
        mapping_id="m_direct_rightmove",
        target_relation="property",
        kind="direct",
        sources=("rightmove",),
        assignments=(
            AttributeAssignment("street", "rightmove", "street", 1.0),
            AttributeAssignment("postcode", "rightmove", "postcode", 1.0),
            AttributeAssignment("price", "rightmove", "price", 1.0),
        ),
    )


def join_rightmove_deprivation() -> SchemaMapping:
    return SchemaMapping(
        mapping_id="m_join",
        target_relation="property",
        kind="join",
        sources=("rightmove", "deprivation"),
        assignments=(
            AttributeAssignment("street", "rightmove", "street", 1.0),
            AttributeAssignment("postcode", "rightmove", "postcode", 1.0),
            AttributeAssignment("price", "rightmove", "price", 1.0),
            AttributeAssignment("crimerank", "deprivation", "crime", 0.9),
        ),
        join_conditions=(JoinCondition("rightmove", "postcode", "deprivation", "postcode"),),
    )


class TestMappingModel:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            SchemaMapping("m", "t", "weird")
        with pytest.raises(ValueError):
            SchemaMapping("m", "t", "union", children=(direct_rightmove(),))
        with pytest.raises(ValueError):
            SchemaMapping("m", "t", "join", sources=("a",),
                          assignments=(AttributeAssignment("x", "a", "x"),))
        with pytest.raises(ValueError):
            SchemaMapping("m", "t", "direct", sources=("a",))

    def test_coverage_and_sources(self):
        union = SchemaMapping("m_union", "property", "union",
                              children=(direct_rightmove(), join_rightmove_deprivation()))
        assert union.covered_attributes() == {"street", "postcode", "price", "crimerank"}
        assert union.all_sources() == {"rightmove", "deprivation"}
        assert len(union.leaf_mappings()) == 2
        assert len(union.assignments_for_attribute("street")) == 2

    def test_mean_match_score(self):
        assert join_rightmove_deprivation().mean_match_score() == pytest.approx(0.975)

    def test_to_vadalog_renders_rules(self):
        text = join_rightmove_deprivation().to_vadalog(TARGET.attribute_names)
        assert text.startswith("property(")
        assert "rightmove(" in text and "deprivation(" in text
        union = SchemaMapping("m_union", "property", "union",
                              children=(direct_rightmove(), join_rightmove_deprivation()))
        assert text in union.to_vadalog(TARGET.attribute_names)

    def test_describe(self):
        assert "direct(rightmove)" in direct_rightmove().describe()
        assert "union" in SchemaMapping("u", "property", "union",
                                        children=(direct_rightmove(),
                                                  join_rightmove_deprivation())).describe()


class TestMappingExecution:
    def test_direct_mapping(self):
        executor = MappingExecutor(make_catalog())
        table = executor.execute(direct_rightmove(), TARGET)
        assert len(table) == 3
        assert table[0]["street"] == "Oak Street"
        assert table[0]["crimerank"] is None
        assert table[0]["_source"] == "rightmove"
        assert table[0]["_row_id"] == "rightmove:0"

    def test_join_mapping_left_outer_semantics(self):
        executor = MappingExecutor(make_catalog())
        table = executor.execute(join_rightmove_deprivation(), TARGET)
        assert len(table) == 3
        by_street = {row["street"]: row for row in table}
        assert by_street["Oak Street"]["crimerank"] == 10
        assert by_street["Mill Lane"]["crimerank"] is None  # null join key

    def test_union_mapping_concatenates_children(self):
        other = SchemaMapping(
            mapping_id="m_direct_otm", target_relation="property", kind="direct",
            sources=("onthemarket",),
            assignments=(
                AttributeAssignment("street", "onthemarket", "address_street", 0.8),
                AttributeAssignment("postcode", "onthemarket", "post_code", 0.85),
                AttributeAssignment("price", "onthemarket", "asking_price", 0.9),
            ),
        )
        union = SchemaMapping("m_union", "property", "union",
                              children=(direct_rightmove(), other))
        table = MappingExecutor(make_catalog()).execute(union, TARGET)
        assert len(table) == 5
        assert {row["_source"] for row in table} == {"rightmove", "onthemarket"}

    def test_type_coercion_failures_become_null(self):
        bad = Table(Schema("bad", [Attribute("price", DataType.STRING)]),
                    [("not a number",)], coerce=False)
        catalog = Catalog()
        catalog.register(bad)
        mapping = SchemaMapping("m", "property", "direct", sources=("bad",),
                                assignments=(AttributeAssignment("price", "bad", "price"),))
        table = MappingExecutor(catalog).execute(mapping, TARGET)
        assert table[0]["price"] is None


class TestMappingGeneration:
    def test_generates_direct_join_and_union_candidates(self):
        generator = MappingGenerator()
        candidates = generator.generate(full_matches(), TARGET, make_catalog())
        ids = {mapping.mapping_id for mapping in candidates}
        assert "m_direct_rightmove" in ids
        assert "m_direct_onthemarket" in ids
        assert any(mapping.kind == "join" and "deprivation" in mapping.sources
                   for mapping in candidates)
        assert any(mapping.kind == "union" for mapping in candidates)

    def test_join_key_discovered_from_value_overlap(self):
        candidates = MappingGenerator().generate(full_matches(), TARGET, make_catalog())
        joins = [m for m in candidates if m.kind == "join"
                 and set(m.sources) == {"rightmove", "deprivation"}]
        assert joins
        condition = joins[0].join_conditions[0]
        assert {condition.left_attribute, condition.right_attribute} == {"postcode"}

    def test_match_threshold_prunes_assignments(self):
        weak = MatchSet([Correspondence("rightmove", "street", "property", "street", 0.3)])
        candidates = MappingGenerator(MappingGeneratorConfig(match_threshold=0.5)).generate(
            weak, TARGET, make_catalog())
        assert candidates == []

    def test_candidate_cap(self):
        config = MappingGeneratorConfig(max_candidates=2)
        candidates = MappingGenerator(config).generate(full_matches(), TARGET, make_catalog())
        assert len(candidates) <= 2


class TestMappingSelection:
    def test_scorer_produces_criteria(self):
        scorer = MappingScorer(make_catalog(), TARGET)
        score = scorer.score(join_rightmove_deprivation())
        assert set(score.criteria) == {"completeness", "accuracy", "consistency", "relevance"}
        assert score.row_count == 3
        assert 0 < score.criteria["completeness"] <= 1

    def test_scorer_uses_reference_for_accuracy(self):
        reference = Table(TARGET.rename("truth"), [
            ("Oak Street", "M1 1AA", 100000.0, 10),
            ("Elm Road", "M5 3CC", 999999.0, 25),
        ])
        scorer = MappingScorer(make_catalog(), TARGET, reference=reference,
                               reference_key=["postcode"])
        score = scorer.score(direct_rightmove())
        assert score.criteria["accuracy"] < 1.0

    def test_feedback_penalty_weighted_by_coverage(self):
        penalties = {("rightmove", "street"): {"error_rate": 1.0, "annotations": 3.0}}
        scorer = MappingScorer(make_catalog(), TARGET, feedback_penalties=penalties)
        unpenalised = MappingScorer(make_catalog(), TARGET).score(direct_rightmove())
        penalised = scorer.score(direct_rightmove())
        assert penalised.criteria["accuracy"] < unpenalised.criteria["accuracy"]

    def test_selector_ranks_by_weighted_score(self):
        scores = {
            "complete": MappingScore("complete", {"completeness": 0.9, "accuracy": 0.5}),
            "accurate": MappingScore("accurate", {"completeness": 0.5, "accuracy": 0.9}),
        }
        uniform = MappingSelector().select(scores)
        assert uniform.best_score == pytest.approx(0.7)
        accuracy_first = MappingSelector().select(scores, {"accuracy": 1.0})
        assert accuracy_first.best_mapping_id == "accurate"
        completeness_first = MappingSelector().select(scores, {"completeness": 1.0})
        assert completeness_first.best_mapping_id == "complete"

    def test_selector_tie_break_by_confidence(self):
        scores = {
            "a": MappingScore("a", {"completeness": 0.8}, match_confidence=0.5),
            "b": MappingScore("b", {"completeness": 0.8}, match_confidence=0.9),
        }
        assert MappingSelector().select(scores).best_mapping_id == "b"

    def test_selector_rejects_empty(self):
        with pytest.raises(ValueError):
            MappingSelector().select({})


class TestMappingTransducers:
    def setup_kb(self) -> KnowledgeBase:
        kb = KnowledgeBase()
        for table in (RIGHTMOVE, ONTHEMARKET, DEPRIVATION):
            kb.register_table(table, Predicates.ROLE_SOURCE)
        kb.describe_schema(TARGET, Predicates.ROLE_TARGET)
        full_matches().assert_into(kb)
        return kb

    def test_pipeline_generation_to_materialisation(self):
        kb = self.setup_kb()
        generation = MappingGenerationTransducer()
        quality = MappingQualityTransducer()
        selection = MappingSelectionTransducer()
        materialisation = ResultMaterialisationTransducer()

        assert generation.can_run(kb)
        generation.execute(kb)
        assert kb.count(Predicates.MAPPING) > 0
        assert kb.has_artifact(MAPPINGS_ARTIFACT_KEY)

        assert quality.can_run(kb)
        quality.execute(kb)
        assert kb.count(Predicates.MAPPING_SCORE) > 0

        assert selection.can_run(kb)
        selection.execute(kb)
        selected = [row for row in kb.facts(Predicates.MAPPING_SELECTED) if row[1] == 1]
        assert len(selected) == 1

        assert materialisation.can_run(kb)
        outcome = materialisation.execute(kb)
        result_name = result_relation_name("property")
        assert result_name in outcome.tables_written
        assert kb.has_table(result_name)
        assert kb.has("result", result_name, selected[0][0], len(kb.get_table(result_name)))

    def test_source_selection_ranks_sources(self):
        kb = self.setup_kb()
        kb.assert_fact(Predicates.METRIC, "source", "rightmove", "completeness", 0.9)
        kb.assert_fact(Predicates.METRIC, "source", "onthemarket", "completeness", 0.5)
        transducer = SourceSelectionTransducer()
        assert transducer.can_run(kb)
        transducer.execute(kb)
        ranking = dict(kb.facts(Predicates.SOURCE_SELECTED))
        assert ranking["rightmove"] == 1
        assert ranking["onthemarket"] == 2

    def test_user_context_weights_change_selection(self):
        kb = self.setup_kb()
        MappingGenerationTransducer().execute(kb)
        MappingQualityTransducer().execute(kb)
        MappingSelectionTransducer().execute(kb)
        baseline = [row[0] for row in kb.facts(Predicates.MAPPING_SELECTED) if row[1] == 1][0]
        # A user who only cares about completeness of crimerank prefers a
        # mapping that actually populates crimerank.
        kb.assert_fact(Predicates.CRITERION_WEIGHT, "completeness.crimerank", 1.0)
        selection = MappingSelectionTransducer()
        selection.execute(kb)
        weighted = [row[0] for row in kb.facts(Predicates.MAPPING_SELECTED) if row[1] == 1][0]
        selected_mapping = kb.get_artifact(MAPPINGS_ARTIFACT_KEY)[weighted]
        assert "crimerank" in selected_mapping.covered_attributes()
        del baseline

    def test_selection_without_scores_is_a_noop(self):
        kb = KnowledgeBase()
        result = MappingSelectionTransducer().run(kb)
        assert result.facts_added == 0


class TestLeafStatsCache:
    """Candidate scoring from per-leaf statistics equals the from-scratch
    reference evaluator and executes only what changed."""

    REFERENCE = Table(TARGET.rename("truth"), [
        ("Oak Street", "M1 1AA", 100000.0, 10),
        ("Elm Road", "M5 3CC", 999999.0, 25),
        ("Birch Close", "M4 4DD", 300000.0, 5),
    ])

    @staticmethod
    def direct_onthemarket() -> SchemaMapping:
        return SchemaMapping(
            mapping_id="m_direct_onthemarket",
            target_relation="property",
            kind="direct",
            sources=("onthemarket",),
            assignments=(
                AttributeAssignment("street", "onthemarket", "address_street", 0.8),
                AttributeAssignment("postcode", "onthemarket", "post_code", 0.85),
                AttributeAssignment("price", "onthemarket", "asking_price", 0.9),
            ),
        )

    def candidates(self) -> list[SchemaMapping]:
        direct, other = direct_rightmove(), self.direct_onthemarket()
        join = join_rightmove_deprivation()
        return [
            direct,
            other,
            join,
            SchemaMapping("m_union_direct", "property", "union", children=(direct, other)),
            SchemaMapping("m_union_join", "property", "union", children=(other, join)),
        ]

    def scorer(self, catalog: Catalog) -> MappingScorer:
        return MappingScorer(
            catalog, TARGET,
            reference=self.REFERENCE, reference_key=["postcode"],
            master=self.REFERENCE.rename("master"), master_key=["street", "postcode"],
        )

    @staticmethod
    def executions(monkeypatch) -> list[tuple[str, int]]:
        """(mapping id, rows produced) of every execution from now on."""
        calls: list[tuple[str, int]] = []
        execute, execute_rows = MappingExecutor.execute, MappingExecutor.execute_rows

        def counted_execute(self, mapping, *args, **kwargs):
            table = execute(self, mapping, *args, **kwargs)
            calls.append((mapping.mapping_id, len(table)))
            return table

        def counted_execute_rows(self, mapping, *args, **kwargs):
            rows = execute_rows(self, mapping, *args, **kwargs)
            calls.append((mapping.mapping_id, len(rows)))
            return rows

        monkeypatch.setattr(MappingExecutor, "execute", counted_execute)
        monkeypatch.setattr(MappingExecutor, "execute_rows", counted_execute_rows)
        return calls

    @staticmethod
    def as_values(scores) -> dict:
        return {
            mapping_id: (score.criteria, score.row_count) for mapping_id, score in scores.items()
        }

    def test_cached_scores_equal_reference_evaluator(self):
        catalog = make_catalog()
        cache = LeafStatsCache()
        revisions = [
            lambda: None,
            lambda: catalog.replace(catalog.get("rightmove").extend(
                [("Oak Street", "M1 1AA", 100000.0), ("Ash Way", "M9 9ZZ", None)])),
            # The new lookup row joins the driving row appended before it.
            lambda: catalog.replace(catalog.get("deprivation").extend([("M9 9ZZ", 40)])),
            lambda: catalog.replace(catalog.get("onthemarket").replace_rows(
                catalog.get("onthemarket").tuples()[:1])),
            lambda: catalog.replace(catalog.get("rightmove").extend([])),
        ]
        for revise in revisions:
            revise()
            cached = self.scorer(catalog).score_all(self.candidates(), cache=cache)
            fresh = self.scorer(catalog).score_all(self.candidates())
            assert self.as_values(cached) == self.as_values(fresh)

    def test_union_leaves_execute_once_and_unchanged_sources_not_at_all(self, monkeypatch):
        catalog = make_catalog()
        cache = LeafStatsCache()
        calls = self.executions(monkeypatch)
        self.scorer(catalog).score_all(self.candidates(), cache=cache)
        assert sorted(calls) == [
            ("m_direct_onthemarket", 2), ("m_direct_rightmove", 3), ("m_join", 3),
        ]
        calls.clear()
        self.scorer(catalog).score_all(self.candidates(), cache=cache)
        assert calls == []

    def test_driving_append_executes_only_the_new_rows(self, monkeypatch):
        catalog = make_catalog()
        cache = LeafStatsCache()
        self.scorer(catalog).score_all(self.candidates(), cache=cache)
        calls = self.executions(monkeypatch)
        catalog.replace(catalog.get("rightmove").extend([("Ash Way", "M4 4DD", 1.0)]))
        self.scorer(catalog).score_all(self.candidates(), cache=cache)
        assert sorted(calls) == [("m_direct_rightmove", 1), ("m_join", 1)]
        calls.clear()
        # A lookup append rebuilds only the leaf that reads the lookup.
        catalog.replace(catalog.get("deprivation").extend([("M9 9ZZ", 40)]))
        self.scorer(catalog).score_all(self.candidates(), cache=cache)
        assert calls == [("m_join", 4)]

    def test_leaves_no_candidate_uses_are_evicted(self):
        catalog = make_catalog()
        cache = LeafStatsCache()
        self.scorer(catalog).score_all(self.candidates(), cache=cache)
        assert len(cache.leaves) == 3 and len(cache.bases) == 5
        self.scorer(catalog).score_all([direct_rightmove()], cache=cache)
        assert list(cache.leaves) == [direct_rightmove().structure_signature()]
        assert len(cache.bases) == 1
