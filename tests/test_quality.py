"""Unit tests for profiling, CFDs, CFD learning, metrics, repair and quality transducers."""

from __future__ import annotations

import pytest

from repro.core import KnowledgeBase, Predicates
from repro.quality import (
    CFD,
    CFD_ARTIFACT_KEY,
    CFDCheck,
    CFDLearner,
    CFDLearnerConfig,
    CFDLearningTransducer,
    CFDRepairer,
    DataRepairTransducer,
    QualityMetricTransducer,
    build_stats,
    build_witness,
    candidate_keys,
    discover_functional_dependencies,
    functional_dependency_confidence,
    profile_column,
    profile_table,
    value_overlap,
)
from repro.relational import Attribute, DataType, Schema, Table

ADDRESS_SCHEMA = Schema("address", [
    Attribute("street", DataType.STRING),
    Attribute("city", DataType.STRING),
    Attribute("postcode", DataType.STRING),
])

ADDRESSES = Table(ADDRESS_SCHEMA, [
    ("Oak Street", "Manchester", "M1 1AA"),
    ("Oak Street", "Manchester", "M1 1AB"),
    ("Elm Road", "Salford", "M5 3CC"),
    ("Elm Road", "Salford", "M5 3CD"),
    ("Mill Lane", "Stockport", "SK1 2EF"),
] * 6)  # repetition gives constant patterns enough support

PROPERTY_SCHEMA = Schema("property_result", [
    Attribute("street", DataType.STRING),
    Attribute("postcode", DataType.STRING),
    Attribute("price", DataType.FLOAT),
    Attribute("bedrooms", DataType.INTEGER),
])


class TestProfiling:
    def test_column_profile(self, person_table):
        profile = profile_column(person_table, "age")
        assert profile.row_count == 4
        assert profile.null_count == 1
        assert profile.distinct_count == 3
        assert profile.completeness == pytest.approx(0.75)
        assert profile.uniqueness == pytest.approx(1.0)

    def test_profile_table_covers_all_columns(self, person_table):
        profiles = profile_table(person_table)
        assert set(profiles) == {"name", "age", "city"}

    def test_candidate_keys(self, person_table):
        keys = candidate_keys(person_table)
        assert ("name",) in keys
        # city is not a key; (name, city) is not reported because name already is.
        assert ("city",) not in keys
        assert all(not set(("name",)) < set(k) for k in keys)

    def test_fd_confidence_exact_and_approximate(self):
        assert functional_dependency_confidence(ADDRESSES, ["postcode"], "street") == 1.0
        dirty = ADDRESSES.extend([("Wrong Street", "Manchester", "M1 1AA")])
        assert 0.9 < functional_dependency_confidence(dirty, ["postcode"], "street") < 1.0

    def test_discover_functional_dependencies(self):
        found = discover_functional_dependencies(ADDRESSES, min_confidence=0.99)
        assert (("postcode",), "street", 1.0) in found
        assert (("postcode",), "city", 1.0) in found
        # street does not determine postcode (each street has two postcodes).
        assert not any(lhs == ("street",) and rhs == "postcode" for lhs, rhs, _ in found)

    def test_value_overlap(self):
        left = Table(Schema("l", ["x"]), [("a",), ("b",), ("c",)])
        right = Table(Schema("r", ["y"]), [("b",), ("c",), ("d",)])
        assert value_overlap(left, "x", right, "y") == pytest.approx(2 / 3)


class TestCfd:
    def variable_cfd(self) -> CFD:
        return CFD("cfd1", "property_result", ("postcode",), "street")

    def check(self, cfd: CFD, witness=None) -> CFDCheck:
        return CFDCheck(cfd, PROPERTY_SCHEMA.attribute_names, witness)

    def test_validation(self):
        with pytest.raises(ValueError):
            CFD("bad", "r", (), "street")
        with pytest.raises(ValueError):
            CFD("bad", "r", ("street",), "street")
        with pytest.raises(ValueError):
            CFD("bad", "r", ("a",), "b", lhs_pattern=(("c", "x"),))

    def test_applies_to_requires_non_null_lhs(self):
        check = self.check(self.variable_cfd())
        assert check.applies((None, "M1 1AA", 100.0, 2))
        assert not check.applies(("Oak Street", None, 100.0, 2))

    def test_variable_cfd_checks_against_witness(self):
        check = self.check(self.variable_cfd(), {("m11aa",): "Oak Street"})
        assert check.satisfied(("Oak Street", "M1 1AA", 100.0, 2))
        assert not check.satisfied(("Elm Road", "M1 1AA", 100.0, 2))
        assert check.expected(("Elm Road", "M1 1AA", 100.0, 2)) == "Oak Street"
        # Unknown postcode: nothing to compare against, trivially satisfied.
        assert check.satisfied(("Elm Road", "ZZ9 9ZZ", 100.0, 2))

    def test_constant_cfd(self):
        cfd = CFD("c", "r", ("postcode",), "city",
                  lhs_pattern=(("postcode", "M1 1AA"),), rhs_pattern="Manchester")
        assert cfd.is_constant
        check = CFDCheck(cfd, ("postcode", "city"))
        assert check.applies(("M1 1AA", "Manchester"))
        assert check.satisfied(("M1 1AA", "Manchester"))
        assert not check.satisfied(("M1 1AA", "Leeds"))
        assert not check.applies(("M5 3CC", "Leeds"))  # pattern not applicable

    def test_fact_fields_and_describe(self):
        cfd = self.variable_cfd()
        fields = cfd.to_fact_fields()
        assert fields[0] == "cfd1"
        assert "postcode" in cfd.describe()


class TestCfdLearning:
    def test_learns_postcode_dependencies(self):
        learned = CFDLearner(CFDLearnerConfig(min_constant_support=5)).learn(ADDRESSES)
        variable_rhs = {(cfd.lhs, cfd.rhs) for cfd in learned.variable_cfds()}
        assert (("postcode",), "street") in variable_rhs
        assert (("postcode",), "city") in variable_rhs
        assert learned.witnesses  # witnesses built for every variable CFD
        assert learned.constant_cfds()  # repeated postcodes give constant patterns

    def test_attribute_map_translates_and_filters(self):
        learned = CFDLearner().learn(
            ADDRESSES, target_relation="property",
            attribute_map={"street": "street", "postcode": "postcode"})
        assert all(cfd.relation == "property" for cfd in learned.cfds)
        assert all("city" not in cfd.lhs and cfd.rhs != "city" for cfd in learned.cfds)

    def test_build_witness_normalises_keys(self):
        witness = build_witness(ADDRESSES, ("postcode",), "street")
        assert witness[("m11aa",)] == "Oak Street"


def scores(table: Table, **context):
    """The quality report of ``table`` in ``context`` (see ``build_stats``)."""
    return build_stats(table, **context).finalise()


class TestMetrics:
    def result_table(self) -> Table:
        return Table(PROPERTY_SCHEMA, [
            ("Oak Street", "M1 1AA", 100.0, 2),
            ("Elm Road", "M5 3CC", 200.0, None),
            (None, "M1 1AB", 150.0, 3),
        ])

    def test_completeness(self):
        report = scores(self.result_table())
        assert report.attribute_completeness["street"] == pytest.approx(2 / 3)
        assert report.attribute_completeness["price"] == 1.0
        assert report.completeness == pytest.approx((2 / 3 + 1 + 1 + 2 / 3) / 4)

    def test_completeness_weights(self):
        report = scores(self.result_table(), completeness_weights={"street": 1.0})
        assert report.completeness == pytest.approx(2 / 3)

    def test_completeness_ignores_bookkeeping_columns(self):
        schema = PROPERTY_SCHEMA.add(Attribute("_source", DataType.STRING))
        table = Table(schema, [("Oak Street", "M1 1AA", 100.0, 2, "rightmove")])
        assert scores(table).completeness == 1.0

    def test_accuracy_against_reference(self):
        reference = Table(PROPERTY_SCHEMA, [
            ("Oak Street", "M1 1AA", 100.0, 2),
            ("Elm Road", "M5 3CC", 200.0, 4),
        ])
        table = Table(PROPERTY_SCHEMA, [
            ("Oak Street", "M1 1AA", 100.0, 2),     # all correct
            ("Wrong Road", "M5 3CC", 200.0, None),  # street wrong, bedrooms missing
            ("Mill Lane", "ZZ9 9ZZ", 1.0, 1),       # key not in reference: ignored
        ])
        accuracy = scores(table, reference=reference, reference_key=["postcode", "price"]).accuracy
        # checked cells: row0 street+bedrooms (2 correct), row1 street (wrong).
        assert accuracy == pytest.approx(2 / 3)

    def test_accuracy_without_checkable_cells_is_zero(self):
        reference = Table(PROPERTY_SCHEMA, [("Oak Street", "M1 1AA", 100.0, 2)])
        table = Table(PROPERTY_SCHEMA, [("Oak Street", "ZZ1 1ZZ", 999.0, 1)])
        report = scores(table, reference=reference, reference_key=["postcode", "price"])
        assert report.accuracy == 0.0

    def test_consistency(self):
        cfd = CFD("cfd1", "property_result", ("postcode",), "street")
        witness = {("m11aa",): "Oak Street"}
        clean = Table(PROPERTY_SCHEMA, [("Oak Street", "M1 1AA", 100.0, 2)])
        dirty = Table(PROPERTY_SCHEMA, [("Bad Street", "M1 1AA", 100.0, 2),
                                        ("Oak Street", "M1 1AA", 120.0, 3)])
        context = {"cfds": [cfd], "witnesses": {"cfd1": witness}}
        assert scores(clean, **context).consistency == 1.0
        assert scores(dirty, **context).consistency == pytest.approx(0.5)
        assert scores(clean).consistency == 1.0

    def test_relevance(self):
        master = Table(Schema("master", ["postcode"]), [("M1 1AA",), ("M9 9XX",)])
        table = Table(PROPERTY_SCHEMA, [("Oak Street", "M1 1AA", 1.0, 1)])
        assert scores(table, master=master, master_key=["postcode"]).relevance == pytest.approx(0.5)

    def test_evaluate_quality_neutral_without_context(self):
        report = scores(self.result_table())
        assert report.accuracy == 0.5
        assert report.relevance == 0.5
        assert report.consistency == 1.0
        assert 0 < report.completeness < 1
        assert report.overall() == pytest.approx(
            (report.completeness + 0.5 + 1.0 + 0.5) / 4)

    def test_overall_with_weights(self):
        report = scores(self.result_table())
        weighted = report.overall({"completeness": 1.0})
        assert weighted == pytest.approx(report.completeness)


class TestRepair:
    def test_violation_fix_and_imputation(self):
        table = Table(PROPERTY_SCHEMA, [
            ("Wrong Road", "M1 1AA", 100.0, 2),
            (None, "M5 3CC", 150.0, 3),
            ("Mill Lane", "SK1 2EF", 120.0, 2),
        ])
        cfd = CFD("cfd1", "property_result", ("postcode",), "street")
        witnesses = {"cfd1": build_witness(ADDRESSES, ("postcode",), "street")}
        outcome = CFDRepairer().repair(table, [cfd], witnesses=witnesses)
        assert outcome.repaired_cells == 2
        assert outcome.table[0]["street"] == "Oak Street"
        assert outcome.table[1]["street"] == "Elm Road"
        assert outcome.table[2]["street"] == "Mill Lane"
        assert len(outcome.actions_of_kind("violation")) == 1
        assert len(outcome.actions_of_kind("imputation")) == 1

    def test_higher_confidence_cfd_wins(self):
        table = Table(PROPERTY_SCHEMA, [("Wrong Road", "M1 1AA", 100.0, 2)])
        strong = CFD("strong", "property_result", ("postcode",), "street", confidence=1.0)
        weak = CFD("weak", "property_result", ("postcode",), "street", confidence=0.5)
        witnesses = {"strong": {("m11aa",): "Oak Street"}, "weak": {("m11aa",): "Bad Street"}}
        outcome = CFDRepairer().repair(table, [weak, strong], witnesses=witnesses)
        assert outcome.table[0]["street"] == "Oak Street"


class TestQualityTransducers:
    def setup_kb(self) -> KnowledgeBase:
        kb = KnowledgeBase()
        source = Table(PROPERTY_SCHEMA.rename("rightmove"), [
            ("Oak Street", "M1 1AA", 100.0, 2),
            (None, "M5 3CC", 200.0, None),
        ])
        kb.register_table(source, Predicates.ROLE_SOURCE)
        kb.describe_schema(PROPERTY_SCHEMA.rename("property"), Predicates.ROLE_TARGET)
        return kb

    def test_cfd_learning_requires_data_context(self):
        kb = self.setup_kb()
        transducer = CFDLearningTransducer(CFDLearnerConfig(min_constant_support=5))
        assert not transducer.can_run(kb)
        kb.register_table(ADDRESSES, Predicates.ROLE_CONTEXT)
        kb.assert_fact(Predicates.DATA_CONTEXT, "address", "reference", "property")
        assert transducer.can_run(kb)
        result = transducer.execute(kb)
        assert result.facts_added > 0
        assert kb.has_artifact(CFD_ARTIFACT_KEY)
        assert kb.count(Predicates.CFD) == result.facts_added

    def test_quality_metrics_cover_sources(self):
        kb = self.setup_kb()
        result = QualityMetricTransducer().execute(kb)
        assert result.facts_added == 4  # four criteria for the single source
        criteria = {row[2] for row in kb.facts(Predicates.METRIC)}
        assert criteria == {"completeness", "accuracy", "consistency", "relevance"}

    def test_data_repair_fixes_result_tables(self):
        kb = self.setup_kb()
        kb.register_table(ADDRESSES, Predicates.ROLE_CONTEXT)
        kb.assert_fact(Predicates.DATA_CONTEXT, "address", "reference", "property")
        CFDLearningTransducer(CFDLearnerConfig(min_constant_support=5)).execute(kb)
        result_table = Table(PROPERTY_SCHEMA.rename("property_result"), [
            ("Wrong Road", "M1 1AA", 100.0, 2),
        ])
        kb.catalog.register(result_table)
        kb.assert_fact(Predicates.RESULT, "property_result", "m1", 1)
        transducer = DataRepairTransducer()
        assert transducer.can_run(kb)
        outcome = transducer.execute(kb)
        assert "property_result" in outcome.tables_written
        assert kb.get_table("property_result")[0]["street"] == "Oak Street"
        assert kb.count(Predicates.REPAIR) > 0

    def test_repair_facts_name_rows_by_key(self):
        """``repair(relation, row_key, ...)`` names the row by its ``_row_id``."""
        kb = self.setup_kb()
        kb.register_table(ADDRESSES, Predicates.ROLE_CONTEXT)
        kb.assert_fact(Predicates.DATA_CONTEXT, "address", "reference", "property")
        CFDLearningTransducer(CFDLearnerConfig(min_constant_support=5)).execute(kb)
        schema = PROPERTY_SCHEMA.rename("property_result").add(
            Attribute("_row_id", DataType.STRING))
        kb.catalog.register(Table(schema, [
            ("Oak Street", "M1 1AA", 100.0, 2, "rightmove:7"),
            ("Wrong Road", "M5 3CC", 150.0, 3, "rightmove:9"),
        ]))
        kb.assert_fact(Predicates.RESULT, "property_result", "m1", 2)
        DataRepairTransducer().execute(kb)
        assert kb.get_table("property_result")[1]["street"] == "Elm Road"
        assert {fact[1] for fact in kb.facts(Predicates.REPAIR)} == {"rightmove:9"}
