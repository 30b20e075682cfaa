"""Tests for the quality sufficient-statistic layer (`repro.quality.stats`).

The contract under test: a maintained :class:`QualityStats` — fed any mix of
``add_row`` / ``remove_row`` / ``replace_row`` deltas — finalises to exactly
the report a full recomputation over the resulting row multiset produces,
and ``merge`` combines shard accumulators associatively. The CFD check that
consistency and repair share is compared with a dict-row oracle.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.quality import (
    CFD,
    WILDCARD,
    CFDCheck,
    CFDLearner,
    CFDLearnerConfig,
    CFDRepairer,
    build_stats,
    build_witness,
)
from repro.quality.stats import QualityStats
from repro.quality.transducers import quality_stats_stash
from repro.relational import Attribute, DataType, Schema, Table
from repro.relational.keys import normalise_key_tuple
from repro.relational.types import is_null

SCHEMA = Schema("listing", [
    Attribute("street", DataType.STRING),
    Attribute("postcode", DataType.STRING),
    Attribute("price", DataType.FLOAT),
    Attribute("bedrooms", DataType.INTEGER),
    Attribute("_row_id", DataType.STRING),
])

REFERENCE = Table(Schema("reference", [
    Attribute("street", DataType.STRING),
    Attribute("postcode", DataType.STRING),
    Attribute("price", DataType.FLOAT),
]), [
    ("Oak Street", "M1 1AA", 100.0),
    ("Elm Road", "M5 3CC", 200.0),
    ("Mill Lane", "SK1 2EF", 150.0),
])

MASTER = Table(Schema("master", [Attribute("postcode", DataType.STRING)]),
               [("M1 1AA",), ("M5 3CC",), ("ZZ9 9ZZ",)])

CFDS = (
    CFD("v1", "listing", ("postcode",), "street"),
    CFD("c1", "listing", ("postcode",), "street",
        lhs_pattern=(("postcode", "M1 1AA"),), rhs_pattern="Oak Street"),
)
WITNESSES = {"v1": {("m11aa",): "Oak Street", ("m53cc",): "Elm Road"}}

POSTCODES = ["M1 1AA", "m1 1aa", "M5 3CC", "SK1 2EF", "ZZ9 9ZZ", None]
STREETS = ["Oak Street", "Elm Road", "Mill Lane", "Wrong Road", None]


def row_strategy():
    return st.tuples(
        st.sampled_from(STREETS),
        st.sampled_from(POSTCODES),
        st.sampled_from([100.0, 150.0, 200.0, 999.0, None]),
        st.sampled_from([1, 2, 3, None]),
        st.sampled_from(["s:0", "s:1", "s:2", "s:3", None]),
    )


def context_kwargs():
    return dict(
        reference=REFERENCE,
        reference_key=("postcode",),
        cfds=CFDS,
        witnesses=WITNESSES,
        master=MASTER,
        master_key=("postcode",),
    )


def assert_reports_equal(left, right):
    assert left.as_dict() == right.as_dict()
    assert left.attribute_completeness == right.attribute_completeness
    assert left.row_count == right.row_count


def rescan(table):
    """The report of a whole-table build in the test context."""
    return build_stats(table, **context_kwargs()).finalise()


class TestDeltaMaintenance:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        initial=st.lists(row_strategy(), max_size=12),
        deltas=st.lists(
            st.tuples(st.sampled_from(["add", "remove", "replace"]), row_strategy(),
                      row_strategy(), st.integers(min_value=0, max_value=30)),
            max_size=12,
        ),
    )
    def test_maintained_stats_equal_full_recompute(self, initial, deltas):
        """Random deltas → finalise == a whole-table build over the final rows."""
        stats = QualityStats.for_schema(SCHEMA, relation="listing", **context_kwargs())
        rows = list(initial)
        for values in rows:
            stats.add_row(values)
        for op, row, replacement, position in deltas:
            if op == "add":
                stats.add_row(row)
                rows.append(row)
            elif op == "remove" and rows:
                victim = rows.pop(position % len(rows))
                stats.remove_row(victim)
            elif op == "replace" and rows:
                index = position % len(rows)
                stats.replace_row(rows[index], replacement)
                rows[index] = replacement
        table = Table(SCHEMA, rows, coerce=False, validate=False)
        assert_reports_equal(stats.finalise(), rescan(table))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(base=st.lists(row_strategy(), max_size=10),
           extra=st.lists(row_strategy(), min_size=1, max_size=8))
    def test_add_remove_round_trip_restores_exact_counters(self, base, extra):
        """Adding then removing the same rows restores every counter exactly."""
        stats = QualityStats.for_schema(SCHEMA, relation="listing", **context_kwargs())
        for values in base:
            stats.add_row(values)
        snapshot = pickle.dumps(stats)
        for values in extra:
            stats.add_row(values)
        for values in reversed(extra):
            stats.remove_row(values)
        restored = pickle.loads(snapshot)
        assert stats.completeness.row_count == restored.completeness.row_count
        assert stats.completeness.null_counts == restored.completeness.null_counts
        assert stats.accuracy.checked == restored.accuracy.checked
        assert stats.accuracy.correct == restored.accuracy.correct
        assert stats.consistency.checkable == restored.consistency.checkable
        assert stats.consistency.violations == restored.consistency.violations
        assert stats.relevance.covered == restored.relevance.covered
        assert_reports_equal(stats.finalise(), restored.finalise())


class TestMerge:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(shards=st.lists(st.lists(row_strategy(), max_size=8), min_size=3, max_size=3))
    def test_merge_is_associative_across_shards(self, shards):
        """(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), and both equal the whole-table build."""

        def shard_stats(rows):
            stats = QualityStats.for_schema(SCHEMA, relation="listing", **context_kwargs())
            for values in rows:
                stats.add_row(values)
            return stats

        def clone(stats):
            return pickle.loads(pickle.dumps(stats))

        a, b, c = (shard_stats(rows) for rows in shards)
        left = clone(a)
        left.merge(clone(b))
        left.merge(clone(c))
        middle = clone(b)
        middle.merge(clone(c))
        right = clone(a)
        right.merge(middle)
        assert_reports_equal(left.finalise(), right.finalise())
        whole = Table(SCHEMA, [row for rows in shards for row in rows],
                      coerce=False, validate=False)
        assert_reports_equal(left.finalise(), rescan(whole))

    def test_merge_rejects_incompatible_configurations(self):
        with_context = QualityStats.for_schema(SCHEMA, relation="l", **context_kwargs())
        bare = QualityStats.for_schema(SCHEMA, relation="l")
        with pytest.raises(ValueError):
            with_context.merge(bare)


class TestSinglePassConsistency:
    def test_consistency_matches_two_pass_computation(self):
        """One pass counts what separate scope and violation scans count.

        v1 checks the four rows with a postcode and flags Wrong Road (SK1 2EF
        has no witness, so its NULL street passes); c1 checks the two M1 1AA
        rows and flags Wrong Road too."""
        rows = [
            ("Oak Street", "M1 1AA", 100.0, 2, "s:0"),
            ("Wrong Road", "M1 1AA", 120.0, 3, "s:1"),
            ("Elm Road", "M5 3CC", 200.0, None, "s:2"),
            (None, "SK1 2EF", 150.0, 1, "s:3"),
            ("Mill Lane", None, 1.0, 1, "s:4"),
        ]
        table = Table(SCHEMA, rows, coerce=False, validate=False)
        stats = build_stats(table, cfds=CFDS, witnesses=WITNESSES)
        assert stats.consistency.checkable == [4, 2]
        assert stats.consistency.violations == [1, 1]
        assert stats.finalise().consistency == 1.0 - 2 / 6

    def test_consistency_trivial_cases(self):
        table = Table(SCHEMA, [("Oak Street", "M1 1AA", 100.0, 2, "s:0")],
                      coerce=False, validate=False)
        assert build_stats(table).finalise().consistency == 1.0
        empty = build_stats(Table(SCHEMA, []), cfds=CFDS, witnesses=WITNESSES)
        assert empty.finalise().consistency == 1.0


# -- the shared CFD check against a dict-row oracle ------------------------------
#
# The oracle restates the CFD semantics over dict rows: a row is in scope when
# it has every LHS attribute, none NULL or NaN, and matches each LHS constant;
# a missing RHS attribute reads as NULL; witnesses key on the normalised LHS.


def oracle_equal(left, right):
    if is_null(left) or is_null(right):
        return False
    if isinstance(left, str) and isinstance(right, str):
        return left.strip().lower() == right.strip().lower()
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return float(left) == float(right)
    return left == right


def oracle_applies(cfd, row):
    if any(attribute not in row or is_null(row[attribute]) for attribute in cfd.lhs):
        return False
    return all(
        constant == WILDCARD or oracle_equal(row[attribute], constant)
        for attribute, constant in cfd.lhs_pattern
    )


def oracle_expected(cfd, row, witness):
    if cfd.is_constant:
        return cfd.rhs_pattern
    if witness is None:
        return None
    return witness.get(normalise_key_tuple(row[attribute] for attribute in cfd.lhs))


def oracle_satisfied(cfd, row, witness):
    value = row.get(cfd.rhs)
    if cfd.is_constant:
        return oracle_equal(value, cfd.rhs_pattern)
    expected = oracle_expected(cfd, row, witness)
    if expected is None:
        return True
    if is_null(value):
        return False
    return oracle_equal(value, expected)


def oracle_repair(names, rows, cfds, witnesses):
    """Repair over dict rows: confidence order, rewritten rows, cells once."""
    rows = [dict(zip(names, values)) for values in rows]
    actions = []
    touched = set()
    for cfd in sorted(cfds, key=lambda cfd: (-cfd.confidence, -cfd.support, cfd.cfd_id)):
        if cfd.rhs not in names or any(attribute not in names for attribute in cfd.lhs):
            continue
        witness = witnesses.get(cfd.cfd_id)
        for index, row in enumerate(rows):
            if (index, cfd.rhs) in touched or not oracle_applies(cfd, row):
                continue
            expected = oracle_expected(cfd, row, witness)
            if expected is None or is_null(expected):
                continue
            current = row[cfd.rhs]
            if is_null(current):
                kind = "imputation"
            elif not oracle_equal(current, expected):
                kind = "violation"
            else:
                continue
            row[cfd.rhs] = expected
            touched.add((index, cfd.rhs))
            actions.append((index, cfd.rhs, current, expected, cfd.cfd_id, kind))
    return [tuple(row[name] for name in names) for row in rows], actions


def same(left, right):
    """Equal values of the same type (``1``, ``1.0`` and ``True`` differ)."""
    return repr(left) == repr(right) and type(left) is type(right)


# NULL and NaN, case and whitespace drift, and "1", 1, 1.0 and True.
CELLS = [None, float("nan"), "x", "X", " X ", "y", "1", 1, 1.0, True, 0, 2.5]
LAYOUT_NAMES = ["a", "b", "c", "d"]


@st.composite
def cfds(draw, cfd_id="cfd"):
    lhs = tuple(draw(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=2,
                              unique=True)))
    pattern = tuple(
        (attribute, draw(st.sampled_from(CELLS)))
        for attribute in lhs
        if draw(st.booleans())
    )
    return CFD(
        cfd_id, "t", lhs, draw(st.sampled_from(["c", "d"])),
        lhs_pattern=pattern,
        rhs_pattern=draw(st.one_of(st.just(WILDCARD), st.sampled_from(CELLS))),
        confidence=draw(st.sampled_from([1.0, 0.9])),
    )


@st.composite
def witnesses(draw, cfd):
    """None, or LHS value combinations (normalised) → expected RHS values."""
    if draw(st.booleans()):
        return None
    entries = draw(st.lists(
        st.tuples(st.tuples(*(st.sampled_from(CELLS) for _ in cfd.lhs)),
                  st.sampled_from(CELLS)),
        max_size=6,
    ))
    return {normalise_key_tuple(key): value for key, value in entries}


@st.composite
def layouts(draw):
    """Attribute names in any order, at times without an LHS or RHS attribute."""
    names = draw(st.permutations(LAYOUT_NAMES))
    return tuple(names if draw(st.booleans()) else names[:draw(st.integers(1, 3))])


class TestCFDCheckOracle:
    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_check_matches_dict_row_oracle(self, data):
        cfd = data.draw(cfds())
        witness = data.draw(witnesses(cfd))
        names = data.draw(layouts())
        values = tuple(data.draw(st.sampled_from(CELLS)) for _ in names)
        check = CFDCheck(cfd, names, witness)
        row = dict(zip(names, values))
        assert check.applies(values) == oracle_applies(cfd, row)
        if oracle_applies(cfd, row):
            assert same(check.expected(values), oracle_expected(cfd, row, witness))
            assert check.satisfied(values) == oracle_satisfied(cfd, row, witness)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_repair_and_consistency_match_dict_row_oracle(self, data):
        names = data.draw(layouts())
        dependencies = [data.draw(cfds(f"cfd{index}")) for index in range(data.draw(
            st.integers(1, 3)))]
        witness_of = {cfd.cfd_id: data.draw(witnesses(cfd)) for cfd in dependencies}
        rows = data.draw(st.lists(
            st.tuples(*(st.sampled_from(CELLS) for _ in names)), min_size=1, max_size=6))
        table = Table(Schema("t", list(names)), rows, coerce=False, validate=False)

        result = CFDRepairer().repair(table, dependencies, witnesses=witness_of)
        expected_rows, expected_actions = oracle_repair(names, rows, dependencies, witness_of)
        actions = [
            (action.row_index, action.attribute, action.old_value, action.new_value,
             action.cfd_id, action.kind)
            for action in result.actions
        ]
        assert same(actions, expected_actions)
        assert same(result.table.tuples(), table.replace_rows(expected_rows).tuples())

        stats = build_stats(table, cfds=dependencies, witnesses=witness_of).consistency
        dict_rows = [dict(zip(names, values)) for values in rows]
        in_scope = [[row for row in dict_rows if oracle_applies(cfd, row)]
                    for cfd in dependencies]
        assert stats.checkable == [len(scope) for scope in in_scope]
        assert stats.violations == [
            sum(not oracle_satisfied(cfd, row, witness_of[cfd.cfd_id]) for row in scope)
            for cfd, scope in zip(dependencies, in_scope)
        ]

    @pytest.mark.parametrize("pattern", [None, float("nan")])
    def test_null_constant_pattern_violates_but_never_repairs(self, pattern):
        cfd = CFD("null", "listing", ("postcode",), "street", rhs_pattern=pattern)
        table = Table(SCHEMA, [("Oak Street", "M1 1AA", 100.0, 2, "s:0"),
                               (None, "M5 3CC", 200.0, 3, "s:1")],
                      coerce=False, validate=False)
        stats = build_stats(table, cfds=[cfd]).consistency
        assert stats.checkable == [2]
        assert stats.violations == [2]
        assert CFDRepairer().repair(table, [cfd]).actions == []

    @pytest.mark.parametrize("order", [1, -1])
    def test_weaker_cfd_reads_the_lhs_a_stronger_one_rewrote(self, order):
        names = ("street", "postcode", "city")
        strong = CFD("strong", "t", ("street",), "postcode", confidence=1.0)
        weak = CFD("weak", "t", ("postcode",), "city", confidence=0.9)
        witness_of = {"strong": {("oakstreet",): "M1 1AA"}, "weak": {("m11aa",): "Manchester"}}
        table = Table(Schema("t", list(names)), [("Oak Street", "ZZ9 9ZZ", None)],
                      coerce=False, validate=False)
        result = CFDRepairer().repair(table, [strong, weak][::order], witnesses=witness_of)
        assert result.table.tuples() == [("Oak Street", "M1 1AA", "Manchester")]
        assert [(action.cfd_id, action.kind) for action in result.actions] == [
            ("strong", "violation"), ("weak", "imputation")]


class TestCfdIdNamespacing:
    def test_ids_are_namespaced_by_context_table(self):
        """Two context tables bound to one target must not share CFD ids."""
        config = CFDLearnerConfig(min_constant_support=5)
        addresses = Table(Schema("addresses", ["street", "postcode"]), [
            ("Oak Street", "M1 1AA"), ("Elm Road", "M5 3CC"),
        ] * 10)
        registry = Table(Schema("registry", ["street", "postcode"]), [
            ("Oak Street", "M1 1AA"), ("Mill Lane", "SK1 2EF"),
        ] * 10)
        learner = CFDLearner(config)
        first = learner.learn(addresses, target_relation="property",
                              attribute_map={"street": "street", "postcode": "postcode"})
        second = learner.learn(registry, target_relation="property",
                               attribute_map={"street": "street", "postcode": "postcode"})
        first_ids = {cfd.cfd_id for cfd in first.cfds}
        second_ids = {cfd.cfd_id for cfd in second.cfds}
        assert first_ids, "expected CFDs from the first context table"
        assert second_ids, "expected CFDs from the second context table"
        assert not first_ids & second_ids, "ids must be namespaced per context table"
        assert all("addresses" in cfd_id for cfd_id in first_ids)
        # Both witness indexes survive side by side (the old collision
        # overwrote one with the other).
        combined = {**first.witnesses, **second.witnesses}
        assert len(combined) == len(first.witnesses) + len(second.witnesses)

    def test_witness_still_resolves_after_namespacing(self):
        addresses = Table(Schema("addr", ["street", "postcode"]),
                          [("Oak Street", "M1 1AA")] * 3)
        learned = CFDLearner(CFDLearnerConfig(min_constant_support=100)).learn(addresses)
        for cfd in learned.variable_cfds():
            assert cfd.cfd_id in learned.witnesses
            assert learned.witnesses[cfd.cfd_id] == build_witness(
                addresses, cfd.lhs, cfd.rhs
            )


class TestBuildStats:
    def test_stats_are_picklable_with_learned_cfds(self):
        reference = Table(Schema("ref", ["street", "postcode"]), [
            ("Oak Street", "M1 1AA"), ("Elm Road", "M5 3CC"),
        ] * 15)
        learned = CFDLearner(CFDLearnerConfig(min_constant_support=5)).learn(reference)
        table = Table(SCHEMA, [("Oak Street", "M1 1AA", 100.0, 2, "s:0")],
                      coerce=False, validate=False)
        stats = build_stats(table, cfds=learned.cfds, witnesses=learned.witnesses)
        clone = pickle.loads(pickle.dumps(stats))
        assert_reports_equal(clone.finalise(), stats.finalise())

    def test_no_comparable_attributes_skips_reference_index(self):
        """names == () → 0.0 without paying for the reference index."""
        from repro.quality.stats import AccuracyStats

        disjoint = Table(Schema("other", [Attribute("postcode", DataType.STRING),
                                          Attribute("extra", DataType.STRING)]),
                         [("M1 1AA", "x")])
        stats = AccuracyStats.from_reference(("postcode", "extra"), disjoint,
                                             ("postcode", "extra"))
        assert stats.names == ()
        assert stats.reference_index == {}
        assert stats.value() == 0.0

    def test_stash_accessor_creates_once(self):
        from repro.core import KnowledgeBase

        kb = KnowledgeBase()
        assert quality_stats_stash(kb, create=False) is None
        stash = quality_stats_stash(kb)
        assert quality_stats_stash(kb) is stash
