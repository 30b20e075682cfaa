"""Tests for the quality sufficient-statistic layer (`repro.quality.stats`).

The contract under test: a maintained :class:`QualityStats` — fed any mix of
``add_row`` / ``remove_row`` / ``replace_row`` deltas — finalises to exactly
the report a full recomputation over the resulting row multiset produces,
and ``merge`` combines shard accumulators associatively. The CFD check that
consistency and repair share, and the key cells that consistency, accuracy
and relevance read, are compared with dict-row oracles. A bootstrap scores
each table object once.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
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
from repro.core.facts import Predicates, result_relation_name
from repro.quality import stats as stats_module
from repro.quality.stats import QualityStats
from repro.quality.transducers import (
    QUALITY_STATS_ARTIFACT_KEY,
    QualityMetricTransducer,
    QualityStatsEntry,
    QualityStatsStash,
    quality_stats_stash,
)
from repro.relational import Attribute, DataType, Schema, Table
from repro.relational.keys import normalise_key_tuple
from repro.relational.types import is_null
from repro.scenarios.synth import SynthConfig
from repro.service.session import WranglingSession

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


def oracle_consistency(names, rows, cfds, witnesses):
    """Per-CFD (checkable, violations) counts over ``rows``."""
    dict_rows = [dict(zip(names, values)) for values in rows]
    in_scope = [[row for row in dict_rows if oracle_applies(cfd, row)] for cfd in cfds]
    return (
        [len(scope) for scope in in_scope],
        [sum(not oracle_satisfied(cfd, row, witnesses.get(cfd.cfd_id)) for row in scope)
         for cfd, scope in zip(cfds, in_scope)],
    )


def oracle_cell_equal(left, right):
    if isinstance(left, str) and isinstance(right, str):
        return left.strip().lower() == right.strip().lower()
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return abs(float(left) - float(right)) < 1e-9
    return left == right


def oracle_accuracy(names, rows, reference, key):
    """(checked, correct) cells against the first reference row per key."""
    reference_names = reference.schema.attribute_names
    compared = [name for name in names
                if name in reference_names and name not in key and not name.startswith("_")]
    index = {}
    for values in reference.tuples():
        found = dict(zip(reference_names, values))
        found_key = normalise_key_tuple(found[attribute] for attribute in key)
        if None not in found_key:
            index.setdefault(found_key, found)
    checked = correct = 0
    for values in rows:
        row = dict(zip(names, values))
        found = index.get(normalise_key_tuple(row.get(attribute) for attribute in key))
        if found is None:
            continue
        for name in compared:
            if is_null(found.get(name)) or is_null(row.get(name)):
                continue
            checked += 1
            correct += oracle_cell_equal(row[name], found[name])
    return checked, correct


def oracle_covered(names, rows, master, key):
    """The multiset of master keys the rows cover."""
    master_names = master.schema.attribute_names
    master_keys = {
        normalise_key_tuple(dict(zip(master_names, values)).get(attribute) for attribute in key)
        for values in master.tuples()
    }
    covered = Counter()
    for values in rows:
        row_key = normalise_key_tuple(dict(zip(names, values)).get(attribute) for attribute in key)
        if None not in row_key and row_key in master_keys:
            covered[row_key] += 1
    return dict(covered)


#: Add (True) or remove steps, each with an index into the rows it picks from.
STEPS = st.lists(st.tuples(st.booleans(), st.integers(0, 30)), max_size=16)


def drive(stats, pool, steps):
    """Add rows of ``pool`` and remove live ones as ``steps`` say; the rows left."""
    live = []
    for add, index in steps:
        if add or not live:
            row = pool[index % len(pool)]
            stats.add_row(row)
            live.append(row)
        else:
            stats.remove_row(live.pop(index % len(live)))
    return live


def same(left, right):
    """Equal values of the same type (``1``, ``1.0`` and ``True`` differ)."""
    return repr(left) == repr(right) and type(left) is type(right)


# NULL and NaN, case and whitespace drift, and "1", 1, 1.0 and True.
CELLS = [None, float("nan"), "x", "X", " X ", "y", "1", 1, 1.0, True, 0, 2.5]
LAYOUT_NAMES = ["a", "b", "c", "d"]


@st.composite
def cfds(draw, cfd_id="cfd"):
    """A CFD whose RHS may be another CFD's LHS attribute."""
    lhs = tuple(draw(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=2,
                              unique=True)))
    pattern = tuple(
        (attribute, draw(st.sampled_from(CELLS)))
        for attribute in lhs
        if draw(st.booleans())
    )
    return CFD(
        cfd_id, "t", lhs,
        draw(st.sampled_from([name for name in LAYOUT_NAMES if name not in lhs])),
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
def context_tables(draw, name):
    """A context table over some layout attributes, and a key among them."""
    attributes = draw(st.lists(st.sampled_from(LAYOUT_NAMES), min_size=1, max_size=4,
                               unique=True))
    rows = draw(st.lists(st.tuples(*(st.sampled_from(CELLS) for _ in attributes)),
                         max_size=6))
    key = tuple(draw(st.lists(st.sampled_from(attributes), min_size=1, max_size=2,
                              unique=True)))
    return Table(Schema(name, attributes), rows, coerce=False, validate=False), key


@st.composite
def layouts(draw):
    """Attribute names in any order, at times without an LHS or RHS attribute."""
    names = draw(st.permutations(LAYOUT_NAMES))
    return tuple(names if draw(st.booleans()) else names[:draw(st.integers(1, 3))])


@st.composite
def repair_cases(draw):
    """A layout, 1–4 CFDs with witnesses, rows, and add/remove steps."""
    names = draw(layouts())
    dependencies = [draw(cfds(f"cfd{index}")) for index in range(draw(st.integers(1, 4)))]
    witness_of = {cfd.cfd_id: draw(witnesses(cfd)) for cfd in dependencies}
    rows = draw(st.lists(
        st.tuples(*(st.sampled_from(CELLS) for _ in names)), min_size=1, max_size=6))
    return names, dependencies, witness_of, rows, draw(STEPS)


#: cfd1 rewrites the LHS cell that cfd0 and cfd2 share, after cfd0 read it:
#: cfd2 must read the new value, in row 0 a value and in row 1 a NULL.
REWRITTEN_SHARED_LHS = (
    ("a", "b", "c"),
    [CFD("cfd0", "t", ("a",), "c"), CFD("cfd1", "t", ("b",), "a"),
     CFD("cfd2", "t", ("a",), "c")],
    {"cfd0": {("x",): "y"}, "cfd1": {("y",): 1}, "cfd2": {("x",): "old", (1,): "new"}},
    [("x", "y", "y"), (None, "y", "y")],
    [(True, 0), (True, 1), (False, 0)],
)


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
    @given(case=repair_cases())
    @example(case=REWRITTEN_SHARED_LHS)
    def test_repair_and_consistency_match_dict_row_oracle(self, case):
        names, dependencies, witness_of, rows, steps = case
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
        expected = oracle_consistency(names, rows, dependencies, witness_of)
        assert (stats.checkable, stats.violations) == expected

        maintained = QualityStats.for_schema(table.schema, cfds=dependencies,
                                             witnesses=witness_of)
        live = drive(maintained, rows, steps)
        expected = oracle_consistency(names, live, dependencies, witness_of)
        assert (maintained.consistency.checkable, maintained.consistency.violations) == expected

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


class TestKeyCellOracle:
    """Accuracy, relevance and consistency read one normalisation of each
    key cell; their counters must equal dict-row oracles after any
    sequence of adds and removes."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_counters_match_dict_row_oracles(self, data):
        names = data.draw(layouts())
        dependencies = [data.draw(cfds(f"cfd{index}")) for index in range(data.draw(
            st.integers(0, 3)))]
        witness_of = {cfd.cfd_id: data.draw(witnesses(cfd)) for cfd in dependencies}
        reference, reference_key = data.draw(context_tables("reference"))
        master, master_key = data.draw(context_tables("master"))
        pool = data.draw(st.lists(
            st.tuples(*(st.sampled_from(CELLS) for _ in names)), min_size=1, max_size=6))
        stats = QualityStats.for_schema(
            Schema("t", list(names)),
            reference=reference, reference_key=reference_key,
            cfds=dependencies, witnesses=witness_of,
            master=master, master_key=master_key,
        )
        live = drive(stats, pool, data.draw(STEPS))
        assert (stats.accuracy.checked, stats.accuracy.correct) == oracle_accuracy(
            names, live, reference, reference_key)
        assert stats.relevance.covered == oracle_covered(names, live, master, master_key)
        assert (stats.consistency.checkable, stats.consistency.violations) == (
            oracle_consistency(names, live, dependencies, witness_of))


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


class TestScoredOnce:
    """Each table object is scored once; later readers use its stash entry."""

    @staticmethod
    def bootstrapped(monkeypatch):
        session = WranglingSession.from_scenario(
            SynthConfig(family="product_catalog", entities=60, seed=1))
        builds = Counter()
        scored = []  # keeps every scored table alive, so ids stay unique
        original = stats_module.build_stats

        def counting(table, **kwargs):
            scored.append(table)
            builds[table.name, id(table)] += 1
            return original(table, **kwargs)

        monkeypatch.setattr(stats_module, "build_stats", counting)
        session.wrangler.run("bootstrap", evaluate=False)
        return session.wrangler, builds

    def test_bootstrap_builds_each_table_once(self, monkeypatch):
        wrangler, builds = self.bootstrapped(monkeypatch)
        assert max(builds.values()) == 1
        per_relation = Counter(name for name, _table in builds)
        for source in wrangler.kb.source_relations():
            assert per_relation[source] == 1

    def test_evaluate_after_bootstrap_reads_the_stash(self, monkeypatch):
        wrangler, builds = self.bootstrapped(monkeypatch)
        builds.clear()
        report = wrangler.evaluate()
        assert not builds
        assert report == wrangler.evaluate(use_stats=False)

    def test_stash_pickled_without_the_table_is_stale(self, monkeypatch):
        """A checkpoint written before entries recorded their table."""
        wrangler, builds = self.bootstrapped(monkeypatch)
        kb = wrangler.kb
        name = result_relation_name(wrangler.target_relation)
        stash = quality_stats_stash(kb, create=False)
        assert stash.fresh(kb, name)
        legacy = object.__new__(QualityStatsStash)
        legacy.__dict__.update(entries={}, context_token=stash.context_token,
                               synced_revision=kb.revision)
        for relation, entry in stash.entries.items():
            old = object.__new__(QualityStatsEntry)
            old.__dict__.update(subject_kind=entry.subject_kind, stats=entry.stats)
            legacy.entries[relation] = old
        restored = pickle.loads(pickle.dumps(legacy))
        assert restored.entries[name].table is None
        assert not restored.fresh(kb, name)
        kb.store_artifact(QUALITY_STATS_ARTIFACT_KEY, restored)
        builds.clear()
        assert wrangler.evaluate() == wrangler.evaluate(use_stats=False)
        assert sum(builds.values()) == 2

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP 11: the metric transducer rebuilds an entry that holds query"
        " observations, and the rebuilt entry drops them"))
    def test_query_agreement_survives_a_metric_run(self, monkeypatch):
        """The certain-vs-repaired agreement ``Wrangler.query`` recorded
        still scores the result after the metric transducer runs again."""
        wrangler, _builds = self.bootstrapped(monkeypatch)
        kb = wrangler.kb
        name = result_relation_name(wrangler.target_relation)
        wrangler.query(f"q(K) :- {wrangler.target_relation}(sku=K).", mode="both")
        agreement = wrangler.evaluate().answer_agreement
        assert agreement is not None
        QualityMetricTransducer().execute(kb)
        assert wrangler.evaluate().answer_agreement == agreement
        criteria = {row[2] for row in kb.facts(Predicates.METRIC) if row[1] == name}
        assert "answer_agreement" in criteria
