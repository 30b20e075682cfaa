"""Unit tests for blocking, duplicate detection, fusion and their transducers."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import KnowledgeBase, Predicates
from repro.fusion import (
    DataFuser,
    DataFusionTransducer,
    DuplicateDetectionTransducer,
    DuplicateDetector,
    DuplicateDetectorConfig,
    DuplicatePair,
    DUPLICATES_ARTIFACT_KEY,
    FusionPolicy,
    block_by_attributes,
    block_by_key_function,
    candidate_blocks,
    cluster_pairs,
)
from repro.relational import Attribute, DataType, Schema, Table
from repro.relational.types import is_null

LISTING_SCHEMA = Schema("property_result", [
    Attribute("street", DataType.STRING),
    Attribute("postcode", DataType.STRING),
    Attribute("price", DataType.FLOAT),
    Attribute("bedrooms", DataType.INTEGER),
    Attribute("description", DataType.STRING),
])


def listing_table() -> Table:
    return Table(LISTING_SCHEMA, [
        # rows 0 and 1 are the same property listed on two portals
        ("Oak Street", "M1 1AA", 250000.0, 3, "A 3 bedroom detached property"),
        ("Oak Street", "m1 1aa", 250000.0, 3, "A 3 bedroom detached property"),
        # row 2 is a different property in the same postcode
        ("Oak Street", "M1 1AA", 410000.0, 4, "A 4 bedroom detached property with garden"),
        # row 3 is unrelated
        ("Elm Road", "M5 3CC", 180000.0, 2, "A 2 bedroom terraced property"),
    ])


class TestBlocking:
    def test_block_by_attributes_normalises_keys(self):
        blocks = block_by_attributes(listing_table(), ["postcode"])
        assert len(blocks[("m11aa",)]) == 3

    def test_null_keys_become_singletons(self):
        table = listing_table().extend([(None, None, 1.0, 1, "x")])
        blocks = block_by_attributes(table, ["postcode"])
        singleton_blocks = [b for key, b in blocks.items() if key[0] == "__null__"]
        assert singleton_blocks and all(len(b) == 1 for b in singleton_blocks)

    def test_block_by_key_function(self):
        blocks = block_by_key_function(listing_table(), lambda row: row["bedrooms"])
        assert set(blocks) == {3, 4, 2}

    def test_candidate_blocks_skip_large_blocks(self):
        schema = Schema("t", [Attribute("postcode", DataType.STRING)])
        table = Table(schema, [("big",)] * 5 + [("small",), (None,), ("small",), (None,)])
        blocks = candidate_blocks(table, ["postcode"], max_block_size=4)
        assert blocks == [[5, 7]]
        assert candidate_blocks(table, [], max_block_size=4) == [list(range(9))]


def oracle_pair_similarity(detector: DuplicateDetector, left: dict, right: dict) -> float:
    """``pair_similarity`` over dict rows: each comparison attribute both
    rows hold, looked up by name."""
    scores = []
    for attribute in detector.config.comparison_attributes:
        if attribute in left and attribute in right:
            if is_null(left[attribute]) or is_null(right[attribute]):
                scores.append(0.5)
            else:
                scores.append(detector._value_similarity(left[attribute], right[attribute]))
    return sum(scores) / len(scores) if scores else 0.0


class TestDuplicateDetector:
    def test_finds_true_duplicate_only(self):
        pairs = DuplicateDetector().detect(listing_table())
        assert [pair.as_tuple() for pair in pairs] == [(0, 1)]

    def test_threshold_controls_aggressiveness(self):
        lax = DuplicateDetector(DuplicateDetectorConfig(threshold=0.5))
        assert len(lax.detect(listing_table())) >= 1

    def test_pair_similarity_null_neutral(self):
        table = Table(LISTING_SCHEMA, [
            ("Oak Street", "M1 1AA", None, 3, "x"),
            ("Oak Street", "M1 1AA", 250000.0, 3, "x"),
        ])
        rows = table.rows()
        score = DuplicateDetector().pair_similarity(rows[0], rows[1])
        assert 0.5 < score < 1.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_pair_similarity_across_schemas_equals_dict_oracle(self, data):
        """Rows of two layouts (different column orders, attributes on one
        side only) score as a by-name comparison of dict rows does, whichever
        schema pair the detector scored before."""
        detector = DuplicateDetector()
        names = ["street", "price", "bedrooms", "type", "description", "postcode"]
        values = st.sampled_from(["Oak Street", "oak street ", "Elm Road", "", None, 3, 3.0,
                                  4, 250000.0, 251000, True, math.nan])
        rows = []
        for side in ("left", "right"):
            layout = data.draw(st.permutations(names).flatmap(
                lambda order: st.integers(1, len(order)).map(lambda n: order[:n])))
            schema = Schema(side, [Attribute(name, DataType.ANY) for name in layout])
            table = Table(schema, [tuple(data.draw(values) for _ in layout)],
                          coerce=False, validate=False)
            rows.append(table.rows()[0])
        left, right = rows
        for first, second in ((left, right), (right, left), (left, left), (left, right)):
            expected = oracle_pair_similarity(detector, first.to_dict(), second.to_dict())
            assert detector.pair_similarity(first, second) == expected

    def test_candidates_skip_pairs_outside_the_price_window(self):
        # Price is the only comparison attribute: a pair reaches 0.92 only
        # within a relative price difference of 8%; NULL prices score 0.5.
        schema = Schema("t", [Attribute("price", DataType.FLOAT)])
        table = Table(schema, [(100.0,), (93.0,), (91.0,), (None,), (-100.0,), (0.0,), (0.0,)])
        detector = DuplicateDetector(
            DuplicateDetectorConfig(blocking_attributes=(), comparison_attributes=("price",))
        )
        assert list(detector.candidates(table)) == [(0, 1), (1, 2), (5, 6)]
        assert list(detector.candidates(table, touching=[2, 3])) == [(1, 2)]

    def test_cluster_pairs_union_find(self):
        pairs = [DuplicatePair(0, 1, 0.95), DuplicatePair(1, 2, 0.95), DuplicatePair(4, 5, 0.99)]
        clusters = cluster_pairs(pairs, size=6)
        assert sorted(map(tuple, clusters)) == [(0, 1, 2), (4, 5)]


# -- hypothesis: the candidate generator is exact -----------------------------

PROPERTY_SCHEMA = Schema(
    "listing",
    [
        Attribute("postcode", DataType.STRING),
        Attribute("street", DataType.STRING),
        Attribute("price", DataType.FLOAT),
        Attribute("bedrooms", DataType.INTEGER),
    ],
)

#: Values of a numeric column: clustered numbers (so windows have edges
#: to get wrong), ints mixed with floats, zeros, signs, infinities, NULL,
#: NaN, and the bools and strings a dirty column can hold.
NUMERIC_VALUES = st.one_of(
    st.sampled_from([100, 99, 96, 92, 91, 90, 80, 60, 50, 0, -92, -100]),
    st.sampled_from([100.0, 99.5, 95.0, 92.0, 91.9, 90.0, 108.0, 0.0, -0.0, -100.0]),
    st.sampled_from([math.inf, -math.inf, math.nan, None, "100", "abc", "true"]),
    st.booleans(),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(min_value=-1000, max_value=1000),
)

ROWS = st.lists(
    st.tuples(
        st.sampled_from(["M1", "m1", "M2", None]),
        st.sampled_from(["Oak Street", "oak street", "Oak St", "Elm Road", "", None]),
        NUMERIC_VALUES,
        NUMERIC_VALUES,
    ),
    max_size=16,
)

#: Uniform draws plus the values where a bound sits exactly on a score.
UNIT = st.one_of(
    st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0.0, 0.5, 0.75, 0.92, 1.0])
)

CONFIGS = st.builds(
    DuplicateDetectorConfig,
    blocking_attributes=st.sampled_from([(), ("postcode",), ("absent",)]),
    comparison_attributes=st.lists(
        st.sampled_from(["street", "price", "bedrooms", "absent"]), unique=True
    ).map(tuple),
    threshold=UNIT,
    numeric_tolerance=st.one_of(
        st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0.0, 0.01, 0.08, 0.5])
    ),
    max_block_size=st.integers(min_value=2, max_value=8),
)

#: Pairs that score exactly the threshold: a relative price difference of
#: exactly ``1 - threshold`` (alone, or beside an exact match where the
#: float bound ``0.8·2 − 1`` rounds above the price score 0.6), and a NULL
#: (0.5) beside an exact match.
ON_THE_BOUND = [
    ([(None, None, 100.0, None), (None, None, 92.0, None)], ("price",), 0.92),
    ([(None, None, 100, None), (None, None, 92, None)], ("price",), 0.92),
    ([(None, "Oak", 3.0, None), (None, "Oak", 5.0, None)], ("street", "price"), 0.8),
    ([(None, "Oak", None, None), (None, "Oak", 5.0, None)], ("street", "price"), 0.75),
]


def reference_detect(detector: DuplicateDetector, table: Table) -> list[DuplicatePair]:
    """Detection by brute force: every within-block pair (every pair when
    no blocking attribute is in the schema), each scored."""
    config = detector.config
    blocking = [name for name in config.blocking_attributes if name in table.schema]
    if blocking:
        groups = [
            members
            for members in block_by_attributes(table, blocking).values()
            if 2 <= len(members) <= config.max_block_size
        ]
    else:
        groups = [list(range(len(table)))]
    rows = table.rows()
    found = []
    for members in groups:
        for position, left in enumerate(members):
            for right in members[position + 1 :]:
                score = detector.pair_similarity(rows[left], rows[right])
                if score >= config.threshold:
                    found.append(DuplicatePair(left, right, round(score, 6)))
    return found


class TestCandidateGeneratorExact:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=ROWS, config=CONFIGS)
    def test_detect_equals_brute_force(self, rows, config):
        table = Table(PROPERTY_SCHEMA, rows, coerce=False, validate=False)
        detector = DuplicateDetector(config)
        assert detector.detect(table) == reference_detect(detector, table)

    @pytest.mark.parametrize("rows,compared,threshold", ON_THE_BOUND)
    def test_pairs_on_the_bound_are_kept(self, rows, compared, threshold):
        table = Table(PROPERTY_SCHEMA, rows, coerce=False, validate=False)
        config = DuplicateDetectorConfig(
            blocking_attributes=(), comparison_attributes=compared, threshold=threshold
        )
        assert [pair.as_tuple() for pair in DuplicateDetector(config).detect(table)] == [(0, 1)]

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=ROWS, config=CONFIGS, data=st.data())
    def test_touching_covers_every_qualifying_pair(self, rows, config, data):
        table = Table(PROPERTY_SCHEMA, rows, coerce=False, validate=False)
        touching = data.draw(st.sets(st.integers(min_value=0, max_value=max(len(rows) - 1, 0))))
        detector = DuplicateDetector(config)
        candidates = list(detector.candidates(table, touching=touching))
        assert candidates == [
            (i, j) for i, j in detector.candidates(table) if i in touching or j in touching
        ]
        assert len(set(candidates)) == len(candidates)
        assert all(i < j and (i in touching or j in touching) for i, j in candidates)
        qualifying = {
            pair.as_tuple()
            for pair in reference_detect(detector, table)
            if pair.left_index in touching or pair.right_index in touching
        }
        assert qualifying <= set(candidates)


class TestDataFuser:
    def test_prefer_non_null_keeps_first_value(self):
        table = listing_table()
        pairs = [DuplicatePair(0, 1, 0.95)]
        outcome = DataFuser().fuse(table, pairs)
        assert len(outcome.table) == 3
        assert outcome.rows_removed == 1
        assert outcome.clusters_fused == 1
        assert outcome.table[0]["postcode"] == "M1 1AA"

    def test_majority_and_numeric_policies(self):
        schema = Schema("t", [Attribute("price", DataType.FLOAT),
                              Attribute("type", DataType.STRING)])
        table = Table(schema, [(100.0, "flat"), (120.0, "flat"), (110.0, "FLAT")])
        pairs = [DuplicatePair(0, 1, 0.9), DuplicatePair(1, 2, 0.9)]
        fuser = DataFuser(attribute_policies={"price": FusionPolicy.MIN,
                                              "type": FusionPolicy.MAJORITY})
        outcome = fuser.fuse(table, pairs)
        assert len(outcome.table) == 1
        assert outcome.table[0]["price"] == 100.0
        assert outcome.table[0]["type"].lower() == "flat"
        assert outcome.conflicts_resolved >= 1

    def test_longest_policy(self):
        schema = Schema("t", [Attribute("description", DataType.STRING)])
        table = Table(schema, [("short",), ("a much longer description",)])
        fuser = DataFuser(default_policy=FusionPolicy.LONGEST)
        outcome = fuser.fuse(table, [DuplicatePair(0, 1, 0.9)])
        assert outcome.table[0]["description"] == "a much longer description"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            DataFuser(default_policy="coin_flip")
        with pytest.raises(ValueError):
            DataFuser(attribute_policies={"x": "coin_flip"})

    def test_no_duplicates_is_identity(self):
        table = listing_table()
        outcome = DataFuser().fuse(table, [])
        assert outcome.table is table
        assert outcome.rows_removed == 0


class TestFusionTransducers:
    def setup_kb(self) -> KnowledgeBase:
        kb = KnowledgeBase()
        kb.catalog.register(listing_table())
        kb.assert_fact(Predicates.RESULT, "property_result", "m1", 4)
        return kb

    def test_detection_then_fusion(self):
        kb = self.setup_kb()
        detection = DuplicateDetectionTransducer()
        assert detection.can_run(kb)
        detection.execute(kb)
        assert kb.count(Predicates.DUPLICATE) == 1
        assert kb.get_artifact(DUPLICATES_ARTIFACT_KEY)["property_result"]

        fusion = DataFusionTransducer()
        assert fusion.can_run(kb)
        outcome = fusion.execute(kb)
        assert "property_result" in outcome.tables_written
        assert len(kb.get_table("property_result")) == 3
        # the result fact is refreshed with the new row count
        assert kb.has(Predicates.RESULT, "property_result", "m1", 3)

    def test_fusion_not_runnable_without_duplicates(self):
        kb = self.setup_kb()
        assert not DataFusionTransducer().can_run(kb)
