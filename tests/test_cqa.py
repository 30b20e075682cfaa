"""Tests for repro.cqa: parsing, classification, rewriting, enumeration and
the Wrangler/service query surface.

The load-bearing property throughout: for every query, ``mode="certain"``
(rewriting or exhaustive enumeration) equals the brute-force intersection
of the query's answers over every repair of the dirty instance.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cqa import (
    ConjunctiveQuery,
    EnumerationConfig,
    QueryAtom,
    QueryParseError,
    Var,
    answer_certain,
    build_edb,
    build_repair_space,
    classify,
    compile_certain,
    certain_answers,
    enumerate_certain,
    keys_from_cfds,
    parse_query,
    query_answers,
)
from repro.cqa.enumerate import _order_key
from repro.datalog.engine import Engine
from repro.quality.cfd import CFD
from repro.quality.stats import AnswerAgreementStats
from repro.scenarios.synth import SynthConfig
from repro.service.api import QueryRequest, QueryResponse, request_from_dict
from repro.service.session import WranglingSession
from repro.wrangler.pipeline import CQA_AGREEMENT_ARTIFACT_KEY


# -- fixtures -----------------------------------------------------------------

R_SCHEMA = ("emp", "dept", "city")
S_SCHEMA = ("dept", "head")

#: Dirty: emp is the key of r, dept the key of s; e1 and d1 have conflicts.
R_DIRTY = [
    ("e1", "d1", "manchester"),
    ("e1", "d2", "manchester"),
    ("e2", "d1", "leeds"),
    ("e3", "d2", "york"),
]
S_DIRTY = [
    ("d1", "ada"),
    ("d1", "grace"),
    ("d2", "alan"),
]

SCHEMAS = {"r": R_SCHEMA, "s": S_SCHEMA}
TABLES = {"r": R_DIRTY, "s": S_DIRTY}
KEYS = {"r": ("emp",), "s": ("dept",)}


def brute_force_certain(query, schemas, tables, keys):
    """The textbook definition: intersect answers over *all* repairs."""
    space = build_repair_space(tables, schemas, keys, query)
    answers = None
    for repaired in space.repairs(max_repairs=10**9):
        per_repair = set(query_answers(query, schemas, repaired))
        answers = per_repair if answers is None else answers & per_repair
    return tuple(sorted(answers or set(), key=_order_key))


# -- parsing ------------------------------------------------------------------


class TestParse:
    def test_round_trip(self):
        text = 'q(K, V) :- r(emp=K, dept=V), s(dept=V, head="ada").'
        parsed = parse_query(text)
        assert parsed.name == "q"
        assert list(parsed.head) == ["K", "V"]
        assert parse_query(str(parsed)) == parsed

    def test_constants(self):
        parsed = parse_query(
            "q(X) :- t(a=X, b=3, c=2.5, d=null, e=true, f=word, g='two words')."
        )
        bound = dict(parsed.atoms[0].bindings)
        assert bound["b"] == 3 and bound["c"] == 2.5
        assert bound["d"] is None and bound["e"] is True
        assert bound["f"] == "word" and bound["g"] == "two words"

    def test_head_must_be_variables_from_body(self):
        with pytest.raises(QueryParseError):
            parse_query('q("x") :- t(a=Y).')
        with pytest.raises(ValueError, match="head variable"):
            parse_query("q(X) :- t(a=Y).")

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(QueryParseError, match="twice"):
            parse_query("q(X) :- t(a=X, a=Y).")

    def test_garbage_rejected(self):
        with pytest.raises(QueryParseError):
            parse_query("q(X) :- ")
        with pytest.raises(QueryParseError):
            parse_query("q(X) :- t(a=X) extra.")


class TestKeysFromCfds:
    def test_exact_variable_cfds_become_keys(self):
        cfds = [
            CFD("c1", "t", ("a",), "b", confidence=1.0),
            CFD("c2", "t", ("a",), "c", confidence=1.0),
        ]
        keys = keys_from_cfds(cfds, {"t": ("a", "b", "c")})
        assert keys == {"t": ("a",)}

    def test_inexact_and_constant_cfds_ignored(self):
        cfds = [
            CFD("c1", "t", ("a",), "b", confidence=0.9),
            CFD("c2", "t", ("a",), "c",
                lhs_pattern=(("a", "fixed"),), confidence=1.0),
        ]
        assert keys_from_cfds(cfds, {"t": ("a", "b", "c")}) == {}

    def test_partial_dependencies_shrink_not_drop(self):
        cfds = [CFD("c1", "t", ("a",), "b", confidence=1.0)]
        # a -> b alone: c must stay in the key, b falls out.
        assert keys_from_cfds(cfds, {"t": ("a", "b", "c")}) == {"t": ("a", "c")}

    def test_no_exact_cfds_no_keys(self):
        assert keys_from_cfds([], {"t": ("a", "b")}) == {}


# -- classification -----------------------------------------------------------


class TestClassify:
    def test_selection_is_rewritable(self):
        decision = classify(parse_query("q(K) :- r(emp=K, city=C)."), KEYS)
        assert decision.rewritable
        assert decision.plan is not None

    def test_key_join_is_rewritable(self):
        query = parse_query("q(K, H) :- r(emp=K, dept=D), s(dept=D, head=H).")
        decision = classify(query, KEYS)
        assert decision.rewritable

    def test_self_join_is_not(self):
        query = parse_query("q(K) :- r(emp=K, city=C), r(emp=E, city=C).")
        decision = classify(query, KEYS)
        assert not decision.rewritable
        assert "self-join" in decision.reason

    def test_boolean_query_is_not(self):
        decision = classify(parse_query("q() :- r(emp=K)."), KEYS)
        assert not decision.rewritable

    def test_nonkey_join_between_keyed_atoms_is_not(self):
        # city is a non-key position in r; joining s on a non-key var of a
        # keyed atom whose own non-key position carries it twice → two keyed
        # value occurrences.
        query = parse_query("q(A) :- r(emp=A, city=C), s(dept=C, head=H).")
        keys = {"r": ("emp",), "s": ("head",)}
        decision = classify(query, keys)
        assert not decision.rewritable

    def test_unkeyed_relations_are_always_fine(self):
        query = parse_query("q(A, B) :- r(emp=A, dept=D), s(dept=D, head=B).")
        assert classify(query, {}).rewritable


# -- rewriting vs brute force -------------------------------------------------

REWRITABLE_QUERIES = [
    "q(K) :- r(emp=K).",
    "q(K, C) :- r(emp=K, city=C).",
    'q(K) :- r(emp=K, city="manchester").',
    'q(C) :- r(emp="e1", city=C).',
    "q(H) :- s(dept=D, head=H).",
    "q(K, H) :- r(emp=K, dept=D), s(dept=D, head=H).",
    'q(K) :- r(emp=K, dept=D), s(dept=D, head="ada").',
]

FALLBACK_QUERIES = [
    "q(K) :- r(emp=K, city=C), r(emp=E, city=C).",
    "q() :- r(emp=K, dept=D), s(dept=D, head=H).",
    'q() :- r(emp="e1", city="manchester").',
]


class TestCertainAnswers:
    @pytest.mark.parametrize("text", REWRITABLE_QUERIES)
    def test_rewriting_matches_brute_force(self, text):
        query = parse_query(text)
        decision = classify(query, KEYS)
        assert decision.rewritable, decision.reason
        compiled = compile_certain(decision.plan, SCHEMAS)
        got = tuple(sorted(tuple(row) for row in certain_answers(compiled, TABLES)))
        assert got == brute_force_certain(query, SCHEMAS, TABLES, KEYS)

    @pytest.mark.parametrize("text", REWRITABLE_QUERIES + FALLBACK_QUERIES)
    def test_answer_certain_matches_brute_force(self, text):
        query = parse_query(text)
        result = answer_certain(query, SCHEMAS, TABLES, KEYS)
        assert result.exact
        assert result.answers == brute_force_certain(query, SCHEMAS, TABLES, KEYS)

    def test_certain_is_a_subset_of_naive(self):
        query = parse_query("q(K, H) :- r(emp=K, dept=D), s(dept=D, head=H).")
        certain = set(answer_certain(query, SCHEMAS, TABLES, KEYS).answers)
        naive = set(query_answers(query, SCHEMAS, TABLES))
        assert certain <= naive

    def test_method_reporting(self):
        rewritable = answer_certain(
            parse_query("q(K) :- r(emp=K)."), SCHEMAS, TABLES, KEYS)
        assert rewritable.method == "rewriting"
        fallback = answer_certain(
            parse_query(FALLBACK_QUERIES[0]), SCHEMAS, TABLES, KEYS)
        assert fallback.method == "enumeration"
        assert fallback.enumeration is not None

    def test_keyed_child_anchors_only_blocks_that_can_match(self):
        """A keyed child's anchor holds a block for a candidate only when the
        block has a tuple with the candidate's values: n shipments with
        distinct keys under one depot give at most n anchor facts, not n²."""
        n = 50
        schemas = {
            "shipment": ("tracking_id", "origin_depot", "carrier"),
            "depots": ("origin_depot", "manager"),
        }
        tables = {
            "shipment": [(f"t{i}", "d1", f"c{i}") for i in range(n)],
            "depots": [("d1", "ada")],
        }
        query = parse_query(
            "q(K, M) :- shipment(tracking_id=K, origin_depot=D),"
            " depots(origin_depot=D, manager=M).")
        plan = classify(query, {"shipment": ("origin_depot", "carrier")}).plan
        child = next(node for node in plan.nodes if node.relation == "shipment")
        assert child.keyed and child.parent is not None
        compiled = compile_certain(plan, schemas)
        model = Engine(compiled.program).run(build_edb(tables))
        assert model.count(f"_cqa_{child.index}_anchor") <= n
        assert len(certain_answers(compiled, tables)) == n

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP 9(d): the rewriting joins a tuple's own NaN against itself,"
        " and the reasoner holds that NaN equals nothing"))
    @pytest.mark.parametrize("text, rows, expected", [
        # consistent: the only repair answers d1
        ("q(D) :- u(d=D, f=F).", [("d1", math.nan)], (("d1",),)),
        # the two repairs answer (nan,) and ("x",), so nothing is certain
        ("q(F) :- u(d=D, f=F).", [("d1", math.nan), ("d1", "x")], ()),
    ])
    def test_nan_values_answer_as_every_repair_does(self, text, rows, expected):
        result = answer_certain(
            parse_query(text), {"u": ("d", "f")}, {"u": rows}, {"u": ("d",)})
        assert result.answers == expected

    def test_boolean_query_convention(self):
        certainly_true = answer_certain(
            parse_query('q() :- s(dept="d2", head=H).'), SCHEMAS, TABLES, KEYS)
        assert certainly_true.answers == ((),)
        not_certain = answer_certain(
            parse_query('q() :- s(dept="d1", head="ada").'), SCHEMAS, TABLES, KEYS)
        assert not_certain.answers == ()


# -- enumeration budgets ------------------------------------------------------


class TestEnumeration:
    def _wide_instance(self, blocks: int, width: int):
        rows = [
            (f"k{index}", f"v{choice}")
            for index in range(blocks)
            for choice in range(width)
        ]
        return {"t": ("k", "v")}, {"t": rows}, {"t": ("k",)}

    def test_exhaustive_below_budget(self):
        schemas, tables, keys = self._wide_instance(3, 2)
        result = enumerate_certain(
            parse_query("q(K, V) :- t(k=K, v=V)."), schemas, tables, keys,
            EnumerationConfig(max_repairs=8))
        assert result.total_repairs == 8
        assert result.repairs_evaluated <= 8
        assert result.exact and not result.truncated

    def test_sampling_over_budget_overapproximates(self):
        schemas, tables, keys = self._wide_instance(10, 2)  # 1024 repairs
        query = parse_query("q(K, V) :- t(k=K, v=V).")
        sampled = enumerate_certain(
            query, schemas, tables, keys, EnumerationConfig(max_repairs=16, seed=1))
        assert sampled.truncated
        assert sampled.repairs_evaluated <= 16
        exact = brute_force_certain(query, schemas, tables, keys)
        assert set(exact) <= set(sampled.answers)
        # every block conflicts, so nothing is certain; the empty
        # intersection is reached and reported exact even while sampling.
        if not sampled.answers:
            assert sampled.exact

    def test_timeout_reported(self):
        schemas, tables, keys = self._wide_instance(6, 2)
        result = enumerate_certain(
            parse_query("q(K, V) :- t(k=K, v=V)."), schemas, tables, keys,
            EnumerationConfig(max_repairs=64, timeout_seconds=0.0))
        assert result.timed_out
        assert result.repairs_evaluated >= 1

    def test_null_and_string_keys_coexist(self):
        # Regression: the deterministic block ordering used to compare raw
        # key values, and NULL keys against string keys raised TypeError.
        schemas = {"t": ("k", "v")}
        tables = {"t": [(None, "x"), (None, "y"), ("k0", "x"), ("k0", "y"), (1, "z")]}
        keys = {"t": ("k",)}
        query = parse_query("q(K, V) :- t(k=K, v=V).")
        result = enumerate_certain(query, schemas, tables, keys)
        assert result.exact
        assert result.answers == brute_force_certain(query, schemas, tables, keys)
        # the NULL block and the k0 block both conflict; the singleton survives
        assert result.answers == ((1, "z"),)

    def test_irrelevant_blocks_are_forced_not_multiplied(self):
        schemas, tables, keys = self._wide_instance(8, 2)
        query = parse_query('q(V) :- t(k="k0", v=V).')
        space = build_repair_space(tables, schemas, keys, query)
        # only k0's block is relevant to the constant filter
        assert len(space.choice_blocks) == 1
        assert space.total_repairs == 2
        # every yielded instance is a repair: one tuple left per key block
        for repaired in space.repairs(max_repairs=10):
            assert sorted(key for key, _value in repaired["t"]) == [f"k{i}" for i in range(8)]
        result = enumerate_certain(query, schemas, tables, keys)
        assert result.exact
        assert result.answers == brute_force_certain(query, schemas, tables, keys)


# -- hypothesis: the certain-answer contract on random dirty tables -----------

_VALUES = st.sampled_from(["a", "b", "c", 1, 2, None])


@st.composite
def dirty_instances(draw):
    """A small keyed relation with conflicts, plus a query over it."""
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(["k1", "k2", "k3"]), _VALUES, _VALUES),
            min_size=1,
            max_size=7,
        )
    )
    constant = draw(_VALUES)
    query = draw(
        st.sampled_from(
            [
                "q(K, A) :- t(k=K, a=A).",
                "q(K) :- t(k=K, a=A, b=B).",
                "q(A, B) :- t(a=A, b=B).",
            ]
        )
    )
    return rows, constant, query


@given(dirty_instances())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_certain_answers_property(case):
    """answer_certain == brute force, and ⊆ every single repair's answers."""
    rows, constant, text = case
    schemas = {"t": ("k", "a", "b")}
    tables = {"t": rows}
    keys = {"t": ("k",)}
    query = parse_query(text)

    result = answer_certain(query, schemas, tables, keys)
    assert result.exact
    expected = brute_force_certain(query, schemas, tables, keys)
    assert result.answers == expected

    certain = set(result.answers)
    space = build_repair_space(tables, schemas, keys, query)
    for repaired in itertools.islice(space.repairs(max_repairs=10**9), 0, 20):
        assert certain <= set(query_answers(query, schemas, repaired))


# -- hypothesis: rewriting equals brute force over key-join forests -----------

FOREST_ATTRS = ("a", "b", "c", "d")
FOREST_SCHEMAS = {relation: FOREST_ATTRS for relation in ("r", "s", "t")}

#: Strings, ints, a float equal to an int, and NULL. Two kinds of value are
#: left out: a bool beside an int, because which of them a relation stores
#: depends on evaluation order (ROADMAP 9(c)), and NaN, on which the
#: rewriting disagrees with the repairs (ROADMAP 9(d)).
_FOREST_VALUES = st.sampled_from(["x", "y", 1, 2, 1.0, None])


@st.composite
def key_join_forests(draw):
    """A self-join-free query of 2–3 atoms over ``r``, ``s`` and ``t``, the
    keys (none, one attribute or two per relation) and a small dirty instance.

    Each non-root atom shares one variable with its parent, chains most
    often: at a key position of a keyed child, and at a non-key position of
    a keyed parent (or at its key, which may flip the edge or be rejected).
    Head variables and constants sit mostly at non-key positions. Every
    value comes from a pool of two or three values drawn per case, so NULLs
    reach keys and join columns and several blocks share a join value.
    """
    pool = st.sampled_from(
        draw(st.lists(_FOREST_VALUES, min_size=2, max_size=3, unique_by=repr)))
    size = draw(st.sampled_from((3, 3, 2)))
    relations = draw(st.permutations(("r", "s", "t")))[:size]
    keys: dict[str, tuple[str, ...]] = {}
    for relation in relations:
        width = draw(st.integers(0, 2))
        if width:
            keys[relation] = tuple(draw(st.permutations(FOREST_ATTRS))[:width])
    bindings: list[dict[str, object]] = [{} for _ in relations]

    def free(index: int, at_key: bool) -> list[str]:
        key = keys.get(relations[index])
        return [
            attribute for attribute in FOREST_ATTRS
            if attribute not in bindings[index]
            and (key is None or (attribute in key) == at_key)
        ]

    for child in range(1, size):
        parent = draw(st.sampled_from([child - 1, *range(child), None]))
        if parent is None:
            continue
        join = Var(f"J{child}")
        parent_at_key = draw(st.sampled_from((False, False, True)))
        for index, at_key in ((child, True), (parent, parent_at_key)):
            slots = free(index, at_key) or free(index, not at_key)
            if slots:
                bindings[index][draw(st.sampled_from(slots))] = join

    for index, relation in enumerate(relations):
        for attribute in FOREST_ATTRS:
            if attribute in bindings[index]:
                continue
            at_key = attribute in keys.get(relation, ())
            kinds = ("skip", "head", "local") if at_key else ("skip", "head", "const", "local")
            kind = draw(st.sampled_from(kinds))
            if kind == "head":
                bindings[index][attribute] = Var(draw(st.sampled_from(("H0", "H1"))))
            elif kind == "const":
                bindings[index][attribute] = draw(pool)
            elif kind == "local":
                bindings[index][attribute] = Var(f"L{index}")
    head = sorted({
        term.name for terms in bindings for term in terms.values()
        if isinstance(term, Var) and term.name.startswith("H")
    })
    if not head:
        spare = [(i, a) for i in range(size) for a in FOREST_ATTRS if a not in bindings[i]]
        if spare:
            index, attribute = spare[-1]
            bindings[index][attribute] = Var("H0")
            head = ["H0"]
    for index in range(size):
        if not bindings[index]:
            bindings[index]["a"] = Var(f"L{index}")
    query = ConjunctiveQuery(
        head, [QueryAtom(relation, bindings[i]) for i, relation in enumerate(relations)])

    # Rows: a witness of the whole query and a second one that differs from
    # it in one variable (each kept per relation with chance 3/4), copies of
    # them with one value redrawn (a block-mate, or a new block that shares
    # the join value) and a little noise.
    names = sorted({name for atom in query.atoms for name in atom.variables()})
    first = draw(st.fixed_dictionaries({name: pool for name in names}))
    witnesses = [first]
    if names:
        witnesses.append({**first, draw(st.sampled_from(names)): draw(pool)})

    def value(index: int, attribute: str, witness: dict) -> object:
        if attribute not in bindings[index]:
            return draw(pool)
        term = bindings[index][attribute]
        return witness[term.name] if isinstance(term, Var) else term

    tables = {}
    for index, relation in enumerate(relations):
        rows = [
            tuple(value(index, attribute, witness) for attribute in FOREST_ATTRS)
            for witness in witnesses if draw(st.integers(0, 3))
        ]
        for row in list(rows):
            if draw(st.booleans()):
                position = draw(st.integers(0, len(FOREST_ATTRS) - 1))
                rows.append(row[:position] + (draw(pool),) + row[position + 1:])
        rows += draw(st.lists(st.tuples(*[pool] * len(FOREST_ATTRS)), max_size=2))
        tables[relation] = rows
    return str(query), keys, tables


#: The benchmark's join shape: an unkeyed root and a keyed child whose key
#: holds the join variable, with a head variable at a non-key position.
#: Two ``s`` blocks share ``d1``; NULL is a key and a join value.
BENCH_JOIN_CASE = (
    "q(K, M) :- s(a=D, c=K), r(a=D, b=M).",
    {"s": ("a", "b")},
    {
        "r": [("d1", "m1", None, None), ("d2", "m2", None, None), (None, "m3", None, None)],
        "s": [
            ("d1", "c1", "k1", None),
            ("d1", "c2", "k2", None),
            ("d1", "c2", "k3", None),
            ("d2", "c1", "k1", None),
            (None, "c1", "k4", None),
        ],
    },
)

#: A chain ``r → s → t`` whose keyed middle node ``s`` has a child: ``s``'s
#: block 1 holds a tuple whose ``t`` block fails the constant.
KEYED_MIDDLE_CHAIN_CASE = (
    'q(H) :- r(a=X, b=H), s(a=X, c=Y), t(a=Y, b="x").',
    {"s": ("a",), "t": ("a",)},
    {
        "r": [(1, "h1", None, None), (2, "h2", None, None)],
        "s": [(1, None, "y1", None), (1, None, "y2", None), (2, None, "y1", None)],
        "t": [("y1", "x", None, None), ("y2", "z", None, None)],
    },
)


@given(key_join_forests())
@example(BENCH_JOIN_CASE)
@example(KEYED_MIDDLE_CHAIN_CASE)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_rewriting_equals_brute_force_over_key_join_forests(case):
    """Whenever ``classify`` accepts a forest query, its rewriting answers
    exactly the intersection over every repair."""
    text, keys, tables = case
    query = parse_query(text)
    if not classify(query, keys).rewritable:
        return
    result = answer_certain(query, FOREST_SCHEMAS, tables, keys)
    assert result.method == "rewriting"
    assert result.answers == brute_force_certain(query, FOREST_SCHEMAS, tables, keys)


@pytest.mark.parametrize("case, has_children, expected", [
    (BENCH_JOIN_CASE, False, (("k1", "m1"), ("k1", "m2"), ("k4", "m3"))),
    (KEYED_MIDDLE_CHAIN_CASE, True, (("h2",),)),
])
def test_forest_examples_have_their_shapes(case, has_children, expected):
    """Each example of the forest property puts a keyed non-root node where
    its docstring says, and answers as worked out by hand."""
    text, keys, tables = case
    query = parse_query(text)
    plan = classify(query, keys).plan
    assert plan is not None
    (root,) = plan.roots
    node = next(node for node in plan.nodes if node.relation == "s")
    assert not root.keyed and node.keyed and node.parent is not None
    assert bool(node.children) == has_children
    assert answer_certain(query, FOREST_SCHEMAS, tables, keys).answers == expected


# -- quality stats ------------------------------------------------------------


class TestAnswerAgreementStats:
    def test_micro_averaged_jaccard(self):
        stats = AnswerAgreementStats()
        assert stats.value() == 1.0
        stats.observe("q1", [("a",), ("b",)], [("a",)])
        stats.observe("q2", [("x",)], [("x",)])
        assert stats.queries == 2
        assert stats.value() == pytest.approx((1 + 1) / (2 + 1))

    def test_observe_replaces_not_accumulates(self):
        stats = AnswerAgreementStats()
        stats.observe("q1", [("a",)], [("b",)])
        stats.observe("q1", [("a",)], [("a",)])
        assert stats.queries == 1
        assert stats.value() == 1.0

    def test_merge_adopts_theirs(self):
        ours = AnswerAgreementStats()
        ours.observe("q1", [("a",)], [("a",)])
        theirs = AnswerAgreementStats()
        theirs.observe("q1", [("a",)], [("b",)])
        theirs.observe("q2", [("c",)], [("c",)])
        ours.merge(theirs)
        assert ours.queries == 2
        assert ours.entries["q1"] == (0, 2)


# -- Wrangler integration -----------------------------------------------------


@pytest.fixture(scope="module")
def queried_session():
    session = WranglingSession.from_scenario(
        SynthConfig(entities=50, seed=3, query_workload=5))
    session.run()
    return session


class TestWranglerQuery:
    def test_three_modes(self, queried_session):
        wrangler = queried_session.wrangler
        target = wrangler.target_relation
        text = f"q(K) :- {target}(sku=K)."
        certain = wrangler.query(text, mode="certain")
        assert certain.certain is not None and certain.repaired is None
        repaired = wrangler.query(text, mode="repaired")
        assert repaired.certain is None and repaired.repaired is not None
        both = wrangler.query(text, mode="both")
        assert both.certain is not None and both.repaired is not None
        assert both.agreement is not None and 0.0 <= both.agreement <= 1.0

    def test_explicit_keys_override(self, queried_session):
        wrangler = queried_session.wrangler
        outcome = wrangler.query(
            "q(K, N) :- product(sku=K, name=N).",
            mode="certain", keys={"product": ("sku",)})
        assert outcome.keys == {"product": ("sku",)}
        assert outcome.rewritable

    def test_agreement_recorded_in_stash_and_artifact(self, queried_session):
        wrangler = queried_session.wrangler
        text = "q(K, B) :- product(sku=K, brand=B)."
        outcome = wrangler.query(text, mode="both", keys={"product": ("sku",)})
        records = wrangler.kb.get_artifact(CQA_AGREEMENT_ARTIFACT_KEY)
        entry = records[str(wrangler.query(text, mode="repaired").query)]
        assert entry["agreement"] == pytest.approx(outcome.agreement)
        report = wrangler.evaluate()
        assert report.answer_agreement is not None
        assert "answer_agreement" in report.as_dict()

    def test_unknown_relation_and_mode_fail_loudly(self, queried_session):
        wrangler = queried_session.wrangler
        with pytest.raises(ValueError, match="unknown relation"):
            wrangler.query("q(X) :- nowhere(a=X).")
        with pytest.raises(ValueError, match="mode"):
            wrangler.query("q(K) :- product(sku=K).", mode="upside_down")

    def test_query_before_run_fails_loudly(self):
        session = WranglingSession.from_scenario(SynthConfig(entities=20, seed=1))
        with pytest.raises(ValueError, match="no result"):
            session.wrangler.query("q(K) :- product(sku=K).")

    def test_workload_certain_matches_ground_truth_intersection(self, queried_session):
        """For generated workload queries, mode="certain" equals the
        brute-force repair intersection of the dirty base instance."""
        wrangler = queried_session.wrangler
        scenario = queried_session.scenario
        keys = {"product": tuple(scenario.evaluation_key)}
        for entry in scenario.details["query_workload"]:
            outcome = wrangler.query(entry["query"], mode="certain", keys=keys)
            query = parse_query(entry["query"])
            schemas, certain_tables, _repaired, _details = (
                wrangler._query_environment(query))
            resolved = {
                relation: key for relation, key in keys.items()
                if relation in schemas
            }
            expected = brute_force_certain(query, schemas, certain_tables, resolved)
            assert outcome.certain == expected


# -- service surface ----------------------------------------------------------


class TestQueryService:
    def test_request_codec_round_trip(self):
        request = QueryRequest(query="q(X) :- t(a=X).", mode="both",
                               keys={"t": ("a", "b")}, max_repairs=64)
        decoded = request_from_dict("query", request.as_dict())
        assert decoded == request

    def test_session_handles_query_request(self, queried_session):
        response = queried_session.handle(
            QueryRequest(query="q(K) :- product(sku=K).", mode="both"))
        assert isinstance(response, QueryResponse)
        payload = response.as_dict()
        assert payload["session_id"] == queried_session.session_id
        assert payload["certain"] is not None
        assert payload["repaired"] is not None
        rebuilt = QueryResponse.from_dict(payload)
        # the response carries the canonical (re-rendered) query text
        assert rebuilt.query == "q(K) :- product(sku=K)"

    def test_session_key_default_falls_back_to_scenario(self):
        session = WranglingSession.from_scenario(
            SynthConfig(entities=30, seed=9, reference_size=0.0,
                        master_coverage=0.0))
        session.run()
        response = session.handle(
            QueryRequest(query="q(K) :- product(sku=K).", mode="certain"))
        # no data context at all → no learned CFDs → scenario evaluation key
        assert response.keys == {"product": ["sku"]}

    def test_budget_knobs_reach_enumeration(self, queried_session):
        response = queried_session.handle(
            QueryRequest(
                query=("q(K) :- product(sku=K, brand=B), "
                       "product(sku=S, brand=B)."),
                mode="certain", keys={"product": ("sku",)}, max_repairs=4))
        assert response.method == "enumeration"
        assert response.details["repairs_evaluated"] <= 4
