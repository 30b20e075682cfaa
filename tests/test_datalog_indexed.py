"""Edge cases the compiled, hash-indexed join plans must preserve.

Every semantic test runs the same program through ``Engine(indexed=True)``
and the ``indexed=False`` reference evaluator and requires identical
models, so the naive nested-loop evaluation stays the executable
specification of the compiled one; a hypothesis property does the same
over random stratified programs. The remaining tests pin down index
lifecycle (lazy build, incremental maintenance, invalidation on
``remove``/``copy``/``merge``) and the constant-key semantics (``1``/``1.0``
match, ``True`` never matches ``1``) in both probe and scan paths.
"""

from __future__ import annotations

from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.knowledge_base import KnowledgeBase
from repro.datalog import Database, Engine, EvaluationError, Program
from repro.datalog.builtins import COMPARISONS
from repro.datalog.engine import _unify
from repro.datalog.stratify import evaluation_order, stratify
from repro.datalog.terms import (
    Atom,
    Comparison,
    Constant,
    Literal,
    Rule,
    Variable,
    constants_match,
    hash_key,
    row_key,
)


def models_of(text: str, edb: dict) -> tuple[Database, Database]:
    """Evaluate ``text`` over ``edb`` with both engine modes."""
    program = Program.parse(text)
    return (Engine(program, indexed=True).run(edb),
            Engine(program, indexed=False).run(edb))


def assert_identical(text: str, edb: dict) -> Database:
    """Assert both modes derive the same model; return the indexed one."""
    indexed, naive = models_of(text, edb)

    def snapshot(model: Database) -> dict:
        return {p: sorted(model.relation(p), key=repr) for p in model.predicates()}

    assert snapshot(indexed) == snapshot(naive)
    return indexed


class TestDeltaSemanticsAcrossStrata:
    def test_negation_over_recursive_predicate(self):
        """Stratum 2 negates the fixpoint of stratum 1, not a partial delta."""
        edb = {
            "edge": [("a", "b"), ("b", "c"), ("c", "d"), ("x", "y")],
            "node": [("a",), ("b",), ("c",), ("d",), ("x",), ("y",)],
        }
        model = assert_identical("""
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- tc(X, Y), edge(Y, Z).
            unreach(X, Y) :- node(X), node(Y), not tc(X, Y).
        """, edb)
        assert ("a", "d") in model.relation("tc")
        assert ("a", "d") not in model.relation("unreach")
        # d reaches nothing, so every (d, _) pair is unreachable.
        assert ("d", "a") in model.relation("unreach")
        assert ("x", "c") in model.relation("unreach")

    def test_two_recursive_literals_in_one_rule(self):
        """Semi-naive must take each positive literal's turn as the delta."""
        edb = {"edge": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]}
        model = assert_identical("""
            tc(X, Y) :- edge(X, Y).
            tc(X, Z) :- tc(X, Y), tc(Y, Z).
        """, edb)
        assert ("a", "e") in model.relation("tc")
        assert model.count("tc") == 10

    def test_negation_within_recursive_stratum_uses_lower_stratum(self):
        edb = {
            "edge": [("a", "b"), ("b", "c"), ("c", "d")],
            "bad": [("c",)],
        }
        model = assert_identical("""
            safe(X, Y) :- edge(X, Y), not bad(Y).
            safe(X, Z) :- safe(X, Y), edge(Y, Z), not bad(Z).
        """, edb)
        assert ("a", "b") in model.relation("safe")
        assert ("a", "c") not in model.relation("safe")
        assert ("a", "d") not in model.relation("safe")  # path must avoid c


class TestUnificationShapes:
    def test_anonymous_variables_never_join(self):
        edb = {"p": [("a", 1), ("b", 2)], "q": [("a",)]}
        model = assert_identical("r(X) :- p(X, _), q(X).", edb)
        assert model.relation("r") == {("a",)}

    def test_multiple_anonymous_variables_are_independent(self):
        edb = {"t": [("a", 1, 2), ("b", 3, 3)]}
        model = assert_identical("s(X) :- t(X, _, _).", edb)
        assert model.relation("s") == {("a",), ("b",)}

    def test_repeated_variable_in_one_atom(self):
        edb = {"p": [(1, 1), (1, 2), (3, 3)]}
        model = assert_identical("d(X) :- p(X, X).", edb)
        assert model.relation("d") == {(1,), (3,)}

    def test_repeated_variable_with_bound_probe(self):
        """The repeated occurrence is part of the probe key once bound."""
        edb = {"s": [(1,), (2,)], "p": [(1, 1), (2, 3)]}
        model = assert_identical("d(X) :- s(X), p(X, X).", edb)
        assert model.relation("d") == {(1,)}

    def test_constant_positions_probe_the_index(self):
        edb = {"p": [("a", 1), ("a", 2), ("b", 1)]}
        model = assert_identical('r(Y) :- p("a", Y).', edb)
        assert model.relation("r") == {(1,), (2,)}

    def test_rules_equal_under_python_equality_keep_their_own_plans(self):
        """``Constant(1) == Constant(True)``, so these rule pairs compare
        equal as values; each must still be evaluated with its own constant."""
        edb = {"s": [("a", True), ("b", 1)]}
        model = assert_identical("p(X) :- s(X, 1). p(X) :- s(X, true).", edb)
        assert model.relation("p") == {("a",), ("b",)}
        edb = {"s": [(0,), ("a",)]}
        model = assert_identical("p(X) :- s(X), X != 0. q(X) :- s(X), X != false.", edb)
        assert model.relation("p") == {("a",)}
        assert model.relation("q") == {(0,), ("a",)}
        model = assert_identical("p(X) :- s(X), X != 0. p(X) :- s(X), X != false.", edb)
        assert model.relation("p") == {(0,), ("a",)}

    def test_mixed_arity_relation_does_not_break_index(self):
        """Rows shorter than the probed columns are skipped, not crashed on."""
        db = Database({"p": [("a",), ("a", 1), ("b", 2)]})
        index = db.index_for("p", (1,))
        assert sorted(index[row_key(("a", 1), (1,))]) == [("a", 1)]
        program = Program.parse("r(X, Y) :- p(X, Y).")
        model = Engine(program).run(db)
        assert model.relation("r") == {("a", 1), ("b", 2)}


class TestIndexLifecycle:
    def test_index_built_lazily_and_maintained_on_add(self):
        db = Database({"p": [("a", 1)]})
        assert db.indexed_positions("p") == []
        index = db.index_for("p", (0,))
        assert db.indexed_positions("p") == [(0,)]
        db.add("p", ("a", 2))
        assert sorted(index[row_key(("a", 2), (0,))]) == [("a", 1), ("a", 2)]
        # Re-inserting an existing row must not duplicate index entries.
        db.add("p", ("a", 2))
        assert len(index[row_key(("a", 2), (0,))]) == 2

    def test_remove_invalidates_indexes(self):
        db = Database({"p": [("a", 1), ("b", 2)]})
        db.index_for("p", (0,))
        db.remove("p", ("a", 1))
        assert db.indexed_positions("p") == []
        rebuilt = db.index_for("p", (0,))
        assert row_key(("a", 1), (0,)) not in rebuilt
        assert rebuilt[row_key(("b", 2), (0,))] == [("b", 2)]

    def test_copy_does_not_share_indexes(self):
        db = Database({"p": [("a", 1)]})
        original_index = db.index_for("p", (0,))
        clone = db.copy()
        assert clone.indexed_positions("p") == []
        clone.add("p", ("a", 2))
        # The original's index must not see the clone's insert, and vice versa.
        assert original_index[row_key(("a", 1), (0,))] == [("a", 1)]
        assert sorted(clone.index_for("p", (0,))[row_key(("a", 2), (0,))]) == [
            ("a", 1), ("a", 2)]
        assert db.relation("p") == {("a", 1)}

    def test_update_returns_new_rows_and_maintains_indexes(self):
        db = Database({"p": [("a", 1)]})
        index = db.index_for("p", (0,))
        assert db.update("p", {("a", 1), ("a", 2)}) == {("a", 2)}
        assert sorted(index[row_key(("a", 1), (0,))]) == [("a", 1), ("a", 2)]
        assert db.update("p", [("a", 2)]) == set()
        assert db.update("q", []) == set()
        assert "q" not in db and db.predicates() == ["p"]

    def test_merge_updates_existing_indexes(self):
        db = Database({"p": [("a", 1)]})
        index = db.index_for("p", (0,))
        other = Database({"p": [("a", 2), ("b", 3)], "q": [("z",)]})
        db.merge(other)
        assert sorted(index[row_key(("a", 1), (0,))]) == [("a", 1), ("a", 2)]
        assert index[row_key(("b", 3), (0,))] == [("b", 3)]
        assert db.relation("q") == {("z",)}
        # Merging the same tuples again must not duplicate bucket entries.
        db.merge(other)
        assert len(index[row_key(("a", 1), (0,))]) == 2


class TestConstantKeySemantics:
    """1 / 1.0 / True must behave identically in probes and naive unification.

    Note Python set semantics make ``(1,)``, ``(1.0,)`` and ``(True,)`` one
    stored tuple, so which value a relation holds is first-insert-wins; the
    matching semantics on top are what these tests pin down.
    """

    def test_constants_match_is_symmetric(self):
        for left, right, expected in [
            (1, 1.0, True), (1.0, 1, True),
            (1, True, False), (True, 1, False),
            (1.0, True, False), (True, 1.0, False),
            (0, False, False), (False, 0, False),
            (True, True, True), ("a", "a", True), ("1", 1, False),
        ]:
            assert constants_match(left, right) is expected
            assert constants_match(right, left) is expected

    def test_hash_key_mirrors_constants_match(self):
        assert hash_key(1) == hash_key(1.0)
        assert hash_key(1) != hash_key(True)
        assert hash_key(0) != hash_key(False)
        assert hash_key("a") != hash_key(("a",))

    @pytest.mark.parametrize("indexed", [True, False])
    def test_int_probe_matches_float_row(self, indexed):
        program = Program.parse("r(X) :- s(X), p(X).")
        model = Engine(program, indexed=indexed).run({"p": [(1.0,)], "s": [(1,)]})
        assert model.count("r") == 1

    @pytest.mark.parametrize("indexed", [True, False])
    def test_bool_probe_never_matches_int_row(self, indexed):
        program = Program.parse("r(X) :- s(X), p(X).")
        model = Engine(program, indexed=indexed).run({"p": [(1,)], "s": [(True,)]})
        assert model.count("r") == 0

    @pytest.mark.parametrize("indexed", [True, False])
    def test_negation_agrees_with_positive_matching(self, indexed):
        """`not p(True)` must succeed over {(1,)} exactly when p(True) fails.

        The seed engine used raw set membership for negation, which conflated
        True with 1 while positive unification did not; both paths now share
        `constants_match` semantics.
        """
        program = Program.parse("r(X) :- s(X), not p(X).")
        model = Engine(program, indexed=indexed).run({"p": [(1,)], "s": [(True,)]})
        assert model.count("r") == 1  # p(True) does not hold, only p(1)
        model = Engine(program, indexed=indexed).run({"p": [(1,)], "s": [(1.0,)]})
        assert model.count("r") == 0  # p(1.0) holds via numeric equality

    @pytest.mark.parametrize("indexed", [True, False])
    def test_decimal_rows_join_with_int_probes(self, indexed):
        """Non-builtin numeric types share the numeric key space."""
        from decimal import Decimal
        from fractions import Fraction

        program = Program.parse("r(X) :- s(X), p(X).")
        model = Engine(program, indexed=indexed).run(
            {"p": [(Decimal("1"),)], "s": [(1,)]})
        assert model.count("r") == 1
        model = Engine(program, indexed=indexed).run(
            {"p": [(Fraction(1, 2),)], "s": [(0.5,)]})
        assert model.count("r") == 1

    @pytest.mark.parametrize("indexed", [True, False])
    def test_ints_beyond_float_range_do_not_crash(self, indexed):
        program = Program.parse("r(X) :- s(X), p(X).")
        model = Engine(program, indexed=indexed).run(
            {"p": [(10**400,)], "s": [(10**400,)]})
        assert model.count("r") == 1
        model = Engine(program, indexed=indexed).run(
            {"p": [(10**400,)], "s": [(1.0,)]})
        assert model.count("r") == 0
        program = Program.parse("r(X) :- s(X), X != 5. q(X) :- s(X), X = 5.")
        model = Engine(program, indexed=indexed).run({"s": [(10**400,), (5,)]})
        assert model.relation("r") == {(10**400,)}
        assert model.relation("q") == {(5,)}

    def test_unify_repeated_variable_uses_constant_semantics(self):
        atom = Atom("p", (Variable("X"), Variable("X")))
        assert _unify(atom, (1, 1.0), {}) == {"X": 1}
        assert _unify(atom, (1, True), {}) is None
        assert _unify(Atom("p", (Constant(2), Variable("Y"))), (2.0, "v"), {}) == {"Y": "v"}


class TestPlannerAndEscapeHatch:
    def test_most_selective_literal_first_preserves_results(self):
        """Body order must not affect the model, whatever the planner picks."""
        edb = {
            "big": [(i, i + 1) for i in range(50)],
            "small": [(3,)],
        }
        left = assert_identical("r(X, Y) :- big(X, Y), small(X).", edb)
        right = assert_identical("r(X, Y) :- small(X), big(X, Y).", edb)
        assert left.relation("r") == right.relation("r") == {(3, 4)}

    def test_escape_hatch_flag_is_exposed(self):
        program = Program.parse("r(X) :- p(X).")
        assert Engine(program).indexed is True
        assert Engine(program, indexed=False).indexed is False

    @pytest.mark.parametrize("indexed", [True, False])
    def test_unknown_comparison_operator_raises(self, indexed):
        rule = Rule(Atom("r", (Variable("X"),)), [
            Literal(atom=Atom("s", (Variable("X"),))),
            Literal(comparison=Comparison(Variable("X"), "<>", Constant(1)))])
        with pytest.raises(EvaluationError, match="unknown comparison operator"):
            Engine(Program([rule]), indexed=indexed).run({"s": [(2,)]})

    def test_comparisons_and_assignment_identical(self):
        edb = {"q": [(1,), (2,), (3,)]}
        model = assert_identical("p(X, Y) :- q(X), Y = 1, X > Y.", edb)
        assert model.relation("p") == {(2, 1), (3, 1)}


class TestComparisonEdgeCases:
    """Comparisons where both evaluators used to raise."""

    @pytest.mark.parametrize("indexed", [True, False])
    def test_self_equality_waits_for_its_variable(self, indexed):
        """``X = X`` is a test, not an assignment, even before ``X`` is bound."""
        model = Engine(Program.parse("p(1). q(X) :- X = X, p(X)."), indexed=indexed).run()
        assert model.relation("q") == {(1,)}

    @pytest.mark.parametrize("indexed", [True, False])
    def test_decimal_ordered_against_nan_is_false(self, indexed):
        for op in ("<", "<=", ">", ">="):
            assert COMPARISONS[op](Decimal("1.5"), NAN) is False
            assert COMPARISONS[op](NAN, Decimal("1.5")) is False
        program = Program.parse("r(X, Y) :- s(X), t(Y), X < Y. u(X, Y) :- s(X), t(Y), X != Y.")
        model = Engine(program, indexed=indexed).run({"s": [(Decimal("1.5"),)], "t": [(NAN,)]})
        assert model.count("r") == 0
        assert model.count("u") == 1


class TestKnowledgeBaseModelCache:
    def test_cached_model_invalidated_on_change(self):
        kb = KnowledgeBase()
        kb.assert_fact("edge", "a", "b")
        rules = "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y), edge(Y, Z)."
        assert kb.query("path(X, Y)", rules) == [("a", "b")]
        # Second query at the same revision hits the cache.
        assert kb.query("path(X, Y)", rules) == [("a", "b")]
        kb.assert_fact("edge", "b", "c")
        assert ("a", "c") in kb.query("path(X, Y)", rules)
        kb.retract_fact("edge", "b", "c")
        assert kb.query("path(X, Y)", rules) == [("a", "b")]

    def test_empty_program_queries_share_live_database(self):
        kb = KnowledgeBase()
        kb.assert_fact("p", 1)
        assert kb.query("p(X)") == [(1,)]
        kb.assert_fact("p", 2)
        assert kb.query("p(X)") == [(1,), (2,)]
        assert kb.query("missing(X)") == []


# -- hypothesis: compiled plans ≡ the reference evaluator ----------------------

NAN = float("nan")
#: Constants whose equality the engine must get exactly right: booleans
#: never equal numbers; 1 == 1.0 == Decimal("1"); NaN equals nothing, though
#: a dict lookup matches the same NaN object by identity; a Decimal never
#: equals the float it rounds to; 10**400 has no float.
VALUES = ["a", "b", None, True, False, 0, 1, 1.0, NAN, Decimal("1"),
          Decimal("1.0000000000000000000001"), 10**400]
#: (type, value) → a constant that equals it under Python's ``==``, which rule
#: equality uses, but not under the reasoner's, which tells booleans apart.
TWINS = {(int, 1): True, (bool, True): 1.0, (int, 0): False, (bool, False): 0}
EDB = {"e": 2, "f": 1, "g": 3}
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def _atom(predicate: str, *terms) -> Literal:
    return Literal(atom=Atom(predicate, terms))


@st.composite
def _rule(draw, head: str, head_arity: int, positive: list, negatable: list,
          values: list = VALUES) -> Rule:
    """A safe rule with constants from ``values``: 1–3 positive atoms, then
    optional comparisons (an ordering test or an ``=`` assignment) and an
    optional negation."""
    term = st.sampled_from(["X", "Y", "Z", "X", "Y", "Z", "_", ""]).flatmap(
        lambda name: st.just(Variable(name)) if name else st.sampled_from(values).map(Constant))
    body, bound = [], set()
    for _ in range(draw(st.integers(1, 3))):
        predicate, arity = draw(st.sampled_from(positive))
        terms = [draw(term) for _ in range(arity)]
        body.append(_atom(predicate, *terms))
        bound |= {t.name for t in terms if isinstance(t, Variable) and t.name != "_"}

    def value() -> Constant | Variable:
        if bound and draw(st.booleans()):
            return Variable(draw(st.sampled_from(sorted(bound))))
        return Constant(draw(st.sampled_from(values)))

    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()) and "V" not in bound:
            fresh, other = Variable("V"), value()
            sides = (fresh, other) if draw(st.booleans()) else (other, fresh)
            body.append(Literal(comparison=Comparison(sides[0], "=", sides[1])))
            bound.add("V")
        else:
            op = draw(st.sampled_from(["<", "<=", ">", ">=", "!=", "=", "=="]))
            left, right = value(), value()
            body.append(Literal(comparison=Comparison(left, op, right)))
    if negatable and draw(st.booleans()):
        predicate, arity = draw(st.sampled_from(negatable))
        body.append(Literal(atom=Atom(predicate, [value() for _ in range(arity)]),
                            negated=True))
    head_terms = [value() for _ in range(head_arity)]
    return Rule(Atom(head, head_terms), draw(st.permutations(body)))


def _twin(rule: Rule) -> Rule:
    """``rule`` with every constant swapped for its twin: a rule equal to
    ``rule`` as a value whose constants the reasoner may tell apart."""
    def twin(term):
        if isinstance(term, Constant):
            return Constant(TWINS.get((type(term.value), term.value), term.value))
        return term

    def literal(lit: Literal) -> Literal:
        if lit.comparison is not None:
            c = lit.comparison
            return Literal(comparison=Comparison(twin(c.left), c.op, twin(c.right)))
        return Literal(atom=Atom(lit.atom.predicate, [twin(t) for t in lit.atom.terms]),
                       negated=lit.negated)

    return Rule(Atom(rule.head.predicate, [twin(t) for t in rule.head.terms]),
                [literal(lit) for lit in rule.body])


@st.composite
def programs(draw) -> Program:
    """A random stratified program.

    ``tc`` is recursive. The non-recursive predicates are generated in
    dependency order under reverse-alphabetical names (``q3`` before
    ``q2``), each reading EDB relations, ``tc`` and earlier predicates; from
    ``q1`` on they may negate EDB relations and earlier predicates, so
    negation always reaches a lower stratum. ``q2`` reads ``q3`` and neither
    negates, so both share ``tc``'s stratum, in which alphabetical order is
    the reverse of dependency order. A predicate's second rule is drawn
    independently or is the :func:`_twin` of its first.
    """
    recursion = draw(st.sampled_from([
        [_atom("tc", X, Y), _atom("e", Y, Z)],
        [_atom("e", X, Y), _atom("tc", Y, Z)],
        [_atom("tc", X, Y), _atom("tc", Y, Z)],
    ]))
    rules = [Rule(Atom("tc", (X, Y)), [_atom("e", X, Y)]), Rule(Atom("tc", (X, Z)), recursion)]
    arities = {**EDB, "tc": 2}
    for name in ["q3", "q2", "q1", "q0"][:draw(st.integers(2, 4))]:
        arity = draw(st.integers(1, 2))
        positive = list(arities.items())
        negatable = [] if name in ("q3", "q2") else positive
        second = draw(st.sampled_from(["none", "drawn", "twin"]))
        # Only these constants have twins.
        values = [0, 1, True, False] if second == "twin" else VALUES
        first = draw(_rule(name, arity, positive, negatable, values))
        if name == "q2":
            first = Rule(first.head, [*first.body, _atom("q3", *[Variable("_")] * arities["q3"])])
        rules.append(first)
        if second == "drawn":
            rules.append(draw(_rule(name, arity, positive, negatable)))
        elif second == "twin":
            rules.append(_twin(first))
        arities[name] = arity
    return Program(rules)


def _edb_rows(arity: int):
    width = st.sampled_from([arity, arity, arity, arity + 1])
    return st.lists(width.flatmap(lambda n: st.tuples(*[st.sampled_from(VALUES)] * n)),
                    max_size=10)


@given(programs(), st.fixed_dictionaries({name: _edb_rows(arity) for name, arity in EDB.items()}))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_compiled_plans_equal_reference_evaluator(program, edb):
    """Both engine modes derive the same model and answer the same queries.

    Relations compare as sets: a relation holds one of ``(1,)``/``(1.0,)``/
    ``(True,)`` (Python hashing conflates them), whichever the evaluation
    inserts first, and the two modes may insert in different orders.
    """
    order = [predicate for component in evaluation_order(program) for predicate in component]
    assert order.index("q3") < order.index("q2")
    assert stratify(program)["q3"] == stratify(program)["q2"]
    compiled, reference = Engine(program), Engine(program, indexed=False)
    compiled_model, reference_model = compiled.run(edb), reference.run(edb)
    head = program.rules[-1].head
    goal = Atom(head.predicate, [Variable(f"A{i}") for i in range(head.arity)])
    compiled_answers, reference_answers = compiled.query(goal, edb), reference.query(goal, edb)
    assert compiled_model.predicates() == reference_model.predicates()
    for predicate in compiled_model.predicates():
        assert compiled_model.relation(predicate) == reference_model.relation(predicate)
    assert len(compiled_answers) == len(reference_answers)
    assert set(compiled_answers) == set(reference_answers)


# -- hypothesis: the existence probe answers as the full query does -----------

#: Constants a readiness probe must match exactly as a query does: booleans
#: never equal numbers, 1 equals 1.0, NaN equals nothing, and strings are
#: compared as they are (no case folding or trimming).
PROBE_VALUES = [0, 1, 1.0, True, False, "a", "A ", None, NAN]
PROBE_TERMS = st.one_of(st.sampled_from(PROBE_VALUES).map(Constant),
                        st.sampled_from(["X", "X", "Y", "_"]).map(Variable))
PROBE_ROWS = st.integers(0, 3).flatmap(
    lambda arity: st.tuples(*[st.sampled_from(PROBE_VALUES)] * arity))
PROBE_GOALS = st.builds(
    Atom, st.sampled_from(["p", "q", "unknown"]),
    st.integers(0, 3).flatmap(lambda arity: st.tuples(*[PROBE_TERMS] * arity)))
PROBE_OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("assert"), st.sampled_from(["p", "q"]), PROBE_ROWS),
    st.tuples(st.just("retract"), st.sampled_from(["p", "q"]), st.integers(0, 20)),
    st.tuples(st.just("check"), st.lists(PROBE_GOALS, min_size=1, max_size=6), st.just(None)),
), max_size=40)


@given(PROBE_OPERATIONS)
@settings(max_examples=300, deadline=None)
def test_existence_probe_equals_full_answers(operations):
    """``kb.satisfied([goal])`` is ``bool(kb.query(goal))``, and the probe's
    answer is one of the full answers, whatever indexes earlier probes built:
    asserts extend them and retractions drop them."""
    kb = KnowledgeBase()
    for operation, subject, argument in operations:
        if operation == "assert":
            kb.assert_fact(subject, *argument)
        elif operation == "retract":
            rows = sorted(kb.database.relation(subject), key=repr)
            if rows:
                kb.retract_fact(subject, *rows[argument % len(rows)])
        else:
            for goal in subject:
                full = kb.query(goal)
                probe = kb.query(goal, first=True)
                assert kb.satisfied([goal]) == bool(full)
                assert len(probe) == min(len(full), 1)
                assert all(any(row is answer for answer in full) for row in probe)
