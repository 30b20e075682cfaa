"""Unit tests for the Vadalog-lite reasoner (terms, parser, stratification, engine)."""

from __future__ import annotations

import pytest

from repro.datalog import (
    Atom,
    Constant,
    Database,
    Engine,
    Literal,
    ParseError,
    Program,
    Rule,
    SafetyError,
    StratificationError,
    UnknownPredicateError,
    Variable,
    evaluate,
    fact,
    parse_atom,
    parse_program,
    parse_rule,
    evaluation_order,
    query,
    stratify,
)


class TestTerms:
    def test_fact_constructor(self):
        rule = fact("edge", "a", "b")
        assert rule.is_fact
        assert rule.head.as_tuple() == ("a", "b")

    def test_non_ground_fact_rejected(self):
        with pytest.raises(SafetyError):
            Rule(Atom("p", (Variable("X"),)))

    def test_unbound_head_variable_rejected(self):
        with pytest.raises(SafetyError):
            parse_rule("p(X, Y) :- q(X).")

    def test_unbound_negated_variable_rejected(self):
        with pytest.raises(SafetyError):
            parse_rule("p(X) :- q(X), not r(Y).")

    def test_assignment_binds_head_variable(self):
        rule = parse_rule('p(X, Y) :- q(X), Y = 1.')
        assert rule.head.variables() == {"X", "Y"}

    def test_literal_must_be_atom_or_comparison(self):
        with pytest.raises(SafetyError):
            Literal()

    def test_atom_str_and_substitute(self):
        atom = Atom("p", (Variable("X"), Constant(3)))
        assert str(atom) == "p(X, 3)"
        ground = atom.substitute({"X": "a"})
        assert ground.is_ground
        assert ground.as_tuple() == ("a", 3)


class TestParser:
    def test_parse_program_counts(self):
        program = parse_program("""
            % facts
            parent(alice, bob).
            parent(bob, carol).
            ancestor(X, Y) :- parent(X, Y).
            ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
        """)
        assert len(program) == 4

    def test_string_and_number_terms(self):
        rule = parse_rule('listing("Oak Street", 325000.5, 3).')
        assert rule.head.as_tuple() == ("Oak Street", 325000.5, 3)

    def test_negative_numbers_and_booleans(self):
        rule = parse_rule("p(-3, true, false).")
        assert rule.head.as_tuple() == (-3, True, False)

    def test_comparison_literal(self):
        rule = parse_rule("expensive(P) :- property(P, Price), Price > 500000.")
        assert len(rule.comparisons()) == 1

    def test_negation_keyword(self):
        rule = parse_rule("leaf(X) :- node(X), not haschild(X).")
        assert len(rule.negated_body_atoms()) == 1

    def test_zero_arity_atom(self):
        rule = parse_rule("ready :- schema(S, target).")
        assert rule.head.arity == 0

    def test_uppercase_predicate_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("Parent(a, b).")

    def test_missing_dot_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("p(a)")

    def test_unexpected_character_rejected(self):
        with pytest.raises(ParseError):
            parse_program("p(a) ;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("p(a). q(b).")

    def test_parse_atom(self):
        atom = parse_atom("match(S, A, property, B, Score)")
        assert atom.predicate == "match"
        assert atom.arity == 5

    def test_comments_are_ignored(self):
        program = parse_program("% nothing here\np(a). % trailing\n")
        assert len(program) == 1


class TestStratification:
    def test_positive_program_single_stratum(self):
        program = Program.parse("""
            ancestor(X, Y) :- parent(X, Y).
            ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
        """)
        strata = stratify(program)
        assert strata["ancestor"] == 0

    def test_negation_raises_stratum(self):
        program = Program.parse("""
            isparent(X) :- parent(X, Y).
            childless(X) :- person(X), not isparent(X).
        """)
        strata = stratify(program)
        assert strata["childless"] > strata["isparent"]
        order = evaluation_order(program)
        assert order.index(["isparent"]) < order.index(["childless"])

    def test_evaluation_order_follows_dependencies(self):
        """Inside a stratum each component comes after the ones it reads,
        whatever the alphabetical order of the predicates."""
        program = Program.parse("""
            a(X) :- b(X).
            b(X) :- e(X).
            c(X, Y) :- e(X), d(Y).
            d(X) :- c(_, X).
            z(X) :- e(X), not a(X).
        """)
        assert evaluation_order(program) == [["b"], ["a"], ["c", "d"], ["z"]]

    def test_negative_cycle_rejected(self):
        program = Program.parse("""
            p(X) :- q(X), not r(X).
            r(X) :- q(X), not p(X).
        """)
        with pytest.raises(StratificationError):
            stratify(program)


class TestEngine:
    ANCESTRY = """
        parent(alice, bob).
        parent(bob, carol).
        parent(carol, dan).
        ancestor(X, Y) :- parent(X, Y).
        ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).
    """

    def test_transitive_closure(self):
        results = query(self.ANCESTRY, "ancestor(alice, X)")
        descendants = {row[1] for row in results}
        assert descendants == {"bob", "carol", "dan"}

    def test_constants_filter_queries(self):
        assert query(self.ANCESTRY, "ancestor(bob, dan)") == [("bob", "dan")]
        assert query(self.ANCESTRY, "ancestor(dan, alice)") == []

    def test_edb_relations_from_mapping(self):
        program = "adult(X) :- person(X, A), A >= 18."
        results = query(program, "adult(X)", {"person": [("kid", 7), ("grown", 30)]})
        assert results == [("grown",)]

    def test_negation(self):
        program = """
            isparent(X) :- parent(X, Y).
            leaf(X) :- person(X), not isparent(X).
        """
        edb = {"person": [("a",), ("b",), ("c",)], "parent": [("a", "b"), ("b", "c")]}
        assert query(program, "leaf(X)", edb) == [("c",)]

    def test_comparisons_and_assignment(self):
        program = """
            expensive(P, Band) :- listing(P, Price), Price >= 300000, Band = high.
            expensive(P, Band) :- listing(P, Price), Price < 300000, Band = low.
        """
        edb = {"listing": [("p1", 450000), ("p2", 120000)]}
        results = dict(query(program, "expensive(P, B)", edb))
        assert results == {"p1": "high", "p2": "low"}

    def test_anonymous_variables_do_not_join(self):
        program = "haslisting(S) :- listing(S, _, _)."
        edb = {"listing": [("rightmove", 1, 2), ("zoopla", 3, 4)]}
        assert len(query(program, "haslisting(X)", edb)) == 2

    def test_unknown_predicate_raises(self):
        with pytest.raises(UnknownPredicateError):
            query("p(a).", "nonexistent(X)")

    def test_evaluate_returns_database(self):
        model = evaluate(self.ANCESTRY)
        assert model.count("ancestor") == 6
        assert model.count() == 9

    def test_numeric_equality_across_types(self):
        program = "match(X) :- value(X, V), V = 3."
        assert query(program, "match(X)", {"value": [("a", 3.0), ("b", 4)]}) == [("a",)]

    def test_engine_reuse_with_different_edb(self):
        engine = Engine(Program.parse("big(X) :- n(X), X > 10."))
        assert engine.query("big(X)", {"n": [(5,), (20,)]}) == [(20,)]
        assert engine.query("big(X)", {"n": [(1,), (2,)]}) == []

    def test_stratified_negation_over_derived(self):
        program = """
            reachable(X, Y) :- edge(X, Y).
            reachable(X, Z) :- edge(X, Y), reachable(Y, Z).
            node(X) :- edge(X, Y).
            node(Y) :- edge(X, Y).
            unreachable(X, Y) :- node(X), node(Y), not reachable(X, Y).
        """
        edb = {"edge": [("a", "b"), ("b", "c")]}
        unreachable = set(query(program, "unreachable(a, X)", edb))
        assert ("a", "a") in unreachable
        assert ("a", "b") not in unreachable


class TestDatabase:
    def test_add_remove_and_copy(self):
        database = Database({"p": [(1,), (2,)]})
        assert database.count("p") == 2
        assert not database.add("p", (1,))
        assert database.add("p", (3,))
        assert database.remove("p", (1,))
        assert not database.remove("p", (99,))
        clone = database.copy()
        clone.add("p", (4,))
        assert database.count("p") == 2
        assert clone.count("p") == 3

    def test_merge(self):
        left = Database({"p": [(1,)]})
        right = Database({"p": [(2,)], "q": [(3,)]})
        left.merge(right)
        assert left.count() == 3
        assert "q" in left
