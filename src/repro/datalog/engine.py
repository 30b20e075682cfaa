"""Bottom-up, semi-naive evaluation of stratified Vadalog-lite programs.

The engine is the reproduction of the paper's *Vadalog Reasoner*: the
architecture uses it to evaluate transducer input dependencies against the
knowledge base, to express orchestration conditions and to represent schema
mappings. The fragment implemented here (stratified Datalog with negation
and comparisons) covers all of those uses.

Join evaluation is hash-indexed: :class:`Database` maintains lazy
per-predicate hash indexes keyed on column subsets (built on the first probe,
maintained incrementally on inserts, dropped on deletions), and the engine
probes the index on the bound positions of each positive atom instead of
scanning the whole relation. Delta relations of the semi-naive loop are
plain :class:`Database` instances and are indexed the same way, so recursive
rounds touch only matching tuples. Pass ``indexed=False`` to
:class:`Engine` to fall back to the naive nested-loop join (kept as an A/B
escape hatch for testing and benchmarking).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable, Mapping

from repro.datalog.builtins import evaluate_comparison, try_bind_assignment
from repro.datalog.errors import EvaluationError, UnknownPredicateError
from repro.datalog.parser import parse_atom
from repro.datalog.program import Program
from repro.datalog.stratify import stratum_order
from repro.datalog.terms import (
    Atom,
    Constant,
    Literal,
    Rule,
    Substitution,
    Variable,
    hash_key,
    row_key,
)

__all__ = ["Database", "Engine", "evaluate", "query"]

#: A hash index on a column subset: composite key → rows sharing that key.
Index = dict[tuple, list[tuple]]


class Database:
    """Extensional store: predicate name → set of constant tuples.

    Alongside the tuple sets, the database keeps lazy hash indexes per
    (predicate, column subset). An index is built the first time the engine
    probes those columns, kept up to date incrementally as tuples are
    inserted, and invalidated wholesale when tuples are removed. Copies
    start index-free (indexes rebuild on first use), so mutating a copy
    never corrupts the original's indexes.
    """

    def __init__(self, relations: Mapping[str, Iterable[tuple]] | None = None):
        self._relations: dict[str, set[tuple]] = defaultdict(set)
        self._indexes: dict[str, dict[tuple[int, ...], Index]] = {}
        if relations:
            for predicate, rows in relations.items():
                for row in rows:
                    self.add(predicate, tuple(row))

    def add(self, predicate: str, row: tuple) -> bool:
        """Insert a tuple; returns True when it was new."""
        row = tuple(row)
        relation = self._relations[predicate]
        before = len(relation)
        relation.add(row)
        if len(relation) == before:
            return False
        self._index_insert(predicate, row)
        return True

    def _index_insert(self, predicate: str, row: tuple) -> None:
        """Maintain every existing index of ``predicate`` for a new row.

        Rows too short to have all indexed columns are skipped: they can
        never unify with an atom that binds those positions.
        """
        indexes = self._indexes.get(predicate)
        if not indexes:
            return
        for positions, index in indexes.items():
            if len(row) > positions[-1]:
                index.setdefault(row_key(row, positions), []).append(row)

    def add_atom(self, atom: Atom) -> bool:
        """Insert a ground atom."""
        return self.add(atom.predicate, atom.as_tuple())

    def remove(self, predicate: str, row: tuple) -> bool:
        """Remove a tuple; returns True when it was present."""
        relation = self._relations.get(predicate)
        if relation and tuple(row) in relation:
            relation.discard(tuple(row))
            self._indexes.pop(predicate, None)
            return True
        return False

    def relation(self, predicate: str) -> set[tuple]:
        """All tuples of ``predicate`` (empty set when unknown)."""
        return self._relations.get(predicate, set())

    def index_for(self, predicate: str, positions: tuple[int, ...]) -> Index:
        """The hash index of ``predicate`` on ``positions`` (built lazily).

        ``positions`` must be sorted ascending; short rows are skipped (see
        :meth:`_index_insert`).
        """
        indexes = self._indexes.setdefault(predicate, {})
        index = indexes.get(positions)
        if index is None:
            index = {}
            last = positions[-1]
            for row in self._relations.get(predicate, ()):
                if len(row) > last:
                    index.setdefault(row_key(row, positions), []).append(row)
            indexes[positions] = index
        return index

    def indexed_positions(self, predicate: str) -> list[tuple[int, ...]]:
        """Column subsets currently indexed for ``predicate`` (for tests)."""
        return sorted(self._indexes.get(predicate, ()))

    def predicates(self) -> list[str]:
        """Sorted names of all non-empty relations."""
        return sorted(name for name, rows in self._relations.items() if rows)

    def __contains__(self, predicate: object) -> bool:
        return predicate in self._relations and bool(self._relations[predicate])

    def count(self, predicate: str | None = None) -> int:
        """Number of tuples in one relation, or in the whole database."""
        if predicate is not None:
            return len(self.relation(predicate))
        return sum(len(rows) for rows in self._relations.values())

    def copy(self) -> "Database":
        """An independent copy of the database (indexes rebuild lazily)."""
        clone = Database()
        for predicate, rows in self._relations.items():
            clone._relations[predicate] = set(rows)
        return clone

    def merge(self, other: "Database") -> None:
        """Add every tuple of ``other`` into this database."""
        for predicate, rows in other._relations.items():
            if not rows:
                continue
            mine = self._relations[predicate]
            fresh = rows - mine
            if not fresh:
                continue
            mine |= fresh
            for row in fresh:
                self._index_insert(predicate, row)

    def __repr__(self) -> str:
        return f"Database(predicates={len(self._relations)}, tuples={self.count()})"


class Engine:
    """Evaluates a :class:`Program` over a :class:`Database` of EDB facts.

    ``indexed=True`` (the default) enables hash-indexed joins, the
    most-bound-first join planner and indexed negation probes.
    ``indexed=False`` is the nested-loop reference evaluator the tests
    compare every indexed model against; both modes compute identical
    models.
    """

    def __init__(self, program: Program, *, indexed: bool = True):
        self._program = program
        self._strata = stratum_order(program)
        self._indexed = indexed

    @property
    def program(self) -> Program:
        """The program being evaluated."""
        return self._program

    @property
    def indexed(self) -> bool:
        """Whether hash-indexed evaluation is enabled."""
        return self._indexed

    def run(self, edb: Database | Mapping[str, Iterable[tuple]] | None = None) -> Database:
        """Compute the full model: EDB facts plus all derivable IDB facts."""
        database = self._initial_database(edb)
        for layer in self._strata:
            rules = [rule for predicate in layer for rule in self._program.rules_for(predicate)]
            self._evaluate_stratum(rules, database)
        return database

    def _initial_database(self, edb) -> Database:
        if isinstance(edb, Database):
            database = edb.copy()
        else:
            database = Database(edb or {})
        for fact_rule in self._program.facts:
            database.add_atom(fact_rule.head)
        return database

    # -- stratum evaluation (semi-naive) ------------------------------------

    def _evaluate_stratum(self, rules: list[Rule], database: Database) -> None:
        if not rules:
            return
        derived_predicates = {rule.head.predicate for rule in rules}
        # First round: full naive evaluation seeds the deltas. Deltas are
        # Database instances so recursive rounds can hash-index them too.
        delta = Database()
        for rule in rules:
            for row in self._evaluate_rule(rule, database, delta=None):
                if database.add(rule.head.predicate, row):
                    delta.add(rule.head.predicate, row)
        # Subsequent rounds only join against the delta of recursive predicates.
        while delta.count():
            new_delta = Database()
            for rule in rules:
                recursive = rule.body_predicates() & derived_predicates
                if not recursive:
                    continue
                for row in self._evaluate_rule(rule, database, delta=delta):
                    if database.add(rule.head.predicate, row):
                        new_delta.add(rule.head.predicate, row)
            delta = new_delta

    def _evaluate_rule(self, rule: Rule, database: Database,
                       delta: Database | None) -> set[tuple]:
        """All head tuples derivable by one rule.

        With ``delta`` given, at least one positive literal must be matched
        against the delta relation (semi-naive restriction); we implement this
        by iterating over which positive literal is the "delta literal",
        identified by its position in the rule body.
        """
        if delta is None:
            bindings = self._match_body(rule, database, delta=None, delta_position=None)
            return self._project_head(rule, bindings)
        results: set[tuple] = set()
        for position, literal in enumerate(rule.body):
            if not literal.is_positive_atom:
                continue
            assert literal.atom is not None
            if literal.atom.predicate not in delta:
                continue
            bindings = self._match_body(rule, database, delta=delta, delta_position=position)
            results |= self._project_head(rule, bindings)
        return results

    def _project_head(self, rule: Rule, bindings: Iterable[Substitution]) -> set[tuple]:
        rows: set[tuple] = set()
        for binding in bindings:
            head = rule.head.substitute(binding)
            if not head.is_ground:
                raise EvaluationError(f"head {rule.head} not ground under {binding!r}")
            rows.add(head.as_tuple())
        return rows

    def _match_body(self, rule: Rule, database: Database, *,
                    delta: Database | None, delta_position: int | None
                    ) -> list[Substitution]:
        """Enumerate substitutions satisfying the rule body.

        Literals are consumed greedily: positive atoms extend bindings;
        comparisons and negated atoms are applied as soon as their variables
        are bound (deferring them otherwise). ``delta_position`` is the body
        index of the literal that must be matched against the delta.
        """
        bindings: list[Substitution] = [{}]
        pending: list[tuple[int, Literal]] = list(enumerate(rule.body))

        while pending:
            popped = self._pop_next(pending, bindings, delta_position)
            if popped is None:
                raise EvaluationError(
                    f"rule {rule}: cannot order body literals (unbound built-in or negation)")
            position, literal = popped
            source = delta if (delta is not None and position == delta_position) else database
            bindings = self._apply_literal(literal, bindings, source)
            if not bindings:
                return []
        return bindings

    def _pop_next(self, pending: list[tuple[int, Literal]], bindings: list[Substitution],
                  delta_position: int | None) -> tuple[int, Literal] | None:
        """Choose the next evaluable literal.

        Fully bound comparisons and negations run first (they only filter).
        Among positive atoms the planner prefers the delta literal (the
        smallest relation of a recursive round), then the atom with the most
        bound columns — the most selective index probe. With ``indexed=False``
        positive atoms are taken in body order, as the naive engine did.
        """
        # All bindings share the same variable set by construction.
        bound = set(bindings[0]) if bindings else set()
        # 1. comparisons / negations whose variables are fully bound.
        for index, (_, literal) in enumerate(pending):
            if literal.is_comparison:
                comparison = literal.comparison
                assert comparison is not None
                if comparison.variables() <= bound or (
                        comparison.op in ("=", "==")
                        and len(comparison.variables() - bound) == 1):
                    return pending.pop(index)
            elif literal.is_negated_atom and literal.variables() <= bound:
                return pending.pop(index)
        # 2. otherwise a positive atom, chosen by the join planner.
        best_index: int | None = None
        best_score = -1
        for index, (position, literal) in enumerate(pending):
            if not literal.is_positive_atom:
                continue
            if not self._indexed:
                return pending.pop(index)
            if position == delta_position:
                return pending.pop(index)
            assert literal.atom is not None
            score = sum(1 for term in literal.atom.terms
                        if isinstance(term, Constant)
                        or (isinstance(term, Variable) and not term.is_anonymous
                            and term.name in bound))
            if score > best_score:
                best_index, best_score = index, score
        if best_index is None:
            return None
        return pending.pop(best_index)

    def _apply_literal(self, literal: Literal, bindings: list[Substitution],
                       source: Database) -> list[Substitution]:
        """Apply one literal to the binding set, reading rows from ``source``
        (the main database, or the delta database for the delta literal)."""
        if literal.is_comparison:
            comparison = literal.comparison
            assert comparison is not None
            surviving = []
            for binding in bindings:
                assigned = try_bind_assignment(comparison.substitute(binding), {})
                if assigned is not None:
                    merged = dict(binding)
                    merged.update(assigned)
                    surviving.append(merged)
                elif evaluate_comparison(comparison, binding):
                    surviving.append(binding)
            return surviving
        atom = literal.atom
        assert atom is not None
        if literal.negated:
            return self._apply_negation(atom, bindings, source)
        return self._apply_join(atom, bindings, source)

    def _apply_negation(self, atom: Atom, bindings: list[Substitution],
                        source: Database) -> list[Substitution]:
        """Filter bindings whose ground instance of ``atom`` is present.

        Membership uses the same constant semantics as positive unification
        (`_constants_match`): booleans never match ints, ints match equal
        floats. The indexed path probes the full-width index; the naive path
        scans and unifies, so both agree exactly.
        """
        arity = atom.arity
        all_positions = tuple(range(arity))
        index = (source.index_for(atom.predicate, all_positions)
                 if self._indexed and arity else None)
        rows = source.relation(atom.predicate)
        surviving = []
        for binding in bindings:
            ground = atom.substitute(binding)
            if not ground.is_ground:
                raise EvaluationError(f"negated atom {atom} not ground under {binding!r}")
            values = ground.as_tuple()
            if index is not None:
                candidates = index.get(row_key(values, all_positions), ())
            else:
                candidates = rows
            present = any(_unify(ground, row, {}) is not None for row in candidates)
            if not present:
                surviving.append(binding)
        return surviving

    def _apply_join(self, atom: Atom, bindings: list[Substitution],
                    source: Database) -> list[Substitution]:
        """Extend bindings by joining ``atom`` against its relation.

        When indexing is enabled and at least one column is bound (a constant
        or an already-bound variable), the relation's hash index on those
        columns is probed; bindings sharing a probe key are batched so each
        key does a single lookup. Otherwise the full relation is scanned.
        """
        bound_positions: list[int] = []
        if self._indexed and bindings:
            bound = bindings[0]
            for position, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    bound_positions.append(position)
                elif (isinstance(term, Variable) and not term.is_anonymous
                      and term.name in bound):
                    bound_positions.append(position)
        extended: list[Substitution] = []
        if not bound_positions:
            rows = source.relation(atom.predicate)
            for binding in bindings:
                for row in rows:
                    unified = _unify(atom, row, binding)
                    if unified is not None:
                        extended.append(unified)
            return extended
        positions = tuple(bound_positions)
        index = source.index_for(atom.predicate, positions)
        terms = [atom.terms[position] for position in positions]
        # Batch: group bindings by probe key so each key is looked up once.
        groups: dict[tuple, list[Substitution]] = {}
        for binding in bindings:
            key = tuple(
                hash_key(term.value if isinstance(term, Constant) else binding[term.name])
                for term in terms)
            groups.setdefault(key, []).append(binding)
        for key, group in groups.items():
            rows = index.get(key)
            if not rows:
                continue
            for binding in group:
                for row in rows:
                    unified = _unify(atom, row, binding)
                    if unified is not None:
                        extended.append(unified)
        return extended

    # -- querying ------------------------------------------------------------

    def query(self, goal: Atom | str, edb: Database | Mapping[str, Iterable[tuple]] | None = None,
              *, database: Database | None = None) -> list[tuple]:
        """Evaluate the program and return tuples matching ``goal``.

        ``goal`` may contain variables and constants; constants act as
        filters. The returned tuples are full rows of the goal predicate.
        Pass ``database=`` to query an already-computed model instead of
        re-evaluating the program.
        """
        if isinstance(goal, str):
            goal = parse_atom(goal)
        model = database if database is not None else self.run(edb)
        known = set(self._program.predicates()) | set(model.predicates())
        if goal.predicate not in known:
            raise UnknownPredicateError(goal.predicate)
        results = []
        for row in model.relation(goal.predicate):
            if _unify(goal, row, {}) is not None:
                results.append(row)
        return sorted(results, key=_sort_key)


def _unify(atom: Atom, row: tuple, binding: Substitution) -> Substitution | None:
    """Unify an atom's terms against a constant tuple under ``binding``."""
    if len(atom.terms) != len(row):
        return None
    result = dict(binding)
    for term, value in zip(atom.terms, row):
        if isinstance(term, Constant):
            if not _constants_match(term.value, value):
                return None
        elif isinstance(term, Variable):
            if term.is_anonymous:
                continue
            if term.name in result:
                if not _constants_match(result[term.name], value):
                    return None
            else:
                result[term.name] = value
    return result


def _constants_match(left: Any, right: Any) -> bool:
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        try:
            return float(left) == float(right)
        except OverflowError:  # ints beyond float range compare exactly
            return left == right
    return left == right


def _sort_key(row: tuple) -> tuple:
    return tuple((str(type(v).__name__), str(v)) for v in row)


def evaluate(
    program: Program | str, edb: Database | Mapping[str, Iterable[tuple]] | None = None
) -> Database:
    """One-shot helper: parse/evaluate ``program`` and return the full model."""
    if isinstance(program, str):
        program = Program.parse(program)
    return Engine(program).run(edb)


def query(
    program: Program | str,
    goal: Atom | str,
    edb: Database | Mapping[str, Iterable[tuple]] | None = None,
) -> list[tuple]:
    """One-shot helper: evaluate ``program`` and return tuples matching ``goal``."""
    if isinstance(program, str):
        program = Program.parse(program)
    return Engine(program).query(goal, edb)
