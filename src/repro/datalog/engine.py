"""Bottom-up, semi-naive evaluation of stratified Vadalog-lite programs.

The engine is the reproduction of the paper's *Vadalog Reasoner*: the
architecture uses it to evaluate transducer input dependencies against the
knowledge base, to express orchestration conditions and to represent schema
mappings. The fragment implemented here (stratified Datalog with negation
and comparisons) covers all of those uses.

Evaluation runs stratum by stratum and, inside a stratum, one strongly
connected component of the dependency graph at a time, each after the
components it reads (:func:`~repro.datalog.stratify.evaluation_order`). A
non-recursive predicate is therefore complete after one pass; only
recursive components run semi-naive rounds.

Each rule is compiled, on first use, once per *delta position* (the body
literal that a semi-naive round matches against the previous round's new
tuples) into a static join plan, :class:`_Plan`. The plan fixes the literal
order: comparisons and negations as soon as their variables are bound, then
the delta literal, then the positive atom with the most bound columns. It
maps every variable to a slot of a binding tuple and precomputes, per
literal, the probed columns and their key getter, the repeated-variable
checks, the negation keys and the head projection, so evaluation builds no
per-row substitution. A positive atom probes a lazy hash index of
:class:`Database` on its bound columns (delta relations are indexed the same
way; an atom with no bound column scans its relation), and every index hit
is verified with :func:`~repro.datalog.terms.constants_match`: equal index
keys do not imply equal constants.

``Engine(indexed=False)`` is the reference evaluator: dict substitutions,
positive atoms joined in body order by nested loops, no index. The tests
compare every compiled model against it.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping

from repro.datalog.builtins import COMPARISONS, evaluate_comparison, try_bind_assignment
from repro.datalog.errors import EvaluationError, UnknownPredicateError
from repro.datalog.parser import parse_atom
from repro.datalog.program import Program
from repro.datalog.stratify import evaluation_order
from repro.datalog.terms import (
    Atom,
    Comparison,
    Constant,
    Literal,
    Rule,
    Substitution,
    Variable,
    constants_match,
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
                self.update(predicate, map(tuple, rows))

    def add(self, predicate: str, row: tuple) -> bool:
        """Insert a tuple; returns True when it was new."""
        row = tuple(row)
        relation = self._relations[predicate]
        before = len(relation)
        relation.add(row)
        if len(relation) == before:
            return False
        self._index_insert(predicate, (row,))
        return True

    def update(self, predicate: str, rows: Iterable[tuple]) -> set[tuple]:
        """Insert many tuples; returns the ones that were new."""
        fresh = (rows if isinstance(rows, set) else set(rows)) - self.relation(predicate)
        if fresh:
            self._relations[predicate] |= fresh
            self._index_insert(predicate, fresh)
        return fresh

    def _index_insert(self, predicate: str, rows: Iterable[tuple],
                      indexes: dict[tuple[int, ...], Index] | None = None) -> None:
        """Add new rows to ``indexes`` (default: every index of ``predicate``).

        Rows too short to have all indexed columns are skipped: they can
        never unify with an atom that binds those positions.
        """
        if indexes is None:
            indexes = self._indexes.get(predicate)
            if not indexes:
                return
        for positions, index in indexes.items():
            last = positions[-1]
            for row in rows:
                if len(row) > last:
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
            index = indexes[positions] = {}
            self._index_insert(predicate, self._relations.get(predicate, ()), {positions: index})
        return index

    def first_match(self, atom: Atom) -> tuple | None:
        """One tuple that unifies with ``atom``, or None when there is none.

        An existence probe: it looks up the index on the atom's constant
        positions (scanning the relation when there are none), verifies each
        candidate as a query does and stops at the first hit, so which
        matching tuple it returns is unspecified.
        """
        rows = self._relations.get(atom.predicate)
        if not rows:
            return None
        positions = tuple(column for column, term in enumerate(atom.terms)
                          if isinstance(term, Constant))
        if positions:
            key = tuple([hash_key(atom.terms[column].value) for column in positions])
            rows = self.index_for(atom.predicate, positions).get(key, ())
        return next((row for row in rows if _unify(atom, row, {}) is not None), None)

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
            if rows:
                self.update(predicate, rows)

    def __repr__(self) -> str:
        return f"Database(predicates={len(self._relations)}, tuples={self.count()})"


class Engine:
    """Evaluates a :class:`Program` over a :class:`Database` of EDB facts.

    ``indexed=True`` (the default) evaluates compiled join plans over
    hash-indexed relations. ``indexed=False`` is the nested-loop reference
    evaluator the tests compare every compiled model against; both modes
    compute identical models.
    """

    def __init__(self, program: Program, *, indexed: bool = True):
        self._program = program
        self._components = evaluation_order(program)
        self._indexed = indexed
        # Keyed by rule identity, not value: rules are frozen dataclasses
        # whose equality compares constants with ``==``, so ``s(X, 1)`` and
        # ``s(X, true)`` would share a plan. The program keeps its rules
        # alive, so an id is never reused while the engine exists.
        self._plans: dict[tuple[int, int | None], _Plan] = {}

    @property
    def program(self) -> Program:
        """The program being evaluated."""
        return self._program

    @property
    def indexed(self) -> bool:
        """Whether compiled, hash-indexed evaluation is enabled."""
        return self._indexed

    def run(self, edb: Database | Mapping[str, Iterable[tuple]] | None = None) -> Database:
        """Compute the full model: EDB facts plus all derivable IDB facts."""
        database = self._initial_database(edb)
        for component in self._components:
            rules = [rule for predicate in component for rule in self._program.rules_for(predicate)]
            self._evaluate_component(rules, database)
        return database

    def _initial_database(self, edb) -> Database:
        if isinstance(edb, Database):
            database = edb.copy()
        else:
            database = Database(edb or {})
        for fact_rule in self._program.facts:
            database.add_atom(fact_rule.head)
        return database

    # -- component evaluation (semi-naive) ----------------------------------

    def _evaluate_component(self, rules: list[Rule], database: Database) -> None:
        """Evaluate the rules of one component to their fixpoint.

        The first round evaluates every rule over the full database and
        seeds the delta. Later rounds match one positive literal against the
        previous round's delta, which holds only this component's
        predicates, so a non-recursive component stops after one round.
        Deltas are :class:`Database` instances, so they are indexed too.
        """
        heads = {rule.head.predicate for rule in rules}
        recursive = any(rule.body_predicates() & heads for rule in rules)
        delta: Database | None = None
        while delta is None or delta.count():
            new_delta = Database()
            for rule in rules:
                fresh = database.update(
                    rule.head.predicate, self._evaluate_rule(rule, database, delta))
                if recursive:
                    new_delta.update(rule.head.predicate, fresh)
            delta = new_delta

    def _evaluate_rule(self, rule: Rule, database: Database,
                       delta: Database | None) -> set[tuple]:
        """All head tuples derivable by one rule.

        With ``delta`` given, at least one positive literal must be matched
        against the delta relation (semi-naive restriction): the rule is
        evaluated once per positive literal whose predicate has delta
        tuples, with that literal, identified by its body position, read
        from the delta.
        """
        if delta is None:
            return self._derive(rule, database, None, None)
        results: set[tuple] = set()
        for position, literal in enumerate(rule.body):
            if literal.is_positive_atom and literal.atom.predicate in delta:
                results |= self._derive(rule, database, delta, position)
        return results

    def _derive(self, rule: Rule, database: Database, delta: Database | None,
                delta_position: int | None) -> set[tuple]:
        if self._indexed:
            plan = self._plans.get((id(rule), delta_position))
            if plan is None:
                plan = self._plans[id(rule), delta_position] = _Plan(rule, delta_position)
            return plan.run(database, delta)
        bindings = self._match_body(rule, database, delta=delta, delta_position=delta_position)
        return self._project_head(rule, bindings)

    # -- the reference evaluator (indexed=False) ----------------------------

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
            popped = self._pop_next(pending, bindings)
            if popped is None:
                raise EvaluationError(
                    f"rule {rule}: cannot order body literals (unbound built-in or negation)")
            position, literal = popped
            source = delta if (delta is not None and position == delta_position) else database
            bindings = self._apply_literal(literal, bindings, source)
            if not bindings:
                return []
        return bindings

    def _pop_next(self, pending: list[tuple[int, Literal]],
                  bindings: list[Substitution]) -> tuple[int, Literal] | None:
        """Choose the next evaluable literal: a comparison or negation whose
        variables are bound (see :func:`_ready_filter`), otherwise the first
        positive atom in body order."""
        # All bindings share the same variable set by construction.
        index = _ready_filter(pending, set(bindings[0]))
        if index is None:
            index = next((index for index, (_, literal) in enumerate(pending)
                          if literal.is_positive_atom), None)
        return None if index is None else pending.pop(index)

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
        (:func:`~repro.datalog.terms.constants_match`): booleans never match
        ints, ints match equal floats.
        """
        rows = source.relation(atom.predicate)
        surviving = []
        for binding in bindings:
            ground = atom.substitute(binding)
            if not ground.is_ground:
                raise EvaluationError(f"negated atom {atom} not ground under {binding!r}")
            if not any(_unify(ground, row, {}) is not None for row in rows):
                surviving.append(binding)
        return surviving

    def _apply_join(self, atom: Atom, bindings: list[Substitution],
                    source: Database) -> list[Substitution]:
        """Extend bindings by joining ``atom`` against its whole relation."""
        rows = source.relation(atom.predicate)
        extended: list[Substitution] = []
        for binding in bindings:
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


def _ready_filter(pending: list[tuple[int, Literal]], bound: set[str]) -> int | None:
    """Index in ``pending`` of the first comparison or negated atom that can
    run once the variables in ``bound`` are bound.

    Comparisons and negations only filter (or, for ``X = value`` with ``X``
    unbound, assign), so both evaluators run them as early as possible.
    ``X = X`` assigns nothing: its one unbound variable is on both sides, so
    it waits until ``X`` is bound.
    """
    for index, (_, literal) in enumerate(pending):
        if literal.is_comparison:
            comparison = literal.comparison
            assert comparison is not None
            unbound = comparison.variables() - bound
            if not unbound or (comparison.op in ("=", "==") and len(unbound) == 1
                               and comparison.left != comparison.right):
                return index
        elif literal.is_negated_atom and literal.variables() <= bound:
            return index
    return None


# -- compiled join plans -------------------------------------------------------

#: A binding holds one value per variable bound so far, in the order the plan
#: binds them; a plan step maps the bindings so far to the next ones.
Binding = tuple
Step = Callable[[list[Binding], Database, "Database | None"], list[Binding]]


class _Plan:
    """One rule compiled for one delta position (``None``: no delta).

    The literal order is static: every binding that reaches a literal has the
    same variables bound, so the order the reference evaluator chooses per
    call is fixed at compile time, with one difference: among positive atoms
    the delta literal comes first, then the atom with the most bound columns
    (constants and already-bound variables), the most selective index probe.
    """

    __slots__ = ("steps", "project")

    def __init__(self, rule: Rule, delta_position: int | None):
        #: Variable name → slot of the binding tuple.
        slots: dict[str, int] = {}
        self.steps: list[Step] = []
        pending = list(enumerate(rule.body))
        while pending:
            index = _ready_filter(pending, set(slots))
            if index is None:
                index = _most_bound_atom(pending, slots, delta_position)
            if index is None:  # pragma: no cover - rule safety guarantees an order
                raise EvaluationError(f"rule {rule}: cannot order body literals")
            position, literal = pending.pop(index)
            if literal.comparison is not None:
                self.steps.append(_comparison_step(literal.comparison, slots))
            elif literal.negated:
                self.steps.append(_negation_step(literal.atom, slots))
            else:
                self.steps.append(_join_step(literal.atom, slots, position == delta_position))
        self.project = _getter(rule.head.terms, slots, f"head {rule.head} not ground")

    def run(self, database: Database, delta: Database | None) -> set[tuple]:
        """The head tuples the rule derives."""
        bindings: list[Binding] = [()]
        for step in self.steps:
            bindings = step(bindings, database, delta)
            if not bindings:
                return set()
        return set(map(self.project, bindings))


def _most_bound_atom(pending: list[tuple[int, Literal]], slots: Mapping[str, int],
                     delta_position: int | None) -> int | None:
    """The next positive atom to join: the delta literal, else the one with
    the most bound columns (the first such in body order)."""
    best_index: int | None = None
    best_score = -1
    for index, (position, literal) in enumerate(pending):
        if not literal.is_positive_atom:
            continue
        if position == delta_position:
            return index
        assert literal.atom is not None
        score = sum(1 for term in literal.atom.terms
                    if isinstance(term, Constant)
                    or (isinstance(term, Variable) and not term.is_anonymous
                        and term.name in slots))
        if score > best_score:
            best_index, best_score = index, score
    return best_index


def _failing(message: str) -> Step:
    """A step that raises as soon as a binding reaches it, as the reference
    evaluator does when it reaches the same literal or head."""
    def fail(bindings: list[Binding], database: Database, delta: Database | None) -> list:
        raise EvaluationError(message)
    return fail


def _resolve(term: Any, slots: Mapping[str, int]) -> tuple[int | None, Any] | None:
    """``(slot, None)`` for a bound variable, ``(None, value)`` for a
    constant, ``None`` for an unbound variable."""
    if isinstance(term, Constant):
        return None, term.value
    if term.name in slots:
        return slots[term.name], None
    return None


def _getter(terms: Iterable[Any], slots: Mapping[str, int],
            unbound: str) -> Callable[[Binding], tuple]:
    """A function from a binding to the values of ``terms``; raises
    ``EvaluationError(unbound)`` when a term is an unbound variable."""
    parts = [_resolve(term, slots) for term in terms]
    if None in parts:
        def fail(binding: Binding) -> tuple:
            raise EvaluationError(unbound)
        return fail
    if any(slot is None for slot, _ in parts):
        return lambda binding: tuple([value if slot is None else binding[slot]
                                      for slot, value in parts])
    return _slot_getter([slot for slot, _ in parts])


def _slot_getter(positions: list[int]) -> Callable[[tuple], tuple]:
    """``lambda t: tuple(t[p] for p in positions)``, specialised by size."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        position = positions[0]
        return lambda values: (values[position],)
    return lambda values: ()


def _comparison_step(comparison: Comparison, slots: dict[str, int]) -> Step:
    """Filter by a comparison, or assign with ``X = value`` when exactly one
    side is an unbound variable (as :func:`try_bind_assignment` does)."""
    left, right = _resolve(comparison.left, slots), _resolve(comparison.right, slots)
    if comparison.op in ("=", "==") and (left is None) != (right is None):
        target = comparison.left if left is None else comparison.right
        slot, value = right if left is None else left
        slots[target.name] = len(slots)
        if slot is None:
            return lambda bindings, database, delta: [binding + (value,) for binding in bindings]
        return lambda bindings, database, delta: [binding + (binding[slot],)
                                                  for binding in bindings]
    if left is None or right is None:
        return _failing(f"comparison {comparison} has unbound variables")
    test = COMPARISONS.get(comparison.op)
    if test is None:
        return _failing(f"unknown comparison operator {comparison.op!r}")
    (left_slot, left_value), (right_slot, right_value) = left, right

    def compare(bindings: list[Binding], database: Database,
                delta: Database | None) -> list[Binding]:
        return [binding for binding in bindings
                if test(left_value if left_slot is None else binding[left_slot],
                        right_value if right_slot is None else binding[right_slot])]
    return compare


def _negation_step(atom: Atom, slots: Mapping[str, int]) -> Step:
    """Keep the bindings whose ground instance of ``atom`` is absent, probing
    the full-width index and verifying candidates with ``constants_match``."""
    predicate, arity = atom.predicate, atom.arity
    values_of = _getter(atom.terms, slots, f"negated atom {atom} not ground")
    positions = tuple(range(arity))

    def negate(bindings: list[Binding], database: Database,
               delta: Database | None) -> list[Binding]:
        if not arity:
            return [] if () in database.relation(predicate) else bindings
        index = database.index_for(predicate, positions)
        surviving = []
        for binding in bindings:
            values = values_of(binding)
            candidates = index.get(tuple([hash_key(value) for value in values]))
            if not candidates or not any(
                    len(row) == arity and all(map(constants_match, values, row))
                    for row in candidates):
                surviving.append(binding)
        return surviving
    return negate


def _join_step(atom: Atom, slots: dict[str, int], from_delta: bool) -> Step:
    """Join a positive atom: probe the index on its bound columns, verify
    each hit, and extend the binding with the atom's new variables."""
    predicate, arity = atom.predicate, atom.arity
    probes: list[tuple[int, int | None, Any]] = []  # (column, slot, constant)
    first: dict[str, int] = {}  # new variable → its first column
    repeats: list[tuple[int, int]] = []  # (first column, repeated column)
    for column, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            probes.append((column, None, term.value))
        elif not isinstance(term, Variable) or term.is_anonymous:
            continue
        elif term.name in slots:
            probes.append((column, slots[term.name], None))
        elif term.name in first:
            repeats.append((first[term.name], column))
        else:
            first[term.name] = column
    for name in first:
        slots[name] = len(slots)
    extract = _slot_getter(list(first.values()))
    constants = [(column, value) for column, slot, value in probes if slot is None]
    checks = [(slot, column) for column, slot, _ in probes if slot is not None]

    if constants or repeats:
        def fits(row: tuple) -> bool:
            """The checks no binding affects: arity, constants, repeated variables."""
            return (len(row) == arity
                    and all(constants_match(value, row[column]) for column, value in constants)
                    and all(constants_match(row[a], row[b]) for a, b in repeats))
    else:
        def fits(row: tuple) -> bool:
            return len(row) == arity

    if not probes:
        # Nothing to probe: every binding reads the whole relation, a cross
        # product (or, without new variables, a semi-join).
        def scan(bindings: list[Binding], database: Database,
                 delta: Database | None) -> list[Binding]:
            source = delta if from_delta else database
            found = [extract(row) for row in source.relation(predicate) if fits(row)]
            if not found:
                return []
            if not first:
                return bindings
            return [binding + new for binding in bindings for new in found]
        return scan

    columns = tuple(column for column, _, _ in probes)

    # The values a binding must match, and the row values they are checked
    # against: every index hit is verified with constants_match.
    bound_values = _slot_getter([slot for slot, _ in checks])
    row_values = _slot_getter([column for _, column in checks])
    key_parts = [(slot, None if slot is not None else hash_key(value))
                 for _, slot, value in probes]  # (slot, or the constant's key)

    def probe(bindings: list[Binding], database: Database,
              delta: Database | None) -> list[Binding]:
        source = delta if from_delta else database
        index = source.index_for(predicate, columns)
        buckets: dict[tuple, list[tuple[tuple, tuple]]] = {}
        extended: list[Binding] = []
        for binding in bindings:
            key = tuple([part if slot is None else hash_key(binding[slot])
                         for slot, part in key_parts])
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = [(row_values(row), extract(row))
                                         for row in index.get(key, ()) if fits(row)]
            values = bound_values(binding)
            if first:
                extended += [binding + new for hit, new in bucket
                             if all(map(constants_match, values, hit))]
            elif any(all(map(constants_match, values, hit)) for hit, _ in bucket):
                extended.append(binding)
        return extended
    return probe


def _unify(atom: Atom, row: tuple, binding: Substitution) -> Substitution | None:
    """Unify an atom's terms against a constant tuple under ``binding``."""
    if len(atom.terms) != len(row):
        return None
    result = dict(binding)
    for term, value in zip(atom.terms, row):
        if isinstance(term, Constant):
            if not constants_match(term.value, value):
                return None
        elif isinstance(term, Variable):
            if term.is_anonymous:
                continue
            if term.name in result:
                if not constants_match(result[term.name], value):
                    return None
            else:
                result[term.name] = value
    return result


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
