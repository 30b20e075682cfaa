"""Compile rewritable queries into datalog programs over the dirty tables.

The encoding turns the key-join forest of :func:`repro.cqa.query.classify`
into a stratified datalog program whose evaluation over the *unrepaired*
base tables yields exactly the certain answers — no repair is ever
materialised. Per candidate answer the program works block-at-a-time, where
a block is a group of key-equal tuples of a keyed relation:

- ``_cqa_{i}_anchor`` — for each atom, the blocks to check for a candidate
  answer: the full join for roots (its head values are the candidates), and
  the parent's matching rows joined to the child's pattern for children. A
  keyed child's block is thus anchored only when one of its tuples carries
  the candidate's head values and the atom's constants; a block without
  such a tuple can never be good, so leaving it out changes no answer.
- ``_cqa_{i}_match`` / ``_cqa_{i}_bad`` / ``_cqa_{i}_good`` — a block is
  *good* when every tuple in it matches the atom's pattern and recursively
  passes all child checks; a single failing tuple makes it *bad*, because a
  repair may pick exactly that tuple.
- ``_cqa_{i}_sat`` — consistent (unkeyed) atoms are the same in every
  repair, so they compile to plain existential checks.
- ``_cqa_certain`` — a candidate is certain when every tree of the forest
  has a good (or satisfied) root block.

Soundness and completeness follow the standard argument: a fully-good root
block answers under any repair choice, and if no block is fully good an
adversarial repair picks one failing tuple per block, which is consistent
across the forest because the query is self-join-free.

Cost: each anchor holds at most the join of the patterns along its root
path, and ``bad`` scans every tuple of each anchored block, so the work is
the matching rows times the size of their blocks. The quadratic case that
remains is a large block whose tuples carry many candidates, as every block
at a root does. NULL key values group like any other value (matching the
enumeration fallback and the brute-force oracle), so a source that lacks
the key attribute entirely melts into one NULL block, and every candidate
it holds scans the whole block in ``bad``. Prefer keys that actually
discriminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.cqa.query import ConjunctiveQuery, RewritePlan, Var
from repro.datalog.engine import query as run_query
from repro.datalog.program import Program
from repro.datalog.terms import Atom, Constant, Literal, Rule, Term, Variable

__all__ = [
    "RewriteError",
    "CompiledQuery",
    "compile_certain",
    "certain_answers",
    "naive_program",
    "build_edb",
]


class RewriteError(ValueError):
    """Raised when a plan cannot be compiled against the given schemas."""


@dataclass(frozen=True)
class CompiledQuery:
    """A certain-answer datalog program with its goal atom."""

    plan: RewritePlan
    program: Program
    goal: Atom

    @property
    def query(self) -> ConjunctiveQuery:
        """The source query."""
        return self.plan.query


def _to_term(term: Any) -> Term:
    return Variable(term.name) if isinstance(term, Var) else Constant(term)


class _NodeInfo:
    """Per-node compilation facts: patterns, key variables, interfaces."""

    def __init__(self, node, atom, attrs: Sequence[str], head: Sequence[str], fresh):
        bound = dict(atom.bindings)
        unknown = [a for a in bound if a not in attrs]
        if unknown:
            raise RewriteError(
                f"atom over {atom.relation!r} mentions unknown attributes {unknown}"
            )
        missing_keys = [a for a in node.key_attrs if a not in attrs]
        if missing_keys:
            raise RewriteError(
                f"key attributes {missing_keys} are not in the schema of"
                f" {atom.relation!r}"
            )
        self.node = node
        self.atom = atom
        self.attrs = list(attrs)
        self.pattern: list[Term] = []
        key_positions = set(node.key_attrs) if node.keyed else set()
        self.captured: list[tuple[int, Term]] = []
        term_by_attr: dict[str, Term] = {}
        for position, attribute in enumerate(attrs):
            if attribute in bound:
                term = _to_term(bound[attribute])
                if attribute not in key_positions:
                    self.captured.append((position, term))
            elif attribute in key_positions:
                term = Variable(fresh(f"CQA_K{node.index}_{position}"))
            else:
                term = Variable("_")
            self.pattern.append(term)
            term_by_attr[attribute] = term
        self.key_terms: list[Term] = [term_by_attr[a] for a in node.key_attrs]
        head_set = set(head)
        self.kvars: list[str] = []
        for term in self.key_terms:
            if isinstance(term, Variable) and term.name not in head_set:
                if term.name not in self.kvars:
                    self.kvars.append(term.name)
        self.invars: list[str] = []

    @property
    def anchor_args(self) -> list[str]:
        return self.kvars if self.node.keyed else self.invars

    def pattern_atom(self) -> Atom:
        return Atom(self.atom.relation, tuple(self.pattern))

    def key_scan_atom(self) -> Atom:
        """The atom with only key positions constrained (matches any tuple
        of the addressed blocks)."""
        key_positions = {
            position
            for position, attribute in enumerate(self.attrs)
            if attribute in set(self.node.key_attrs)
        }
        terms = [
            term if position in key_positions else Variable("_")
            for position, term in enumerate(self.pattern)
        ]
        return Atom(self.atom.relation, tuple(terms))


def _predicate(index: int | None, suffix: str) -> str:
    return f"_cqa_{suffix}" if index is None else f"_cqa_{index}_{suffix}"


def compile_certain(
    plan: RewritePlan, schemas: Mapping[str, Sequence[str]]
) -> CompiledQuery:
    """Compile a classified plan into its certain-answer program.

    ``schemas`` maps every relation of the query to its full attribute
    list in storage order (patterns must cover the whole row width).
    """
    query = plan.query
    head_vars = [Variable(name) for name in query.head]
    taken = set(query.variables()) | {"_"}

    def fresh(name: str) -> str:
        while name in taken:
            name += "_"
        taken.add(name)
        return name

    owners = dict(plan.owners)
    info: dict[int, _NodeInfo] = {}
    for node in plan.nodes:
        attrs = schemas.get(node.relation)
        if attrs is None:
            raise RewriteError(f"no schema for relation {node.relation!r}")
        entry = _NodeInfo(node, query.atoms[node.index], list(attrs), query.head, fresh)
        if not node.keyed and node.parent is not None:
            head_set = set(query.head)
            entry.invars = [
                v
                for v in entry.atom.variables()
                if v not in head_set and owners.get(v) == node.parent
            ]
        info[node.index] = entry

    all_patterns = [
        Literal(atom=info[i].pattern_atom()) for i in range(len(query.atoms))
    ]
    rules: list[Rule] = []

    def anchor_atom(index: int) -> Atom:
        entry = info[index]
        return Atom(
            _predicate(index, "anchor"),
            tuple(Variable(n) for n in entry.anchor_args) + tuple(head_vars),
        )

    def check_atom(index: int) -> Atom:
        """The child-check literal a parent uses: good for keyed children,
        sat for consistent ones."""
        entry = info[index]
        suffix = "good" if entry.node.keyed else "sat"
        return Atom(
            _predicate(index, suffix),
            tuple(Variable(n) for n in entry.anchor_args) + tuple(head_vars),
        )

    for node in plan.nodes:
        entry = info[node.index]
        if node.parent is None:
            rules.append(Rule(anchor_atom(node.index), list(all_patterns)))
        else:
            body = [
                Literal(atom=anchor_atom(node.parent)),
                Literal(atom=info[node.parent].pattern_atom()),
            ]
            if node.keyed:
                body.append(Literal(atom=entry.pattern_atom()))
            rules.append(Rule(anchor_atom(node.index), body))

        child_checks = [Literal(atom=check_atom(child)) for child in node.children]
        if node.keyed:
            match_head = Atom(
                _predicate(node.index, "match"),
                tuple(Variable(n) for n in entry.kvars)
                + tuple(term for _position, term in entry.captured)
                + tuple(head_vars),
            )
            rules.append(
                Rule(
                    match_head,
                    [
                        Literal(atom=entry.pattern_atom()),
                        Literal(atom=anchor_atom(node.index)),
                    ]
                    + child_checks,
                )
            )
            row_vars = {
                position: Variable(fresh(f"CQA_W{node.index}_{position}"))
                for position, _term in entry.captured
            }
            scan_terms = list(entry.key_scan_atom().terms)
            for position, variable in row_vars.items():
                scan_terms[position] = variable
            match_lookup = Atom(
                _predicate(node.index, "match"),
                tuple(Variable(n) for n in entry.kvars)
                + tuple(row_vars[position] for position, _term in entry.captured)
                + tuple(head_vars),
            )
            bad_head = Atom(
                _predicate(node.index, "bad"),
                tuple(Variable(n) for n in entry.kvars) + tuple(head_vars),
            )
            rules.append(
                Rule(
                    bad_head,
                    [
                        Literal(atom=anchor_atom(node.index)),
                        Literal(atom=Atom(entry.atom.relation, tuple(scan_terms))),
                        Literal(atom=match_lookup, negated=True),
                    ],
                )
            )
            good_head = Atom(
                _predicate(node.index, "good"),
                tuple(Variable(n) for n in entry.kvars) + tuple(head_vars),
            )
            rules.append(
                Rule(
                    good_head,
                    [
                        Literal(atom=anchor_atom(node.index)),
                        Literal(atom=bad_head, negated=True),
                    ],
                )
            )
        else:
            sat_head = Atom(
                _predicate(node.index, "sat"),
                tuple(Variable(n) for n in entry.invars) + tuple(head_vars),
            )
            rules.append(
                Rule(
                    sat_head,
                    [
                        Literal(atom=entry.pattern_atom()),
                        Literal(atom=anchor_atom(node.index)),
                    ]
                    + child_checks,
                )
            )

    certain_body: list[Literal] = []
    for root in plan.roots:
        root_head = Atom(_predicate(root.index, "root"), tuple(head_vars))
        rules.append(Rule(root_head, [Literal(atom=check_atom(root.index))]))
        certain_body.append(Literal(atom=root_head))
    goal = Atom(_predicate(None, "certain"), tuple(head_vars))
    rules.append(Rule(goal, certain_body))

    return CompiledQuery(plan=plan, program=Program(tuple(rules)), goal=goal)


# -- evaluation ----------------------------------------------------------------


def build_edb(tables: Mapping[str, Any]) -> dict[str, list[tuple]]:
    """Normalise a relation mapping (Table objects or row iterables) to an
    extensional database for the engine."""
    edb: dict[str, list[tuple]] = {}
    for name, table in tables.items():
        if hasattr(table, "tuples"):
            edb[name] = table.tuples()
        else:
            edb[name] = [tuple(row) for row in table]
    return edb


def certain_answers(compiled: CompiledQuery, tables: Mapping[str, Any]) -> list[tuple]:
    """Evaluate the compiled rewriting over the (dirty) ``tables``."""
    return run_query(compiled.program, compiled.goal, build_edb(tables))


def naive_program(
    query: ConjunctiveQuery,
    schemas: Mapping[str, Sequence[str]],
    *,
    head_vars: Sequence[str] | None = None,
) -> tuple[Program, Atom]:
    """The plain (repair-oblivious) evaluation program for ``query``.

    ``head_vars`` overrides the projection — repair enumeration uses the
    full witness width for boolean queries.
    """
    projected = tuple(query.head if head_vars is None else head_vars)
    if not projected:
        raise RewriteError("cannot build a zero-arity goal; project at least one variable")
    body: list[Literal] = []
    for atom in query.atoms:
        attrs = schemas.get(atom.relation)
        if attrs is None:
            raise RewriteError(f"no schema for relation {atom.relation!r}")
        bound = dict(atom.bindings)
        unknown = [a for a in bound if a not in attrs]
        if unknown:
            raise RewriteError(
                f"atom over {atom.relation!r} mentions unknown attributes {unknown}"
            )
        terms = tuple(
            _to_term(bound[a]) if a in bound else Variable("_") for a in attrs
        )
        body.append(Literal(atom=Atom(atom.relation, terms)))
    goal = Atom("_cqa_naive", tuple(Variable(name) for name in projected))
    return Program((Rule(goal, body),)), goal
