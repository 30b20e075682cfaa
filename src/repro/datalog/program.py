"""Datalog programs: rule collections with dependency analysis.

A :class:`Program` separates extensional facts (ground, body-less rules) from
intensional rules, and exposes the predicate dependency graph used by the
stratifier and the engine.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from repro.datalog.parser import parse_program
from repro.datalog.terms import Rule

__all__ = ["Program"]


class Program:
    """A set of rules and facts forming one reasoning task."""

    def __init__(self, rules: Iterable[Rule] = ()):
        self._rules: list[Rule] = []
        self._facts: list[Rule] = []
        self._rules_by_head: dict[str, list[Rule]] = defaultdict(list)
        for rule in rules:
            self.add(rule)

    @classmethod
    def parse(cls, text: str) -> "Program":
        """Build a program from Vadalog-lite source text."""
        return cls(parse_program(text))

    # -- construction --------------------------------------------------------

    def add(self, rule: Rule) -> None:
        """Add one rule or fact."""
        if rule.is_fact:
            self._facts.append(rule)
        else:
            self._rules.append(rule)
            self._rules_by_head[rule.head.predicate].append(rule)

    def extend(self, rules: Iterable[Rule]) -> None:
        """Add many rules."""
        for rule in rules:
            self.add(rule)

    def merge(self, other: "Program") -> "Program":
        """Return a new program containing the rules of both."""
        return Program([*self.all_rules(), *other.all_rules()])

    # -- accessors -------------------------------------------------------------

    @property
    def rules(self) -> tuple[Rule, ...]:
        """Rules with non-empty bodies."""
        return tuple(self._rules)

    @property
    def facts(self) -> tuple[Rule, ...]:
        """Ground facts."""
        return tuple(self._facts)

    def all_rules(self) -> list[Rule]:
        """Facts followed by rules."""
        return [*self._facts, *self._rules]

    def __len__(self) -> int:
        return len(self._facts) + len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.all_rules())

    # -- predicate analysis ------------------------------------------------------

    def idb_predicates(self) -> set[str]:
        """Predicates defined by at least one rule with a body."""
        return {rule.head.predicate for rule in self._rules}

    def predicates(self) -> set[str]:
        """All predicates mentioned anywhere in the program."""
        names = {rule.head.predicate for rule in self.all_rules()}
        for rule in self._rules:
            names |= rule.body_predicates()
        return names

    def rules_for(self, predicate: str) -> list[Rule]:
        """Rules whose head predicate is ``predicate``."""
        return list(self._rules_by_head.get(predicate, ()))

    def dependency_graph(self) -> dict[str, set[tuple[str, bool]]]:
        """Map head predicate → set of (body predicate, negated?) edges."""
        graph: dict[str, set[tuple[str, bool]]] = defaultdict(set)
        for rule in self._rules:
            head = rule.head.predicate
            graph[head]  # ensure node exists
            for literal in rule.body:
                if literal.atom is not None:
                    graph[head].add((literal.atom.predicate, literal.negated))
        return dict(graph)

    def __repr__(self) -> str:
        return f"Program(rules={len(self._rules)}, facts={len(self._facts)})"

    def to_text(self) -> str:
        """Render the program back to Vadalog-lite source."""
        return "\n".join(str(rule) for rule in self.all_rules())

    def cache_key(self) -> str:
        """A stable textual key identifying this program's rule set.

        Used by callers (e.g. the knowledge base) that memoise evaluated
        models per program. Two programs with the same rendered rules share
        a key, so structurally identical dependency programs reuse one
        engine and one model.
        """
        return self.to_text()
