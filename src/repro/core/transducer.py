"""Transducers: the components of the wrangling process.

In the paper a transducer is "a software component with input and output
dependencies defined as Datalog queries over the knowledge base and/or the
state of the transducer"; a transducer "knows what data it needs, and
becomes available for execution when that data is available in the
knowledge base".

:class:`Transducer` captures exactly that contract:

- ``input_dependencies`` — a list of Datalog goals; the transducer is
  *satisfiable* when every goal has at least one answer over the KB
  (optionally with extra ``dependency_rules`` defining helper views).
- ``run`` — the component logic; it reads and writes the KB / catalog and
  reports what it produced.
- change tracking — the orchestrator re-runs a transducer when the
  predicates it reads have changed since its last execution, which produces
  the dynamic, feedback-driven behaviour demonstrated in the paper.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field

from repro.core.errors import DependencyError, TransducerError
from repro.core.knowledge_base import KnowledgeBase
from repro.datalog.errors import DatalogError
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.program import Program

__all__ = ["Activity", "TransducerResult", "Transducer"]


class Activity:
    """The functionality categories transducers belong to (paper §2.3–2.4).

    The generic network transducer orders activities roughly following the
    wrangling lifecycle: extraction before matching, matching before mapping
    generation, quality/repair before selection, evaluation last.
    """

    EXTRACTION = "extraction"
    MATCHING = "matching"
    MAPPING = "mapping"
    QUALITY = "quality"
    REPAIR = "repair"
    FUSION = "fusion"
    SELECTION = "selection"
    EVALUATION = "evaluation"
    CONTROL = "control"

    #: Default lifecycle ordering used by the generic network transducer.
    DEFAULT_ORDER = (
        EXTRACTION,
        MATCHING,
        MAPPING,
        QUALITY,
        REPAIR,
        FUSION,
        SELECTION,
        EVALUATION,
        CONTROL,
    )

    @classmethod
    def rank(cls, activity: str) -> int:
        """Position of ``activity`` in the default lifecycle order."""
        try:
            return cls.DEFAULT_ORDER.index(activity)
        except ValueError:
            return len(cls.DEFAULT_ORDER)


@dataclass
class TransducerResult:
    """What one transducer execution produced."""

    #: Number of new metadata facts asserted into the KB.
    facts_added: int = 0
    #: Names of catalog tables written or replaced.
    tables_written: list[str] = field(default_factory=list)
    #: Free-text notes for the browsable trace.
    notes: str = ""
    #: Arbitrary structured details (component specific).
    details: dict = field(default_factory=dict)

    def merge(self, other: "TransducerResult") -> "TransducerResult":
        """Combine two results (used by composite transducers)."""
        return TransducerResult(
            facts_added=self.facts_added + other.facts_added,
            tables_written=[*self.tables_written, *other.tables_written],
            notes="; ".join(note for note in (self.notes, other.notes) if note),
            details={**self.details, **other.details},
        )


class Transducer(abc.ABC):
    """Base class for all wrangling components.

    Subclasses set :attr:`name`, :attr:`activity`, :attr:`input_dependencies`
    (and optionally :attr:`dependency_rules` / :attr:`priority`) and
    implement :meth:`run`.
    """

    #: Unique component name (used in the trace and registry).
    name: str = ""
    #: Functionality category; one of the :class:`Activity` constants.
    activity: str = Activity.CONTROL
    #: Datalog goals that must all be answerable for this transducer to run.
    input_dependencies: tuple[str, ...] = ()
    #: Optional extra Datalog rules defining views used by the goals.
    dependency_rules: str = ""
    #: Additional KB predicates to watch for changes. They are *not*
    #: required for the transducer to be runnable, but a change in any of
    #: them makes the transducer runnable again (e.g. mapping scoring wants
    #: to re-run when CFDs or feedback appear even though it can run without
    #: them).
    watch_predicates: tuple[str, ...] = ()
    #: Local priority within an activity; smaller runs earlier.
    priority: int = 100

    def __init__(self) -> None:
        if not self.name:
            self.name = type(self).__name__
        self._last_run_revision: int | None = None
        self._runs = 0
        # Parsed-dependency caches, keyed by the declaration strings so a
        # subclass that rewrites its dependencies after construction still
        # gets correct (re-parsed) results.
        self._dependency_program_cache: tuple[str, Program] | None = None
        self._input_predicates_cache: tuple[tuple, frozenset[str]] | None = None
        self._validate_dependencies()

    def _validate_dependencies(self) -> None:
        try:
            for goal in self.input_dependencies:
                parse_atom(goal)
            if self.dependency_rules:
                parse_program(self.dependency_rules)
        except DatalogError as exc:
            raise DependencyError(
                f"transducer {self.name!r} has malformed dependencies: {exc}") from exc

    # -- dependency evaluation --------------------------------------------------

    def dependency_program(self) -> Program:
        """The helper-rule program used when evaluating dependencies.

        The parse is cached: the orchestrator re-checks dependencies on
        every step, and re-parsing (plus re-stratifying downstream) the same
        rule text dominated dependency evaluation before the cache.
        """
        rules = self.dependency_rules
        cached = self._dependency_program_cache
        if cached is not None and cached[0] == rules:
            return cached[1]
        program = Program.parse(rules) if rules else Program()
        self._dependency_program_cache = (rules, program)
        return program

    def input_predicates(self) -> set[str]:
        """KB predicates this transducer reads (for change detection)."""
        signature = (self.input_dependencies, self.dependency_rules, self.watch_predicates)
        cached = self._input_predicates_cache
        if cached is not None and cached[0] == signature:
            return set(cached[1])
        predicates = self._compute_input_predicates()
        self._input_predicates_cache = (signature, frozenset(predicates))
        return predicates

    def _compute_input_predicates(self) -> set[str]:
        predicates: set[str] = set()
        program = self.dependency_program()
        idb = program.idb_predicates()
        for goal in self.input_dependencies:
            atom = parse_atom(goal)
            if atom.predicate in idb:
                predicates |= {
                    body for rule in program.rules_for(atom.predicate)
                    for body in rule.body_predicates()
                }
            else:
                predicates.add(atom.predicate)
        # Include every EDB predicate referenced by helper rules.
        for rule in program.rules:
            predicates |= {p for p in rule.body_predicates() if p not in idb}
        predicates |= set(self.watch_predicates)
        return predicates

    def satisfied(self, kb: KnowledgeBase) -> bool:
        """Whether every input dependency has at least one answer."""
        if not self.input_dependencies:
            return True
        program = self.dependency_program()
        return kb.satisfied(self.input_dependencies, program)

    def unsatisfied_dependencies(self, kb: KnowledgeBase) -> tuple[str, ...]:
        """The input goals that currently have no answer over ``kb``."""
        if not self.input_dependencies:
            return ()
        program = self.dependency_program()
        return tuple(goal for goal in self.input_dependencies
                     if not kb.satisfied([goal], program))

    def inputs_changed_since_last_run(self, kb: KnowledgeBase) -> bool:
        """Whether any input predicate changed after the last execution."""
        if self._last_run_revision is None:
            return True
        return kb.revision_of(self.input_predicates()) > self._last_run_revision

    def can_run(self, kb: KnowledgeBase) -> bool:
        """Runnable = dependencies satisfied and inputs changed since last run.

        The revision compare goes first: it is a lookup, while
        :meth:`satisfied` evaluates the dependency goals over the KB.
        """
        return self.inputs_changed_since_last_run(kb) and self.satisfied(kb)

    # -- execution ------------------------------------------------------------------

    @abc.abstractmethod
    def run(self, kb: KnowledgeBase) -> TransducerResult:
        """Execute the component against the knowledge base."""

    def execute(self, kb: KnowledgeBase) -> TransducerResult:
        """Run with bookkeeping (revision snapshot, run counter, timing)."""
        started = time.perf_counter()
        try:
            result = self.run(kb)
        except Exception as exc:
            raise TransducerError(f"transducer {self.name!r} failed: {exc}") from exc
        elapsed = time.perf_counter() - started
        if result is None:
            result = TransducerResult()
        result.details.setdefault("duration_seconds", elapsed)
        # Facts asserted during this execution (including by the transducer
        # itself) do not count as *new* input for it; only later changes by
        # other components make it runnable again.
        self._last_run_revision = kb.revision
        self._runs += 1
        return result

    def mark_synced(self, kb: KnowledgeBase) -> None:
        """Treat the current KB state as already processed by this transducer.

        Used by the incremental re-wrangling engine after it has performed a
        transducer's work out of band (e.g. patched the materialised result
        directly): without this, the next orchestration would re-run the
        transducer over inputs whose effects are already reflected in the KB
        — re-penalising the same feedback, re-materialising an identical
        table — instead of quiescing.
        """
        self._last_run_revision = kb.revision
        self._runs += 1

    # -- introspection ------------------------------------------------------------------

    @property
    def runs(self) -> int:
        """How many times this transducer has executed."""
        return self._runs

    @property
    def has_run(self) -> bool:
        """Whether the transducer has executed at least once."""
        return self._runs > 0

    def reset(self) -> None:
        """Forget execution history (used when a session is restarted)."""
        self._last_run_revision = None
        self._runs = 0

    def describe(self) -> dict:
        """Structured description used by the trace and by Table-1 tooling."""
        return {
            "name": self.name,
            "activity": self.activity,
            "input_dependencies": list(self.input_dependencies),
            "priority": self.priority,
            "runs": self._runs,
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, activity={self.activity!r})"
