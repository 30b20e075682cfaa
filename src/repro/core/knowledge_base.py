"""The VADA knowledge base.

The knowledge base is "a repository for representing the data of relevance to
the data wrangling process": user context, data context and transducer
metadata. It also "provides access to extensional data, but for the most
part this is actually stored in external file systems or databases" — here,
in a :class:`~repro.relational.catalog.Catalog` of named tables.

Implementation notes
--------------------
- Metadata facts are plain tuples grouped by predicate, held in a
  :class:`repro.datalog.Database` so that Datalog dependency queries can be
  evaluated directly over them.
- Every mutation bumps a per-predicate *revision* counter. Transducers use
  revisions to decide whether their inputs changed since they last ran,
  which is what drives the dynamic re-orchestration described in the paper
  (new data context or feedback → affected transducers become runnable
  again).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable

from repro.core.errors import KnowledgeBaseError
from repro.core.facts import Predicates, attribute_fact, dataset_fact, schema_fact
from repro.datalog.engine import Database, Engine
from repro.datalog.errors import UnknownPredicateError
from repro.datalog.parser import parse_atom
from repro.datalog.program import Program
from repro.datalog.terms import Atom
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.table import Table

__all__ = ["KnowledgeBase"]


class KnowledgeBase:
    """Shared metadata store plus extensional-data catalog."""

    #: Maximum number of (program → evaluated model) cache entries retained.
    MODEL_CACHE_SIZE = 64

    def __init__(self, catalog: Catalog | None = None):
        self._facts = Database()
        self._catalog = catalog if catalog is not None else Catalog()
        self._revisions: dict[str, int] = defaultdict(int)
        self._revision = 0
        self._artifacts: dict[str, Any] = {}
        # Models are memoised per program and revision instead of rebuilding
        # an engine + database copy for every query; a rule-free program's
        # model is the live fact database itself (see _model_for).
        self._model_cache: dict[str, tuple[int, Engine, Database]] = {}

    # -- revision tracking ----------------------------------------------------

    @property
    def revision(self) -> int:
        """Global revision counter (bumped on every effective change)."""
        return self._revision

    def predicate_revision(self, predicate: str) -> int:
        """Revision at which ``predicate`` last changed (0 = never)."""
        return self._revisions.get(predicate, 0)

    def revision_of(self, predicates: Iterable[str]) -> int:
        """The most recent revision among ``predicates``."""
        return max((self.predicate_revision(p) for p in predicates), default=0)

    def _bump(self, predicate: str) -> None:
        self._revision += 1
        self._revisions[predicate] = self._revision

    # -- fact assertions --------------------------------------------------------

    def assert_fact(self, predicate: str, *values: Any) -> bool:
        """Assert one fact; returns True when the fact was new."""
        if not predicate:
            raise KnowledgeBaseError("predicate name must be non-empty")
        added = self._facts.add(predicate, tuple(values))
        if added:
            self._bump(predicate)
        return added

    def assert_tuple(self, fact: tuple[str, tuple]) -> bool:
        """Assert a (predicate, values) pair as built by :mod:`repro.core.facts`."""
        predicate, values = fact
        return self.assert_fact(predicate, *values)

    def retract_fact(self, predicate: str, *values: Any) -> bool:
        """Remove one fact; returns True when it was present."""
        removed = self._facts.remove(predicate, tuple(values))
        if removed:
            self._bump(predicate)
        return removed

    def retract_where(self, predicate: str, **positions: Any) -> int:
        """Remove all facts of ``predicate`` whose positional values match.

        ``positions`` maps 0-based argument positions (as ``p0``, ``p1``, …)
        to required values; e.g. ``retract_where("match", p2="property")``.
        """
        to_match = {int(key[1:]): value for key, value in positions.items()}
        victims = []
        for row in self._facts.relation(predicate):
            if all(index < len(row) and row[index] == value
                   for index, value in to_match.items()):
                victims.append(row)
        for row in victims:
            self._facts.remove(predicate, row)
        if victims:
            self._bump(predicate)
        return len(victims)

    # -- fact queries --------------------------------------------------------------

    def facts(self, predicate: str) -> list[tuple]:
        """All tuples of ``predicate``, sorted for determinism."""
        return sorted(self._facts.relation(predicate), key=lambda row: tuple(map(str, row)))

    def has(self, predicate: str, *values: Any) -> bool:
        """Whether a specific ground fact is present."""
        return tuple(values) in self._facts.relation(predicate)

    def count(self, predicate: str | None = None) -> int:
        """Number of facts of one predicate (or overall)."""
        return self._facts.count(predicate)

    def predicates(self) -> list[str]:
        """Sorted list of non-empty predicates."""
        return self._facts.predicates()

    def query(self, goal: str | Atom, program: Program | str | None = None, *,
              first: bool = False) -> list[tuple]:
        """Evaluate a Datalog goal over the knowledge base.

        ``program`` may supply additional rules; the KB facts are the EDB.
        Evaluated models are cached per program until the KB changes, so
        repeated queries reuse one indexed database instead of re-deriving
        it. The answers are sorted. With ``first=True`` the goal is an
        existence probe instead: at most one answer, in no particular
        order, found through the model's hash index on the goal's constant
        positions (see :meth:`~repro.datalog.engine.Database.first_match`).
        """
        if isinstance(program, str):
            program = Program.parse(program)
        if program is None:
            program = Program()
        engine, model = self._model_for(program)
        if isinstance(goal, str):
            goal = parse_atom(goal)
        if first:
            row = model.first_match(goal)
            return [] if row is None else [row]
        try:
            return engine.query(goal, database=model)
        except UnknownPredicateError:  # an empty answer is friendlier
            return []

    def _model_for(self, program: Program) -> tuple[Engine, Database]:
        """The (engine, evaluated model) pair for ``program`` at the current
        revision, memoised in a small LRU keyed by the program's rules.

        Programs without rules or facts derive nothing, so they share the
        live fact database directly — its hash indexes then persist across
        queries and are maintained incrementally by :meth:`assert_fact`.
        """
        key = program.cache_key()
        entry = self._model_cache.get(key)
        if entry is not None and entry[0] == self._revision:
            self._model_cache.pop(key)  # re-insert to refresh LRU order
            self._model_cache[key] = entry
            return entry[1], entry[2]
        engine = entry[1] if entry is not None else Engine(program)
        if not program.all_rules():
            model = self._facts
        else:
            model = engine.run(self._facts)
        self._model_cache.pop(key, None)
        self._model_cache[key] = (self._revision, engine, model)
        while len(self._model_cache) > self.MODEL_CACHE_SIZE:
            self._model_cache.pop(next(iter(self._model_cache)))
        return engine, model

    def satisfied(self, goals: Iterable[str | Atom]) -> bool:
        """True when every goal has at least one answer (one existence probe
        per goal, stopping at the first goal without one)."""
        return all(self.query(goal, first=True) for goal in goals)

    def snapshot(self) -> dict[str, list[tuple]]:
        """A dictionary snapshot of all metadata facts (for tracing/tests)."""
        return {predicate: self.facts(predicate) for predicate in self.predicates()}

    @property
    def database(self) -> Database:
        """The underlying Datalog database (read access for the reasoner)."""
        return self._facts

    # -- extensional data ------------------------------------------------------------

    @property
    def catalog(self) -> Catalog:
        """The extensional-data catalog."""
        return self._catalog

    def register_table(self, table: Table, role: str, *,
                       replace: bool = False) -> str:
        """Register a table in the catalog and assert its schema metadata.

        ``role`` is one of ``source``, ``target``, ``context`` (see
        :class:`~repro.core.facts.Predicates`). Returns the catalog name.
        """
        if role not in (Predicates.ROLE_SOURCE, Predicates.ROLE_TARGET, Predicates.ROLE_CONTEXT):
            raise KnowledgeBaseError(f"unknown dataset role {role!r}")
        name = self._catalog.register(table, replace=replace)
        self.describe_schema(table.schema, role)
        self.assert_tuple(dataset_fact(name, role, len(table)))
        return name

    def update_table(self, table: Table) -> None:
        """Replace a registered table's contents and refresh its row count."""
        self._catalog.replace(table)
        for row in list(self._facts.relation(Predicates.DATASET)):
            if row[0] == table.name:
                self.retract_fact(Predicates.DATASET, *row)
                self.assert_tuple(dataset_fact(table.name, row[1], len(table)))

    def describe_schema(self, schema: Schema, role: str) -> None:
        """Assert ``schema`` / ``attribute`` facts for a relation."""
        self.assert_tuple(schema_fact(schema.name, role))
        for position, attribute in enumerate(schema.attributes):
            self.assert_tuple(
                attribute_fact(schema.name, attribute.name, attribute.dtype.value, position))

    def get_table(self, name: str) -> Table:
        """Fetch an extensional table by name."""
        return self._catalog.get(name)

    def has_table(self, name: str) -> bool:
        """Whether a table is registered under ``name``."""
        return name in self._catalog

    def tables_with_role(self, role: str) -> list[str]:
        """Names of registered datasets with the given role."""
        return sorted(row[0] for row in self._facts.relation(Predicates.DATASET)
                      if row[1] == role)

    def source_relations(self) -> list[str]:
        """Names of source datasets."""
        return self.tables_with_role(Predicates.ROLE_SOURCE)

    def target_relations(self) -> list[str]:
        """Names of relations declared with the target role."""
        return sorted(row[0] for row in self._facts.relation(Predicates.SCHEMA)
                      if row[1] == Predicates.ROLE_TARGET)

    def schema_of(self, relation: str) -> Schema:
        """Reconstruct a schema from ``attribute`` facts (metadata view).

        For relations whose data is registered in the catalog the catalog
        schema is returned directly (it carries richer type information).
        """
        if relation in self._catalog:
            return self._catalog.get_schema(relation)
        rows = [row for row in self._facts.relation(Predicates.ATTRIBUTE) if row[0] == relation]
        if not rows:
            raise KnowledgeBaseError(f"no schema information for relation {relation!r}")
        from repro.relational.schema import Attribute
        from repro.relational.types import DataType

        ordered = sorted(rows, key=lambda row: row[3])
        attributes = [Attribute(row[1], DataType.from_name(row[2])) for row in ordered]
        return Schema(relation, attributes)

    # -- structured artifacts -----------------------------------------------------

    def store_artifact(self, key: str, value: Any) -> None:
        """Store a structured component artifact (mapping object, learned CFDs, …).

        KB *facts* summarise artifacts for dependency evaluation; the full
        Python objects are kept here so that downstream transducers (e.g.
        repair consuming the CFD learner's witnesses) can retrieve them.
        """
        self._artifacts[key] = value

    def get_artifact(self, key: str, default: Any = None) -> Any:
        """Fetch a stored artifact (None / default when absent)."""
        return self._artifacts.get(key, default)

    def has_artifact(self, key: str) -> bool:
        """Whether an artifact is stored under ``key``."""
        return key in self._artifacts

    def artifact_keys(self) -> list[str]:
        """Sorted keys of stored artifacts."""
        return sorted(self._artifacts)

    # -- serialisation -------------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        """Pickle everything but the model cache (a transient memo holding
        evaluation engines); session checkpoints rebuild it on first query."""
        state = self.__dict__.copy()
        state["_model_cache"] = {}
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._model_cache = {}

    def __repr__(self) -> str:
        return (f"KnowledgeBase(facts={self._facts.count()}, "
                f"tables={len(self._catalog)}, revision={self._revision})")
