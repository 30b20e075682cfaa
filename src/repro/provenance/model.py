"""Compact why-provenance annotations for wrangled tuples and cells.

Every tuple a mapping materialises, every fused duplicate cluster, every
repaired cell and every feedback-driven edit records *where its value came
from*: the contributing source rows (why-provenance witnesses), the mapping
that combined them, and the operator that last touched the value. The store
is deliberately compact:

- :class:`SourceRef` values are interned per store, so a source row that
  contributes to many result tuples (a joined lookup row, a fusion winner)
  is represented once;
- the ``attribute -> source relation`` map of a mapping's output is shared
  by every tuple the mapping produces (one dict per mapping, not per row);
- per-cell :class:`CellLineage` records exist only where a cell's history
  *differs* from its tuple's (fusion conflicts, repairs, feedback edits) —
  for the common case the cell lineage is derived on demand.

Why-provenance follows the usual set-of-witnesses semantics: a tuple (or
cell) is supported by a set of witnesses, each witness being the set of base
tuples that jointly produced it. A freshly mapped tuple has one witness
(its driving row plus any joined rows); a fused tuple has one witness per
merged duplicate; a constant (e.g. a NULL padded in by a union mapping) has
an empty witness set.

Tracking is guarded by the store's ``enabled`` flag (default on); a disabled
store turns every recording call into a no-op so benchmarks can measure the
pipeline without lineage overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, NamedTuple

__all__ = [
    "PROVENANCE_ARTIFACT_KEY",
    "SourceRef",
    "CellLineage",
    "TupleLineage",
    "ProvenanceStore",
    "provenance_store",
]

#: Artifact key under which the session's :class:`ProvenanceStore` lives in
#: the knowledge base.
PROVENANCE_ARTIFACT_KEY = "provenance_store"

#: Operator kinds recorded in lineage annotations.
OPERATOR_MAPPING = "mapping"
OPERATOR_FUSION = "fusion"
OPERATOR_REPAIR = "repair"
OPERATOR_FEEDBACK = "feedback"


class SourceRef(NamedTuple):
    """A reference to one base tuple: ``(source relation, row id)``.

    ``row_id`` follows the pipeline's ``source:index`` convention, so the
    underlying row can be looked up in the catalog (source tables are
    logically immutable, hence the index stays valid for the session).
    """

    relation: str
    row_id: str

    @property
    def row_index(self) -> int | None:
        """The numeric row index encoded in ``row_id`` (None if unparsable)."""
        _, _, tail = self.row_id.rpartition(":")
        if tail.isdigit():
            return int(tail)
        return None

    def __str__(self) -> str:
        return self.row_id if ":" in self.row_id else f"{self.relation}:{self.row_id}"


#: A witness: the set of base tuples that jointly produced a value.
Witness = frozenset  # frozenset[SourceRef]


@dataclass(frozen=True)
class CellLineage:
    """Lineage of one result cell where it differs from its tuple's lineage.

    ``operator`` names what produced the current value (``fusion`` when a
    conflict was resolved, ``repair`` when a CFD rewrote it, ``feedback``
    when an annotation cleared it); ``detail`` carries the operator-specific
    identifier (fusion policy, CFD id, feedback id).
    """

    operator: str
    witnesses: frozenset = frozenset()
    detail: str | None = None

    def source_relations(self) -> set[str]:
        """Relations of every base tuple in any witness."""
        return {ref.relation for witness in self.witnesses for ref in witness}


@dataclass(frozen=True)
class TupleLineage:
    """Lineage of one result tuple.

    ``witnesses`` is the why-provenance set (one witness per alternative
    derivation — mapped tuples have one, fused tuples one per duplicate).
    ``cell_sources`` maps target attributes to the source relation whose
    assignment populated them (shared across all tuples of one mapping);
    attributes absent from it were never assigned (constants / padded
    NULLs). ``cells`` holds the sparse per-cell overrides.
    """

    operator: str
    mapping_id: str | None
    witnesses: frozenset
    cell_sources: Mapping[str, str] | None = None
    cells: Mapping[str, CellLineage] = field(default_factory=dict)

    def cell(self, attribute: str) -> CellLineage:
        """Effective lineage of one cell (override or derived from the tuple).

        Without an override the cell's witnesses are the tuple's witnesses
        restricted to the relation that populated the attribute; an
        attribute with no assignment yields an empty witness set (a
        constant, in why-provenance terms).
        """
        override = self.cells.get(attribute)
        if override is not None:
            return override
        if self.cell_sources is not None:
            source = self.cell_sources.get(attribute)
            if source is None:
                return CellLineage(operator=self.operator, witnesses=frozenset())
            witnesses = frozenset(
                frozenset(ref for ref in witness if ref.relation == source)
                for witness in self.witnesses
            )
            witnesses = frozenset(w for w in witnesses if w)
            return CellLineage(operator=self.operator, witnesses=witnesses)
        return CellLineage(operator=self.operator, witnesses=self.witnesses)

    def source_relations(self, attribute: str | None = None) -> set[str]:
        """Contributing source relations (of one cell, or the whole tuple)."""
        if attribute is not None:
            return self.cell(attribute).source_relations()
        return {ref.relation for witness in self.witnesses for ref in witness}

    def all_refs(self) -> set[SourceRef]:
        """Every base tuple appearing in any witness."""
        return {ref for witness in self.witnesses for ref in witness}


class ProvenanceStore:
    """Per-session lineage registry, keyed by ``(relation, row key)``.

    Row keys are the values of the pipeline's ``_row_id`` bookkeeping
    column, which survive fusion (the cluster keeps its first member's key)
    and re-materialisation (keys are deterministic per source row). The
    store is a knowledge-base artifact so every transducer can reach it; it
    is picklable, so batch workers can ship lineage summaries home.
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        #: relation -> row key -> lineage
        self._tuples: dict[str, dict[str, TupleLineage]] = {}
        #: relation -> row key -> human-readable drop reason
        self._dropped: dict[str, dict[str, str]] = {}
        self._ref_cache: dict[tuple[str, str], SourceRef] = {}
        self._cell_source_cache: dict[tuple[tuple[str, str], ...], Mapping[str, str]] = {}

    # -- interning -------------------------------------------------------------

    def ref(self, relation: str, row_id: str) -> SourceRef:
        """An interned :class:`SourceRef`."""
        key = (relation, row_id)
        cached = self._ref_cache.get(key)
        if cached is None:
            cached = SourceRef(relation, row_id)
            self._ref_cache[key] = cached
        return cached

    def intern_cell_sources(self, cell_sources: Mapping[str, str]) -> Mapping[str, str]:
        """One shared ``attribute -> source relation`` map per mapping shape."""
        key = tuple(sorted(cell_sources.items()))
        cached = self._cell_source_cache.get(key)
        if cached is None:
            cached = dict(cell_sources)
            self._cell_source_cache[key] = cached
        return cached

    # -- recording ---------------------------------------------------------------

    def clear_relation(self, relation: str) -> None:
        """Forget all lineage of ``relation`` (before re-materialisation)."""
        self._tuples.pop(relation, None)
        self._dropped.pop(relation, None)

    def record_tuple(
        self,
        relation: str,
        row_key: str,
        *,
        operator: str,
        witnesses: Iterable[frozenset],
        mapping_id: str | None = None,
        cell_sources: Mapping[str, str] | None = None,
        cells: Mapping[str, CellLineage] | None = None,
    ) -> None:
        """Record (or replace) the lineage of one tuple.

        Recording revives a previously dropped key: patched rows *replace*
        their old annotations (witness sets, drop markers) rather than
        accumulating them, so repeated incremental re-materialisations keep
        the store size stable.
        """
        if not self.enabled:
            return
        self._dropped.get(relation, {}).pop(str(row_key), None)
        shared = self.intern_cell_sources(cell_sources) if cell_sources is not None else None
        self._tuples.setdefault(relation, {})[str(row_key)] = TupleLineage(
            operator=operator,
            mapping_id=mapping_id,
            witnesses=frozenset(witnesses),
            cell_sources=shared,
            cells=dict(cells) if cells else {},
        )

    def record_cell(
        self,
        relation: str,
        row_key: str,
        attribute: str,
        *,
        operator: str,
        witnesses: Iterable[frozenset] = (),
        detail: str | None = None,
    ) -> None:
        """Record a per-cell override (fusion conflict, repair, feedback edit)."""
        if not self.enabled:
            return
        lineage = self._tuples.get(relation, {}).get(str(row_key))
        override = CellLineage(operator=operator, witnesses=frozenset(witnesses), detail=detail)
        if lineage is None:
            self.record_tuple(
                relation,
                row_key,
                operator=operator,
                witnesses=(),
                cells={attribute: override},
            )
            return
        cells = dict(lineage.cells)
        cells[attribute] = override
        self._tuples[relation][str(row_key)] = TupleLineage(
            operator=lineage.operator,
            mapping_id=lineage.mapping_id,
            witnesses=lineage.witnesses,
            cell_sources=lineage.cell_sources,
            cells=cells,
        )

    def merge_tuples(self, relation: str, kept_key: str, merged_keys: Iterable[str]) -> None:
        """Union the witnesses of ``merged_keys`` into ``kept_key``.

        This is the why-provenance of fusion: the surviving tuple is
        supported by every duplicate that was collapsed into it. Merged
        tuples' lineage is removed and their keys recorded as dropped (with
        the kept key as the reason).
        """
        if not self.enabled:
            return
        relation_tuples = self._tuples.setdefault(relation, {})
        kept = relation_tuples.get(str(kept_key))
        witnesses: set = set(kept.witnesses) if kept is not None else set()
        mapping_id = kept.mapping_id if kept is not None else None
        cell_sources = kept.cell_sources if kept is not None else None
        cells = dict(kept.cells) if kept is not None else {}
        for merged_key in merged_keys:
            merged_key = str(merged_key)
            if merged_key == str(kept_key):
                continue
            merged = relation_tuples.pop(merged_key, None)
            if merged is not None:
                witnesses.update(merged.witnesses)
                if mapping_id is None:
                    mapping_id = merged.mapping_id
            self._dropped.setdefault(relation, {})[merged_key] = (
                f"{OPERATOR_FUSION}: merged into {kept_key}"
            )
        relation_tuples[str(kept_key)] = TupleLineage(
            operator=OPERATOR_FUSION,
            mapping_id=mapping_id,
            witnesses=frozenset(witnesses),
            cell_sources=cell_sources,
            cells=cells,
        )

    def record_drop(self, relation: str, row_key: str, *, reason: str) -> None:
        """Record that a tuple was removed (e.g. by negative tuple feedback)."""
        if not self.enabled:
            return
        self._tuples.get(relation, {}).pop(str(row_key), None)
        self._dropped.setdefault(relation, {})[str(row_key)] = reason

    # -- queries -----------------------------------------------------------------

    def relations(self) -> list[str]:
        """Relations with any recorded lineage."""
        return sorted(self._tuples)

    def iter_tuples(self, relation: str) -> Iterable[tuple[str, TupleLineage]]:
        """Iterate ``(row key, lineage)`` pairs of one relation.

        This is the bulk-read API the incremental state uses to snapshot a
        relation's materialisation-time lineage without touching internals.
        """
        return self._tuples.get(relation, {}).items()

    def tuple_lineage(self, relation: str, row_key: str) -> TupleLineage | None:
        """Lineage of one tuple (None when untracked)."""
        return self._tuples.get(relation, {}).get(str(row_key))

    def cell_lineage(self, relation: str, row_key: str, attribute: str) -> CellLineage | None:
        """Effective lineage of one cell (None when the tuple is untracked)."""
        lineage = self.tuple_lineage(relation, row_key)
        if lineage is None:
            return None
        return lineage.cell(attribute)

    def why(self, relation: str, row_key: str, attribute: str | None = None) -> frozenset:
        """The why-provenance witness set of a tuple or cell (may be empty)."""
        lineage = self.tuple_lineage(relation, row_key)
        if lineage is None:
            return frozenset()
        if attribute is None:
            return lineage.witnesses
        return lineage.cell(attribute).witnesses

    def contributing_sources(
        self, relation: str, row_key: str, attribute: str | None = None
    ) -> set[str]:
        """Source relations supporting a tuple or cell."""
        lineage = self.tuple_lineage(relation, row_key)
        if lineage is None:
            return set()
        return lineage.source_relations(attribute)

    def dropped(self, relation: str) -> dict[str, str]:
        """Row keys removed from ``relation`` and why."""
        return dict(self._dropped.get(relation, {}))

    def tracked_count(self, relation: str | None = None) -> int:
        """Number of tracked tuples (of one relation, or overall)."""
        if relation is not None:
            return len(self._tuples.get(relation, {}))
        return sum(len(rows) for rows in self._tuples.values())

    def stats(self, relation: str | None = None) -> dict[str, Any]:
        """Compact, picklable summary of what the store tracked."""
        relations = [relation] if relation is not None else self.relations()
        tuples = 0
        cell_overrides = 0
        operators: dict[str, int] = {}
        sources: set[str] = set()
        dropped = 0
        for name in relations:
            rows = self._tuples.get(name, {})
            tuples += len(rows)
            dropped += len(self._dropped.get(name, {}))
            for lineage in rows.values():
                cell_overrides += len(lineage.cells)
                operators[lineage.operator] = operators.get(lineage.operator, 0) + 1
                sources.update(lineage.source_relations())
        return {
            "enabled": self.enabled,
            "tuples": tuples,
            "cell_overrides": cell_overrides,
            "dropped": dropped,
            "operators": {name: operators[name] for name in sorted(operators)},
            "sources": sorted(sources),
        }

    def __repr__(self) -> str:
        return (
            f"ProvenanceStore(enabled={self.enabled}, relations={len(self._tuples)}, "
            f"tuples={self.tracked_count()})"
        )


def provenance_store(kb, *, create: bool = True, enabled: bool = True) -> ProvenanceStore | None:
    """The knowledge base's provenance store (created on first use).

    Transducers call this to reach the session store; the wrangler seeds it
    with the configured ``track_provenance`` flag, and components running
    outside a wrangler session (unit tests, ad-hoc scripts) get an enabled
    store by default. With ``create=False`` the function returns None when
    no store exists yet.
    """
    store = kb.get_artifact(PROVENANCE_ARTIFACT_KEY)
    if store is None and create:
        store = ProvenanceStore(enabled=enabled)
        kb.store_artifact(PROVENANCE_ARTIFACT_KEY, store)
    return store
