"""Impact analysis: from deltas to the exact dirty row keys per table.

The :class:`~repro.provenance.model.ProvenanceStore` records, for every
materialised tuple, which base tuples support it. :class:`ImpactIndex`
inverts that store — source ref → downstream row keys, repairing CFD →
rewritten cells — so a revision delta resolves to the precise set of rows it
can affect:

- a **source row** delta fans out through the inverted witness index
  (covering joined-in lookup rows and rows whose lineage was merged into a
  fusion survivor);
- a **rule (CFD)** removal fans out through the repair index to exactly the
  cells the retired CFD rewrote; additions are conservative;
- **fusion-cluster fan-out**: any dirty row drags the rest of its duplicate
  cluster along, because the cluster's fused survivor must be re-derived
  from all members.

The result is a :class:`DirtyMap` — per result relation, which row keys need
full re-materialisation, which only need re-derivation (repair / fusion /
feedback) from their cached base rows, and which driving rows are new.

The index is *persistent*: it lives in the session's
:class:`~repro.incremental.state.IncrementalState` and is inverted at most
once per materialisation. After a patch, :meth:`apply_change_set` re-reads
only the touched rows' lineage and splices their entries into the inverted
witness/repair maps in place (the cached duplicate-cluster maps refresh
likewise), so repeated revisions never pay for re-inverting the whole
provenance store — ``builds`` counts the full inversions and stays at one
across any number of patches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.incremental.delta import (
    ChangeSet,
    FeedbackDelta,
    FusionPolicyDelta,
    MappingRevisionDelta,
    RuleDelta,
    SourceRowsDelta,
)
from repro.incremental.state import IncrementalState, RelationState
from repro.provenance.model import OPERATOR_REPAIR, ProvenanceStore, TupleLineage
from repro.relational.keys import normalise_key

__all__ = ["DirtySet", "DirtyMap", "ImpactIndex", "cluster_map"]


@dataclass
class DirtySet:
    """What one result relation must re-derive for a change set."""

    relation: str
    #: Row keys whose driving source rows must be re-executed.
    rematerialise: set[str] = field(default_factory=set)
    #: Row keys to re-derive from their cached base rows (repair, fusion,
    #: feedback); always a superset of what re-materialisation touches once
    #: the engine merges the two.
    recompute: set[str] = field(default_factory=set)
    #: Driving source → new row indexes to execute and append.
    appended: dict[str, list[int]] = field(default_factory=dict)
    #: Driving sources whose whole segment must be rebuilt (row removals
    #: invalidate the positional ids of every later row).
    rebuild_sources: set[str] = field(default_factory=set)
    #: The relation needs a full rebuild (mapping revision, untracked rows).
    full_rebuild: bool = False
    reasons: list[str] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        """Whether nothing in this relation is affected."""
        return not (
            self.rematerialise
            or self.recompute
            or self.appended
            or self.rebuild_sources
            or self.full_rebuild
        )

    def describe(self) -> dict[str, Any]:
        """A compact, JSON-friendly summary."""
        return {
            "relation": self.relation,
            "rematerialise": len(self.rematerialise),
            "recompute": len(self.recompute),
            "appended": {source: len(rows) for source, rows in self.appended.items()},
            "rebuild_sources": sorted(self.rebuild_sources),
            "full_rebuild": self.full_rebuild,
            "reasons": list(self.reasons),
        }


#: Result relation → its dirty set.
DirtyMap = dict[str, DirtySet]


def cluster_map(pairs: Iterable[tuple[str, str]]) -> dict[str, frozenset[str]]:
    """Union-find over key pairs: row key → its duplicate cluster (as a set).

    Only clustered keys appear; singletons are absent. This is the
    fusion-cluster fan-out structure: a dirty member dirties every key in
    ``clusters[key]``.
    """
    parent: dict[str, str] = {}

    def find(key: str) -> str:
        root = key
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    for left, right in pairs:
        left_root, right_root = find(left), find(right)
        if left_root != right_root:
            parent[right_root] = left_root
    members: dict[str, set[str]] = {}
    for key in parent:
        members.setdefault(find(key), set()).add(key)
    clusters: dict[str, frozenset[str]] = {}
    for group in members.values():
        if len(group) < 2:
            continue
        frozen = frozenset(group)
        for key in group:
            clusters[key] = frozen
    return clusters


class ImpactIndex:
    """Inverted provenance: source refs and CFDs → downstream row keys.

    The index is built lazily — feedback-only change sets never pay for the
    inversion — and covers the relations the incremental state tracks. Once
    built it is maintained in place: :meth:`apply_change_set` (or the
    finer-grained :meth:`update_rows`) re-indexes exactly the rows a patch
    touched.
    """

    def __init__(
        self,
        store: ProvenanceStore,
        state: IncrementalState,
        *,
        mappings: Mapping[str, Any] | None = None,
        catalog: Any = None,
    ):
        self._store = store
        self._state = state
        #: result relation → selected SchemaMapping (for source-delta routing).
        self._mappings = dict(mappings or {})
        self._catalog = catalog
        #: (source relation, row id) → downstream (relation, row key) targets.
        self._by_ref: dict[tuple[str, str], set[tuple[str, str]]] | None = None
        #: source relation → target → number of distinct supporting refs.
        self._by_source: dict[str, dict[tuple[str, str], int]] | None = None
        #: repairing cfd id → targets with a cell it rewrote.
        self._by_cfd: dict[str, set[tuple[str, str]]] | None = None
        #: target → (refs, cfd ids) currently indexed, for in-place removal.
        self._entries: dict[tuple[str, str], tuple[frozenset, frozenset]] = {}
        #: relation → cached duplicate-cluster map over the snapshot's pairs.
        self._clusters: dict[str, dict[str, frozenset[str]]] = {}
        #: Full inversions performed (stays at 1 across any number of patches).
        self.builds = 0

    @property
    def store(self) -> ProvenanceStore:
        """The provenance store this index inverts."""
        return self._store

    def refresh(
        self, *, mappings: Mapping[str, Any] | None = None, catalog: Any = None
    ) -> "ImpactIndex":
        """Update the routing context (selected mappings, catalog) in place.

        The inverted maps do not depend on either, so refreshing never
        invalidates them — this is what lets one index serve every phase of
        a patch (pre- and post-revision mappings) without rebuilding.
        """
        if mappings is not None:
            self._mappings = dict(mappings)
        if catalog is not None:
            self._catalog = catalog
        return self

    # -- inversion ------------------------------------------------------------

    def _build(self) -> None:
        if self._by_ref is not None:
            return
        self.builds += 1
        self._by_ref = {}
        self._by_source = {}
        self._by_cfd = {}
        self._entries = {}
        for relation in self._state.relations:
            for row_key, lineage in self._store.iter_tuples(relation):
                self._index_lineage(relation, row_key, lineage)

    @staticmethod
    def _lineage_entries(lineage: TupleLineage) -> tuple[frozenset, frozenset]:
        """(supporting refs, repairing cfd ids) of one tuple's lineage."""
        refs = frozenset(ref for witness in lineage.witnesses for ref in witness)
        cfd_ids = set()
        for cell in lineage.cells.values():
            if cell.operator != OPERATOR_REPAIR or not cell.detail:
                continue
            cfd_ids.add(cell.detail.rsplit(":", 1)[0])
        return refs, frozenset(cfd_ids)

    def _index_lineage(self, relation: str, row_key: str, lineage: TupleLineage) -> None:
        target = (relation, row_key)
        refs, cfd_ids = self._lineage_entries(lineage)
        self._entries[target] = (refs, cfd_ids)
        for ref in refs:
            self._by_ref.setdefault((ref.relation, ref.row_id), set()).add(target)
            by_source = self._by_source.setdefault(ref.relation, {})
            by_source[target] = by_source.get(target, 0) + 1
        for cfd_id in cfd_ids:
            self._by_cfd.setdefault(cfd_id, set()).add(target)

    def _deindex(self, target: tuple[str, str]) -> None:
        refs, cfd_ids = self._entries.pop(target, (frozenset(), frozenset()))
        for ref in refs:
            bucket = self._by_ref.get((ref.relation, ref.row_id))
            if bucket is not None:
                bucket.discard(target)
                if not bucket:
                    del self._by_ref[(ref.relation, ref.row_id)]
            by_source = self._by_source.get(ref.relation)
            if by_source is not None:
                remaining = by_source.get(target, 0) - 1
                if remaining > 0:
                    by_source[target] = remaining
                else:
                    by_source.pop(target, None)
                    if not by_source:
                        del self._by_source[ref.relation]
        for cfd_id in cfd_ids:
            bucket = self._by_cfd.get(cfd_id)
            if bucket is not None:
                bucket.discard(target)
                if not bucket:
                    del self._by_cfd[cfd_id]

    # -- in-place maintenance --------------------------------------------------

    def update_rows(self, relation: str, row_keys: Iterable[str]) -> int:
        """Re-index the given rows from their current lineage, in place.

        Rows whose lineage disappeared (dropped tuples) leave the index.
        A no-op while the index has never been built — there is nothing to
        maintain, and the eventual first build reads the patched store.
        Returns how many rows were re-indexed.
        """
        if self._by_ref is None:
            return 0
        updated = 0
        for row_key in row_keys:
            target = (relation, str(row_key))
            self._deindex(target)
            lineage = self._store.tuple_lineage(relation, str(row_key))
            if lineage is not None:
                self._index_lineage(relation, str(row_key), lineage)
            updated += 1
        return updated

    def note_pairs_changed(self, relation: str) -> None:
        """Invalidate the cached cluster map after a pair re-score."""
        self._clusters.pop(relation, None)

    def apply_change_set(self, touched: Mapping[str, Iterable[str]]) -> int:
        """Bring the index up to date after a patch, without re-inverting.

        ``touched`` names, per result relation, every row key whose lineage
        the patch may have rewritten (re-derived, fused, repaired, dropped
        or appended rows — the engine collects them as it patches); the
        witness/repair maps are updated row-by-row and the cluster caches
        of those relations are refreshed.
        """
        updated = 0
        for relation, row_keys in touched.items():
            updated += self.update_rows(relation, row_keys)
            self.note_pairs_changed(relation)
        return updated

    # -- lookups --------------------------------------------------------------

    def downstream_of_source(self, relation: str) -> set[tuple[str, str]]:
        """(result relation, row key) pairs supported by any tuple of a source."""
        self._build()
        return set(self._by_source.get(relation, ()))

    def repaired_by(self, cfd_id: str) -> set[tuple[str, str]]:
        """(result relation, row key) pairs with a cell repaired by ``cfd_id``."""
        self._build()
        return set(self._by_cfd.get(cfd_id, ()))

    def clusters(self, relation: str) -> dict[str, frozenset[str]]:
        """The duplicate-cluster map of one relation, cached across revisions."""
        cached = self._clusters.get(relation)
        if cached is None:
            state = self._state.get(relation)
            cached = cluster_map(state.pairs) if state is not None else {}
            self._clusters[relation] = cached
        return cached

    # -- resolution -----------------------------------------------------------

    def resolve(self, change_set: ChangeSet) -> DirtyMap:
        """Resolve a change set to dirty row keys per tracked relation."""
        dirty: DirtyMap = {}
        appended_indexes = self._appended_index_ranges(change_set)

        def dirty_set(relation: str) -> DirtySet:
            return dirty.setdefault(relation, DirtySet(relation=relation))

        for delta in change_set:
            if isinstance(delta, FeedbackDelta):
                self._resolve_feedback(delta, dirty_set)
            elif isinstance(delta, SourceRowsDelta):
                self._resolve_source(delta, dirty_set, appended_indexes)
            elif isinstance(delta, RuleDelta):
                self._resolve_rule(delta, dirty_set)
            elif isinstance(delta, FusionPolicyDelta):
                self._resolve_fusion(delta, dirty_set)
            elif isinstance(delta, MappingRevisionDelta):
                # A revised selection rebuilds its result relation wholesale.
                for relation in self._state.relations:
                    if relation.startswith(delta.target_relation):
                        entry = dirty_set(relation)
                        entry.full_rebuild = True
                        entry.reasons.append(f"mapping revised to {delta.mapping_id}")

        # Fusion-cluster fan-out: a dirty member dirties its whole cluster —
        # the surviving fused row must be re-derived from every member.
        for relation, entry in dirty.items():
            if self._state.get(relation) is None:
                continue
            clusters = self.clusters(relation)
            expanded: set[str] = set()
            for key in entry.recompute | entry.rematerialise:
                expanded |= clusters.get(key, frozenset())
            entry.recompute |= expanded
        return dirty

    # -- per-delta resolution --------------------------------------------------

    def _resolve_feedback(self, delta: FeedbackDelta, dirty_set) -> None:
        if not delta.changes_table:
            return  # positive feedback revises scores, not data
        if delta.feedback_id is not None and delta.feedback_id in self._state.seen_feedback:
            return  # table effects already materialised
        if self._state.get(delta.relation) is None:
            return  # untracked relation — the full pipeline ignores it too
        entry = dirty_set(delta.relation)
        entry.recompute.add(delta.row_key)
        entry.reasons.append(f"feedback on {delta.row_key}")

    def _appended_index_ranges(self, change_set: ChangeSet) -> dict[int, list[int]]:
        """Positional indexes of each append delta's rows (keyed by ``id``).

        Several appends to one source may ride one change set; their rows
        sit at the table's tail in delta order, so ranges are assigned back
        to front — the last delta owns the last rows, earlier deltas the
        rows before them.
        """
        ranges: dict[int, list[int]] = {}
        if self._catalog is None:
            return ranges
        claimed: dict[str, int] = {}
        for delta in reversed(change_set.source_deltas()):
            if not delta.appended or delta.relation not in self._catalog:
                continue
            end = len(self._catalog.get(delta.relation)) - claimed.get(delta.relation, 0)
            start = max(0, end - len(delta.appended))
            ranges[id(delta)] = list(range(start, end))
            claimed[delta.relation] = claimed.get(delta.relation, 0) + len(delta.appended)
        return ranges

    def _resolve_source(
        self,
        delta: SourceRowsDelta,
        dirty_set,
        appended_indexes: Mapping[int, list[int]],
    ) -> None:
        for relation, state in self._state.relations.items():
            mapping = self._mappings.get(relation)
            if mapping is None:
                entry = dirty_set(relation)
                entry.full_rebuild = True
                entry.reasons.append(f"source {delta.relation} changed, mapping unknown")
                continue
            for leaf in mapping.leaf_mappings():
                if leaf.sources[0] == delta.relation:
                    self._resolve_driving_source(delta, dirty_set(relation), appended_indexes)
                elif delta.relation in leaf.sources[1:]:
                    self._resolve_lookup_source(delta, leaf, state, dirty_set(relation))

    def _resolve_driving_source(
        self,
        delta: SourceRowsDelta,
        entry: DirtySet,
        appended_indexes: Mapping[int, list[int]],
    ) -> None:
        if delta.removed_indexes:
            # Positional ids after the removal point all shift: rebuild the
            # source's whole segment (other sources stay untouched).
            entry.rebuild_sources.add(delta.relation)
            entry.reasons.append(f"rows removed from driving source {delta.relation}")
        if delta.appended:
            rows = entry.appended.setdefault(delta.relation, [])
            rows.extend(appended_indexes.get(id(delta), ()))
            entry.reasons.append(f"{len(delta.appended)} rows appended to {delta.relation}")

    def _resolve_lookup_source(
        self, delta: SourceRowsDelta, leaf, state: RelationState, entry: DirtySet
    ) -> None:
        if delta.removed_indexes:
            # Conservative: every row of this leaf may have joined the
            # removed rows (and unjoined rows may now match a different one).
            prefix = f"{leaf.sources[0]}:"
            stale = {key for key in state.order if key.startswith(prefix)}
            entry.rematerialise |= stale
            entry.reasons.append(f"rows removed from lookup source {delta.relation}")
            return
        if not delta.appended or self._catalog is None:
            return
        # An appended lookup row only changes driving rows it newly matches:
        # existing matches keep winning (first-match semantics), so only
        # driving rows whose join key equals a new row's key are affected.
        join_keys = self._appended_join_keys(delta, leaf)
        if join_keys is None:
            entry.rematerialise |= {
                key for key in state.order if key.startswith(f"{leaf.sources[0]}:")
            }
            entry.reasons.append(f"lookup source {delta.relation} changed (no join key)")
            return
        driving_attr = join_keys[0]
        new_keys = join_keys[1]
        driving = self._catalog.get(leaf.sources[0])
        if driving_attr not in driving.schema:
            return
        position = driving.schema.position(driving_attr)
        for index, values in enumerate(driving.tuples()):
            if normalise_key(values[position]) in new_keys:
                entry.rematerialise.add(f"{leaf.sources[0]}:{index}")
        entry.reasons.append(
            f"{len(delta.appended)} rows appended to lookup source {delta.relation}"
        )

    def _appended_join_keys(self, delta: SourceRowsDelta, leaf):
        """(driving join attribute, normalised appended key values) or None."""
        driving_attr = other_attr = None
        for condition in leaf.join_conditions:
            if (
                condition.left_relation == leaf.sources[0]
                and condition.right_relation == delta.relation
            ):
                driving_attr, other_attr = condition.left_attribute, condition.right_attribute
            elif (
                condition.right_relation == leaf.sources[0]
                and condition.left_relation == delta.relation
            ):
                driving_attr, other_attr = condition.right_attribute, condition.left_attribute
        if driving_attr is None or other_attr is None:
            return None
        lookup = self._catalog.get(delta.relation)
        if other_attr not in lookup.schema:
            return None
        position = lookup.schema.position(other_attr)
        keys = {normalise_key(row[position]) for row in delta.appended if position < len(row)}
        keys.discard(None)
        return driving_attr, keys

    def _resolve_rule(self, delta: RuleDelta, dirty_set) -> None:
        if delta.change == "removed":
            for cfd_id in delta.cfd_ids:
                for relation, row_key in self.repaired_by(cfd_id):
                    entry = dirty_set(relation)
                    entry.recompute.add(row_key)
                    entry.reasons.append(f"cfd {cfd_id} removed")
            return
        # Added / revised rules may newly apply anywhere: conservative.
        for relation, state in self._state.relations.items():
            entry = dirty_set(relation)
            entry.recompute |= set(state.order)
            entry.reasons.append(f"cfds {delta.change}: {', '.join(delta.cfd_ids)}")

    def _resolve_fusion(self, delta: FusionPolicyDelta, dirty_set) -> None:
        for relation in self._state.relations:
            if delta.relation not in (None, relation):
                continue
            clustered = self.clusters(relation)
            if not clustered:
                continue
            entry = dirty_set(relation)
            entry.recompute |= set(clustered)
            entry.reasons.append("fusion policy revised")
