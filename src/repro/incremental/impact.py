"""Impact analysis: from a change set to the exact dirty row keys per table.

:func:`resolve` turns the deltas of one revision into a :class:`DirtySet`
per result relation, reading only the incremental snapshots, the selected
mappings and the revised source tables:

- a negative **feedback** delta dirties its annotated row (positive feedback
  revises scores, not data);
- a **source-row** delta routes through each result's selected mapping: an
  append to a driving source names the new tail rows, an append to a lookup
  source the driving rows whose join key matches a new row, and a removal
  every driving row whose position or join partner it may shift;
- **fusion-cluster fan-out**: any dirty row drags the rest of its duplicate
  cluster along, because the cluster's fused survivor must be re-derived
  from all members.

The result is a :class:`DirtyMap` — per result relation, which row keys need
full re-materialisation, which only need re-derivation (repair / fusion /
feedback) from their cached base rows, and which driving rows are new.
Nothing is kept between revisions: the clusters are re-read from the
snapshot's current pairs on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.incremental.delta import ChangeSet, FeedbackDelta, SourceRowsDelta
from repro.incremental.state import IncrementalState, RelationState
from repro.relational.keys import normalise_key

__all__ = ["DirtySet", "DirtyMap", "cluster_map", "resolve"]


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
    #: The relation needs a full rebuild (a source changed under a result
    #: whose mapping is unknown).
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


def resolve(
    change_set: ChangeSet,
    state: IncrementalState,
    mappings: Mapping[str, Any],
    catalog: Any,
) -> DirtyMap:
    """Resolve a change set to dirty row keys per tracked relation.

    ``mappings`` holds each result relation's selected mapping (it routes
    source-row deltas to driving and lookup sources); ``catalog`` holds the
    source tables with the revision already applied.
    """
    dirty: DirtyMap = {}

    def dirty_set(relation: str) -> DirtySet:
        return dirty.setdefault(relation, DirtySet(relation=relation))

    appended_indexes = _appended_index_ranges(change_set, catalog)
    for delta in change_set:
        if isinstance(delta, FeedbackDelta):
            _resolve_feedback(delta, state, dirty_set)
        else:
            _resolve_source(delta, state, mappings, catalog, dirty_set, appended_indexes)

    # Fusion-cluster fan-out: a dirty member dirties its whole cluster —
    # the surviving fused row must be re-derived from every member. Only
    # tracked relations get dirty sets, so each has a snapshot.
    for relation, entry in dirty.items():
        clusters = cluster_map(state.relations[relation].pairs)
        expanded: set[str] = set()
        for key in entry.recompute | entry.rematerialise:
            expanded |= clusters.get(key, frozenset())
        entry.recompute |= expanded
    return dirty


def _resolve_feedback(
    delta: FeedbackDelta, state: IncrementalState, dirty_set: Callable[[str], DirtySet]
) -> None:
    if not delta.changes_table:
        return  # positive feedback revises scores, not data
    if delta.feedback_id is not None and delta.feedback_id in state.seen_feedback:
        return  # table effects already materialised
    if state.get(delta.relation) is None:
        return  # untracked relation — the full pipeline ignores it too
    entry = dirty_set(delta.relation)
    entry.recompute.add(delta.row_key)
    entry.reasons.append(f"feedback on {delta.row_key}")


def _appended_index_ranges(change_set: ChangeSet, catalog: Any) -> dict[int, list[int]]:
    """Positional indexes of each append delta's rows (keyed by ``id``).

    Several appends to one source may ride one change set; their rows
    sit at the table's tail in delta order, so ranges are assigned back
    to front — the last delta owns the last rows, earlier deltas the
    rows before them.
    """
    ranges: dict[int, list[int]] = {}
    claimed: dict[str, int] = {}
    for delta in reversed(change_set.source_deltas()):
        if not delta.appended or delta.relation not in catalog:
            continue
        end = len(catalog.get(delta.relation)) - claimed.get(delta.relation, 0)
        start = max(0, end - len(delta.appended))
        ranges[id(delta)] = list(range(start, end))
        claimed[delta.relation] = claimed.get(delta.relation, 0) + len(delta.appended)
    return ranges


def _resolve_source(
    delta: SourceRowsDelta,
    state: IncrementalState,
    mappings: Mapping[str, Any],
    catalog: Any,
    dirty_set: Callable[[str], DirtySet],
    appended_indexes: Mapping[int, list[int]],
) -> None:
    for relation, rel_state in state.relations.items():
        mapping = mappings.get(relation)
        if mapping is None:
            entry = dirty_set(relation)
            entry.full_rebuild = True
            entry.reasons.append(f"source {delta.relation} changed, mapping unknown")
            continue
        appended = appended_indexes.get(id(delta), ())
        for leaf in mapping.leaf_mappings():
            if leaf.sources[0] == delta.relation:
                _resolve_driving_source(delta, dirty_set(relation), appended)
            elif delta.relation in leaf.sources[1:]:
                _resolve_lookup_source(
                    delta, leaf, rel_state, catalog, dirty_set(relation), appended
                )


def _resolve_driving_source(
    delta: SourceRowsDelta, entry: DirtySet, appended: Iterable[int]
) -> None:
    if delta.removed_indexes:
        # Positional ids after the removal point all shift: rebuild the
        # source's whole segment (other sources stay untouched).
        entry.rebuild_sources.add(delta.relation)
        entry.reasons.append(f"rows removed from driving source {delta.relation}")
    if delta.appended:
        entry.appended.setdefault(delta.relation, []).extend(appended)
        entry.reasons.append(f"{len(delta.appended)} rows appended to {delta.relation}")


def _resolve_lookup_source(
    delta: SourceRowsDelta,
    leaf,
    rel_state: RelationState,
    catalog: Any,
    entry: DirtySet,
    appended: Iterable[int],
) -> None:
    prefix = f"{leaf.sources[0]}:"
    if delta.removed_indexes:
        # Conservative: every row of this leaf may have joined the
        # removed rows (and unjoined rows may now match a different one).
        entry.rematerialise |= {key for key in rel_state.order if key.startswith(prefix)}
        entry.reasons.append(f"rows removed from lookup source {delta.relation}")
        return
    if not delta.appended:
        return
    # An appended lookup row only changes driving rows it newly matches:
    # existing matches keep winning (first-match semantics), so only
    # driving rows whose join key equals a new row's key are affected.
    join_keys = _appended_join_keys(delta, leaf, catalog, appended)
    if join_keys is None:
        entry.rematerialise |= {key for key in rel_state.order if key.startswith(prefix)}
        entry.reasons.append(f"lookup source {delta.relation} changed (no join key)")
        return
    driving_attr, new_keys = join_keys
    driving = catalog.get(leaf.sources[0])
    if driving_attr not in driving.schema:
        return
    position = driving.schema.position(driving_attr)
    for index, values in enumerate(driving.tuples()):
        if normalise_key(values[position]) in new_keys:
            entry.rematerialise.add(f"{prefix}{index}")
    entry.reasons.append(f"{len(delta.appended)} rows appended to lookup source {delta.relation}")


def _appended_join_keys(delta: SourceRowsDelta, leaf, catalog: Any, appended: Iterable[int]):
    """(driving join attribute, normalised join keys of the appended rows) or None.

    The keys are read from the lookup table at the ``appended`` positions,
    as stored there (coerced to the lookup's types), not from the raw
    values the delta carries.
    """
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
    lookup = catalog.get(delta.relation)
    if other_attr not in lookup.schema:
        return None
    position = lookup.schema.position(other_attr)
    rows = lookup.tuples()
    keys = {normalise_key(rows[index][position]) for index in appended}
    keys.discard(None)
    return driving_attr, keys
