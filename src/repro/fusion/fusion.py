"""Data fusion: merging duplicate rows into single consolidated records.

"A data fusion transducer may start to evaluate when duplicates have been
detected" (§2). Fusion collapses each duplicate cluster into one row,
resolving attribute conflicts with a configurable policy:

- ``prefer_non_null`` — the first non-null value wins (default);
- ``majority`` — the most frequent non-null value wins;
- ``min`` / ``max`` — for numeric attributes (e.g. keep the lowest price);
- ``longest`` — the longest string (useful for descriptions).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.fusion.duplicates import DuplicatePair, cluster_pairs
from repro.provenance.model import OPERATOR_FUSION, ProvenanceStore
from repro.relational.table import ROW_KEY_ATTRIBUTE, Table
from repro.relational.types import is_null

__all__ = ["FusionPolicy", "FusionResult", "DataFuser"]


class FusionPolicy:
    """Names of the supported conflict-resolution policies."""

    PREFER_NON_NULL = "prefer_non_null"
    MAJORITY = "majority"
    MIN = "min"
    MAX = "max"
    LONGEST = "longest"

    ALL = (PREFER_NON_NULL, MAJORITY, MIN, MAX, LONGEST)


@dataclass
class FusionResult:
    """The fused table plus bookkeeping about what was merged."""

    table: Table
    clusters_fused: int
    rows_removed: int
    conflicts_resolved: int


class DataFuser:
    """Fuses duplicate clusters according to per-attribute policies."""

    def __init__(
        self,
        *,
        default_policy: str = FusionPolicy.PREFER_NON_NULL,
        attribute_policies: Mapping[str, str] | None = None,
    ):
        if default_policy not in FusionPolicy.ALL:
            raise ValueError(f"unknown fusion policy {default_policy!r}")
        for attribute, policy in (attribute_policies or {}).items():
            if policy not in FusionPolicy.ALL:
                raise ValueError(f"unknown fusion policy {policy!r} for {attribute!r}")
        self._default_policy = default_policy
        self._attribute_policies = dict(attribute_policies or {})

    def fuse(
        self,
        table: Table,
        duplicates: Sequence[DuplicatePair],
        *,
        provenance: ProvenanceStore | None = None,
    ) -> FusionResult:
        """Collapse duplicate clusters of ``table`` into single rows.

        Non-duplicate rows are kept unchanged and row order is preserved
        (each cluster is emitted at the position of its first member). With
        a provenance store, the merged members' lineage is unioned into the
        surviving row (one why-provenance witness per duplicate) and every
        conflicting cell records which members supplied the winning value.
        """
        if not duplicates:
            return FusionResult(table=table, clusters_fused=0, rows_removed=0,
                                conflicts_resolved=0)
        clusters = cluster_pairs(duplicates, len(table))
        in_cluster: dict[int, int] = {}
        for cluster_id, members in enumerate(clusters):
            for member in members:
                in_cluster[member] = cluster_id
        rows = table.tuples()
        names = table.schema.attribute_names
        track = provenance is not None and provenance.enabled
        row_keys = table.row_keys() if track else []
        emitted_clusters: set[int] = set()
        fused_rows: list[tuple] = []
        conflicts = 0
        for index, values in enumerate(rows):
            cluster_id = in_cluster.get(index)
            if cluster_id is None:
                fused_rows.append(values)
                continue
            if cluster_id in emitted_clusters:
                continue
            emitted_clusters.add(cluster_id)
            members = clusters[cluster_id]
            merged, cluster_conflicts, winners = self._merge(names, [rows[m] for m in members])
            conflicts += cluster_conflicts
            fused_rows.append(merged)
            if track:
                member_keys = [row_keys[m] for m in members]
                self._record_merge(
                    provenance,
                    table.name,
                    names,
                    member_keys,
                    _survivor_key(names, merged, member_keys),
                    winners,
                )
        fused_table = table.replace_rows(fused_rows)
        return FusionResult(
            table=fused_table,
            clusters_fused=len(clusters),
            rows_removed=len(table) - len(fused_table),
            conflicts_resolved=conflicts,
        )

    def fuse_cluster(
        self,
        relation: str,
        names: Sequence[str],
        member_rows: Sequence[tuple],
        member_keys: Sequence[str],
        *,
        provenance: ProvenanceStore | None = None,
    ) -> tuple[tuple, str]:
        """Fuse one duplicate cluster outside a full-table pass.

        ``member_rows`` must be in table order (the first member is the
        surviving position). Returns ``(merged row, surviving row key)``;
        with a provenance store, the members' lineage is merged and per-cell
        winners recorded exactly as :meth:`fuse` does. This is the delta
        path of incremental re-wrangling: only dirty clusters re-fuse.
        """
        merged, _conflicts, winners = self._merge(names, list(member_rows))
        kept_key = _survivor_key(names, merged, member_keys)
        if provenance is not None and provenance.enabled:
            self._record_merge(provenance, relation, names, list(member_keys), kept_key, winners)
        return merged, kept_key

    def _record_merge(
        self,
        provenance: ProvenanceStore,
        relation: str,
        names: Sequence[str],
        member_keys: Sequence[str],
        kept_key: str,
        winners: Mapping[int, list[int]],
    ) -> None:
        """Record the lineage of one fused cluster row."""
        member_lineages = {
            key: provenance.tuple_lineage(relation, key) for key in member_keys
        }
        provenance.merge_tuples(relation, kept_key, [key for key in member_keys if key != kept_key])
        # Per-cell lineage of the fused row: conflicting cells are witnessed
        # by the members whose value won, agreeing cells by every member.
        # The kept tuple's shared cell_sources map is per-*mapping* and
        # cannot express cross-member support, so fused rows carry explicit
        # overrides (clusters are a small fraction of any result, so this
        # stays bounded).
        all_members = list(range(len(member_keys)))
        for position, name in enumerate(names):
            if name.startswith("_"):
                continue
            conflict = position in winners
            contributing = winners[position] if conflict else all_members
            witnesses: set = set()
            for member_position in contributing:
                lineage = member_lineages.get(member_keys[member_position])
                if lineage is not None:
                    witnesses.update(lineage.cell(name).witnesses)
            policy = self._attribute_policies.get(name, self._default_policy)
            provenance.record_cell(
                relation,
                kept_key,
                name,
                operator=OPERATOR_FUSION,
                witnesses=witnesses,
                detail=policy if conflict else None,
            )

    def _merge(
        self, names: Sequence[str], member_rows: list[tuple]
    ) -> tuple[tuple, int, dict[int, list[int]]]:
        """Merge one cluster; returns (row, conflict count, conflict winners).

        ``winners`` maps conflicting attribute positions to the member
        positions whose (normalised) value matches the resolved one — the
        cell-level why-provenance of the conflict resolution.
        """
        merged = []
        conflicts = 0
        winners: dict[int, list[int]] = {}
        for position, name in enumerate(names):
            values = [row[position] for row in member_rows]
            present = [value for value in values if not is_null(value)]
            distinct = {self._normalise(value) for value in present}
            resolved = self._resolve(name, present)
            if len(distinct) > 1:
                conflicts += 1
                resolved_key = self._normalise(resolved)
                winners[position] = [
                    member_position for member_position, value in enumerate(values)
                    if not is_null(value) and self._normalise(value) == resolved_key]
            merged.append(resolved)
        return tuple(merged), conflicts, winners

    def _resolve(self, attribute: str, values: list[Any]) -> Any:
        if not values:
            return None
        policy = self._attribute_policies.get(attribute, self._default_policy)
        if policy == FusionPolicy.PREFER_NON_NULL:
            return values[0]
        if policy == FusionPolicy.MAJORITY:
            counts = Counter(self._normalise(value) for value in values)
            winner, _count = counts.most_common(1)[0]
            for value in values:
                if self._normalise(value) == winner:
                    return value
            return values[0]
        if policy in (FusionPolicy.MIN, FusionPolicy.MAX):
            numeric = [
                value
                for value in values
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            ]
            if not numeric:
                return values[0]
            return min(numeric) if policy == FusionPolicy.MIN else max(numeric)
        if policy == FusionPolicy.LONGEST:
            return max(values, key=lambda value: len(str(value)))
        return values[0]

    @staticmethod
    def _normalise(value: Any) -> Any:
        if isinstance(value, str):
            return value.strip().lower()
        if isinstance(value, float) and value.is_integer():
            return int(value)
        return value


def _survivor_key(names: Sequence[str], merged: tuple, member_keys: Sequence[str]) -> str:
    """The row key a fused cluster keeps: its merged ``_row_id``, else the
    first member's key."""
    if ROW_KEY_ATTRIBUTE in names:
        kept_value = merged[list(names).index(ROW_KEY_ATTRIBUTE)]
        if kept_value is not None:
            return str(kept_value)
    return member_keys[0]
