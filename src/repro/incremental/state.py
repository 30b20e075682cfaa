"""Incremental pipeline state: the snapshots delta re-materialisation needs.

A full wrangle derives the result in stages — materialise, repair, apply
feedback, detect duplicates, fuse, repair again — and only the final table
survives in the catalog. Patching that table for a small delta needs the
*intermediate* stages back: the freshly materialised rows (to re-repair a
dirty row from scratch), the pre-fusion rows (to re-score duplicate pairs
against), the detected pairs (to re-cluster), and the per-row base lineage
(to reset a dirty row's provenance before re-recording fusion and repair
overrides).

:class:`IncrementalState` captures those stages as the pipeline transducers
produce them — each transducer calls one ``observe_*`` hook, costing a row
list copy at most — and the
:class:`~repro.incremental.rewrangle.IncrementalWrangler` patches the
snapshots in place alongside the real tables. The state lives in the
knowledge base under :data:`INCREMENTAL_STATE_ARTIFACT_KEY`, so it is
per-session and dies with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.provenance.model import ProvenanceStore, TupleLineage
from repro.relational.table import Table

__all__ = [
    "INCREMENTAL_STATE_ARTIFACT_KEY",
    "RelationState",
    "IncrementalState",
    "incremental_state",
]


#: Artifact key under which the session's :class:`IncrementalState` lives.
INCREMENTAL_STATE_ARTIFACT_KEY = "incremental_state"

#: Pipeline phases a relation snapshot moves through.
PHASE_MATERIALISED = "materialised"
PHASE_PREFUSION = "prefusion"
PHASE_FUSED = "fused"


@dataclass
class RelationState:
    """The intermediate pipeline stages of one materialised result."""

    relation: str
    mapping_id: str | None = None
    #: The selected mapping *object* at materialisation time. The id alone
    #: is not enough: feedback can push a match below the generation
    #: threshold, silently changing an id-stable mapping's assignments.
    mapping: Any = None
    #: Output schema (target attributes plus the bookkeeping columns).
    schema: Any = None
    #: Base row keys in materialisation (driving-row) order.
    order: list[str] = field(default_factory=list)
    #: key → freshly materialised row (pre-repair, pre-feedback).
    base: dict[str, tuple] = field(default_factory=dict)
    #: key → post-repair, post-feedback, *pre-fusion* row.
    prefusion: dict[str, tuple] = field(default_factory=dict)
    #: Duplicate pairs detected on the pre-fusion rows: sorted key pair → score.
    pairs: dict[tuple[str, str], float] = field(default_factory=dict)
    #: key → lineage recorded at materialisation time (before any override).
    base_lineage: dict[str, TupleLineage] = field(default_factory=dict)
    #: Where in the pipeline the snapshot currently is.
    phase: str = PHASE_MATERIALISED
    #: Set when the observed pipeline left the single-fusion-pass shape the
    #: snapshot can represent (e.g. fused rows re-clustered); a stale
    #: snapshot forces the next revision through the full pipeline.
    stale: bool = False
    stale_reason: str = ""

    def mark_stale(self, reason: str) -> None:
        """Invalidate the snapshot (next revision falls back to a full run)."""
        self.stale = True
        self.stale_reason = reason

    @property
    def ready(self) -> bool:
        """Whether the snapshot is coherent enough to patch against."""
        return (
            not self.stale
            and self.schema is not None
            and self.mapping_id is not None
            and bool(self.order)
            and self.phase in (PHASE_PREFUSION, PHASE_FUSED)
        )

    def alive_keys(self) -> list[str]:
        """Base keys still present pre-fusion, in materialisation order."""
        return [key for key in self.order if key in self.prefusion]


class IncrementalState:
    """Per-session snapshots, keyed by result relation."""

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self.relations: dict[str, RelationState] = {}
        #: Feedback fact ids whose table effects are already reflected in
        #: the materialised results (applied by a full pipeline pass or an
        #: incremental patch). Only unseen annotations dirty rows.
        self.seen_feedback: set[str] = set()

    def get(self, relation: str) -> RelationState | None:
        """The snapshot of one relation (None when untracked)."""
        return self.relations.get(relation)

    # -- pipeline hooks -------------------------------------------------------

    def observe_materialised(
        self, table: Table, mapping: Any, store: ProvenanceStore | None = None
    ) -> None:
        """A result was (re-)materialised: reset the relation's snapshot."""
        if not self.enabled:
            return
        state = RelationState(
            relation=table.name,
            mapping_id=mapping.mapping_id,
            mapping=mapping,
            schema=table.schema,
        )
        rows = table.tuples()
        keys = table.row_keys()
        state.order = list(keys)
        state.base = dict(zip(keys, rows))
        if len(state.base) != len(rows):
            # Duplicate row keys (two leaves driven by one source) cannot be
            # patched key-wise; fall back to full runs for this relation.
            state.mark_stale("duplicate row keys in materialised result")
        state.prefusion = dict(state.base)
        if store is not None and store.enabled:
            state.base_lineage = dict(store.iter_tuples(table.name))
        state.phase = PHASE_MATERIALISED
        self.relations[table.name] = state

    def observe_table_updated(self, table: Table) -> None:
        """Repair / feedback rewrote a result table.

        Before fusion this refreshes the pre-fusion snapshot; after fusion
        the rewrites concern the fused rows, which the engine re-reads from
        the catalog, so nothing needs recording.
        """
        if not self.enabled:
            return
        state = self.relations.get(table.name)
        if state is None or state.stale:
            return
        if state.phase == PHASE_FUSED:
            return
        state.prefusion = dict(zip(table.row_keys(), table.tuples()))

    def observe_pairs(self, table: Table, pairs: dict[tuple[str, str], float]) -> None:
        """Duplicate detection ran over ``table``.

        The first detection after a materialisation sees the pre-fusion
        rows: snapshot them together with the pairs. A detection over the
        *fused* table that still finds pairs means fusion will cascade a
        second level — a shape the single-pass snapshot cannot represent —
        so the snapshot goes stale instead of silently misrepresenting it.
        """
        if not self.enabled:
            return
        state = self.relations.get(table.name)
        if state is None or state.stale:
            return
        if state.phase == PHASE_FUSED:
            if pairs:
                state.mark_stale("duplicate pairs detected on already-fused rows")
            return
        state.prefusion = dict(zip(table.row_keys(), table.tuples()))
        state.pairs = dict(pairs)
        state.phase = PHASE_PREFUSION

    def observe_fused(self, table: Table) -> None:
        """Fusion collapsed the detected clusters."""
        if not self.enabled:
            return
        state = self.relations.get(table.name)
        if state is None or state.stale:
            return
        if state.phase != PHASE_PREFUSION:
            state.mark_stale(f"fusion observed in phase {state.phase!r}")
            return
        state.phase = PHASE_FUSED

    def observe_feedback_applied(self, feedback_ids: set[str]) -> None:
        """The listed annotations' table effects are now materialised."""
        if not self.enabled:
            return
        self.seen_feedback |= feedback_ids

    def __repr__(self) -> str:
        return (
            f"IncrementalState(enabled={self.enabled}, "
            f"relations={sorted(self.relations)})"
        )


def incremental_state(kb, *, create: bool = True, enabled: bool = True) -> IncrementalState | None:
    """The knowledge base's incremental state (created on first use).

    Mirrors :func:`repro.provenance.model.provenance_store`: transducers call
    this to reach the session state; the wrangler seeds it with the
    configured ``enable_incremental`` flag. With ``create=False`` the
    function returns None when no state exists yet.
    """
    state = kb.get_artifact(INCREMENTAL_STATE_ARTIFACT_KEY)
    if state is None and create:
        state = IncrementalState(enabled=enabled)
        kb.store_artifact(INCREMENTAL_STATE_ARTIFACT_KEY, state)
    return state
