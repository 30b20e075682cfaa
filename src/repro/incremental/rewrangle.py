"""The incremental re-wrangler: delta re-materialisation of results.

A feedback-driven revision re-runs the whole pipeline today: re-materialise
every tuple of the selected mapping, re-detect every duplicate pair, re-fuse
every cluster, re-repair every cell — twice, because the orchestration loop
re-derives the result once before and once after feedback assimilation. When
lineage already names the handful of rows a revision can touch, that work is
almost entirely redundant.

:class:`IncrementalWrangler` replaces it with a patch:

1. **assimilate** — the feedback-evaluation transducers run once (they are
   cheap: matches, candidate regeneration, cached scoring, selection);
2. **resolve** — the feedback and source-row deltas are closed over the
   snapshots and the selected mappings to the exact dirty row keys per
   result relation (:func:`~repro.incremental.impact.resolve`);
3. **patch** — only the dirty driving rows re-execute, only their duplicate
   pairs re-score, only their clusters re-fuse, only their cells re-repair;
   the materialised table, the provenance store and the result facts are
   patched in place;
4. **verify/fallback** — anything the snapshot cannot represent (a flipped
   mapping selection, second-level fusion, stale state) falls back to the
   full orchestrated pipeline, so the incremental path is an optimisation,
   never a semantics change. ``validate.py`` checks exactly that.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.facts import Predicates, metric_fact, result_fact
from repro.core.knowledge_base import KnowledgeBase
from repro.core.registry import TransducerRegistry
from repro.feedback.transducers import apply_row_feedback, incorrect_marks
from repro.fusion.duplicates import DuplicateDetector
from repro.fusion.fusion import DataFuser
from repro.fusion.transducers import DUPLICATES_ARTIFACT_KEY
from repro.incremental.delta import ChangeSet
from repro.incremental.impact import DirtySet, cluster_map, resolve
from repro.incremental.state import (
    PHASE_FUSED,
    PHASE_PREFUSION,
    RelationState,
    incremental_state,
)
from repro.mapping.execution import MappingExecutor
from repro.mapping.transducers import result_relation_name, selected_mapping
from repro.provenance.model import ProvenanceStore, provenance_store
from repro.quality.cfd_learning import LearnedCFDs
from repro.quality.repair import CFDRepairer
from repro.quality.transducers import (
    CFD_ARTIFACT_KEY,
    build_relation_entry,
    quality_context_token,
    quality_stats_stash,
)
from repro.relational.table import Table

__all__ = ["IncrementalOutcome", "IncrementalWrangler"]

#: Transducers whose work the engine performs out of band when it patches.
_PATCHED_TRANSDUCERS = (
    "result_materialisation",
    "duplicate_detection",
    "data_fusion",
    "data_repair",
    "feedback_repair",
)
#: Additionally marked synced when the engine patched the metric facts too.
_METRIC_TRANSDUCER = "quality_metrics"
#: Canonical order the engine runs evaluation-side transducers in: the same
#: order the orchestration loop's fixpoint settles them (matching before
#: evaluation before regeneration before scoring before selection).
_EVALUATION_ORDER = (
    "instance_matching",
    "schema_matching",
    "mapping_evaluation",
    "mapping_generation",
    "mapping_quality",
    "mapping_selection",
)


@dataclass
class IncrementalOutcome:
    """What one incremental application did (or why it could not apply)."""

    applied: bool
    reason: str = ""
    relations: list[str] = field(default_factory=list)
    rows_rematerialised: int = 0
    rows_recomputed: int = 0
    clusters_refused: int = 0
    cells_rerepaired: int = 0
    rows_dropped: int = 0
    #: Relations whose metric facts were refreshed from patched statistics
    #: (empty when the quality stash was unavailable and the next full run
    #: recomputes the metrics instead).
    metrics_patched: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> dict[str, Any]:
        """A compact, JSON-friendly summary."""
        return {
            "applied": self.applied,
            "reason": self.reason,
            "relations": list(self.relations),
            "rows_rematerialised": self.rows_rematerialised,
            "rows_recomputed": self.rows_recomputed,
            "clusters_refused": self.clusters_refused,
            "cells_rerepaired": self.cells_rerepaired,
            "rows_dropped": self.rows_dropped,
            "metrics_patched": list(self.metrics_patched),
            **self.details,
        }


class IncrementalWrangler:
    """Applies a change set to materialised results by patching, not re-running."""

    def __init__(self, kb: KnowledgeBase, *, registry: TransducerRegistry):
        self._kb = kb
        self._registry = registry
        self._fuser = self._component("data_fusion", "fuser", DataFuser)
        self._detector = self._component("duplicate_detection", "detector", DuplicateDetector)
        self._repairer = self._component("data_repair", "repairer", CFDRepairer)

    def _component(self, transducer_name: str, attribute: str, fallback):
        """The pipeline's own component instance, so configs always agree."""
        if transducer_name in self._registry:
            return getattr(self._registry.get(transducer_name), attribute)
        return fallback()

    # -- entry point ----------------------------------------------------------

    def apply(self, change_set: ChangeSet) -> IncrementalOutcome:
        """Apply ``change_set`` incrementally; never raises into a broken KB.

        On any unsupported shape the outcome reports ``applied=False`` and
        the engine has (re-)armed the orchestrator so that a normal ``run``
        rebuilds the affected results — partial patches are then overwritten
        wholesale by the full pipeline.

        The phases mirror the orchestrated cascade's fixpoint order:

        A. patch the feedback-dirty rows against the *current* mapping (the
           cascade's first pipeline cycle — evaluation must observe exactly
           this lineage and table state);
        B. run the evaluation-side transducers (assimilation, regeneration,
           cached re-scoring, re-selection);
        C. verify the selection survived; diff the re-generated winner's
           leaves against the snapshot;
        D. patch the structural part — source-row deltas plus any leaf
           whose assignments the revision changed (the cascade's second
           cycle, against the *revised* mapping);
        E. bookkeeping: mark the subsumed pipeline-tail transducers synced.
        """
        kb = self._kb
        state = incremental_state(kb, create=False)
        store = provenance_store(kb, create=False)
        if state is None or not state.enabled:
            return self._fallback(change_set, "incremental state is disabled")
        if store is None or not store.enabled:
            return self._fallback(change_set, "provenance tracking is disabled")
        for relation, rel_state in state.relations.items():
            if not rel_state.ready:
                return self._fallback(
                    change_set,
                    f"snapshot for {relation} not patchable "
                    f"({rel_state.stale_reason or rel_state.phase})",
                )

        outcome = IncrementalOutcome(applied=True)
        #: relation → (rows before the patch, rows after) — feeds the
        #: metric-statistics patch; phase D composes onto phase A's diff.
        row_diffs: dict[str, tuple[dict[str, tuple], dict[str, tuple]]] = {}

        # Phase A — feedback patch against the pre-revision mappings.
        feedback_set = ChangeSet(
            deltas=tuple(change_set.feedback_deltas()), origin=change_set.origin
        )
        if feedback_set:
            old_mappings = {
                relation: rel_state.mapping for relation, rel_state in state.relations.items()
            }
            problem = self._patch_phase(
                feedback_set, state, store, old_mappings, outcome, row_diffs
            )
            if problem is not None:
                return self._fallback(change_set, problem)

        # Phase B — evaluation-side transducers. Which ones must run depends
        # on what changed: feedback re-evaluates, source changes re-match.
        needed: set[str] = set()
        if feedback_set:
            needed |= {
                "mapping_evaluation",
                "mapping_generation",
                "mapping_quality",
                "mapping_selection",
            }
        if change_set.source_deltas():
            needed |= set(_EVALUATION_ORDER) - {"mapping_evaluation"}
        evaluated = False
        if needed:
            missing = [n for n in needed if n not in self._registry]
            if missing:
                return self._fallback(change_set, f"missing transducers: {sorted(missing)}")
            for name in _EVALUATION_ORDER:
                if name in needed:
                    self._registry.get(name).execute(kb)
            evaluated = True

        # Phase C — winner stability: a flipped selection means a different
        # query, which is a rebuild, not a patch. A same-id winner can still
        # change shape (feedback pushing a match below the generation
        # threshold drops assignments): a changed leaf re-executes its whole
        # driving-source segment; added or removed leaves change the row
        # order and fall back.
        winner = selected_mapping(kb)
        selected = {result_relation_name(winner.target_relation): winner} if winner else {}
        revised_leaves: dict[str, set[str]] = {}
        for relation, rel_state in state.relations.items():
            mapping = selected.get(relation)
            if mapping is None:
                return self._fallback(
                    change_set, f"no selected mapping for {relation}", evaluated=evaluated
                )
            if rel_state.mapping_id != mapping.mapping_id:
                return self._fallback(
                    change_set,
                    f"selected mapping changed for {relation}: "
                    f"{rel_state.mapping_id} -> {mapping.mapping_id}",
                    evaluated=evaluated,
                )
            changed = self._changed_leaves(rel_state.mapping, mapping)
            if changed is None:
                return self._fallback(
                    change_set,
                    f"mapping {mapping.mapping_id} gained or lost leaves for {relation}",
                    evaluated=evaluated,
                )
            if changed:
                revised_leaves[relation] = changed
            # From here on the patch derives against the *fresh* mapping
            # object (changed segments re-execute with its assignments).
            rel_state.mapping = mapping

        # Phase D — structural patch against the revised mappings.
        structural = ChangeSet(deltas=tuple(change_set.source_deltas()), origin=change_set.origin)
        if structural or revised_leaves:
            problem = self._patch_phase(
                structural,
                state,
                store,
                selected,
                outcome,
                row_diffs,
                revised_leaves=revised_leaves,
            )
            if problem is not None:
                return self._fallback(change_set, problem, evaluated=evaluated)

        # Phase D2 — metric facts: retract/add only the touched rows'
        # contributions to the quality sufficient statistics, then refresh
        # the affected ``metric`` facts from the patched accumulators.
        metrics_started = time.perf_counter()
        metrics_patched = self._patch_metrics(change_set, state, row_diffs, outcome)
        outcome.details["metrics_seconds"] = time.perf_counter() - metrics_started

        # Phase E — bookkeeping: the engine has done the pipeline tail's
        # work for this revision; without marking it, the next orchestration
        # would redo it from scratch.
        state.observe_feedback_applied(
            {d.feedback_id for d in change_set.feedback_deltas() if d.feedback_id}
        )
        synced = _PATCHED_TRANSDUCERS + ((_METRIC_TRANSDUCER,) if metrics_patched else ())
        for name in synced:
            if name in self._registry:
                self._registry.get(name).mark_synced(kb)
        outcome.reason = "patched in place"
        outcome.details["change_set"] = change_set.describe()
        return outcome

    def _patch_phase(
        self,
        change_set: ChangeSet,
        state,
        store: ProvenanceStore,
        mappings: Mapping[str, Any],
        outcome: IncrementalOutcome,
        row_diffs: dict[str, tuple[dict[str, tuple], dict[str, tuple]]],
        *,
        revised_leaves: Mapping[str, set[str]] | None = None,
    ) -> str | None:
        """Resolve one change set and patch every affected relation.

        Returns a problem description on any unsupported shape (the caller
        falls back to the full pipeline, which overwrites partial patches).
        """
        dirty_map = resolve(change_set, state, mappings, self._kb.catalog)
        for relation, sources in (revised_leaves or {}).items():
            entry = dirty_map.setdefault(relation, DirtySet(relation=relation))
            entry.rebuild_sources |= sources
            entry.reasons.append(f"mapping assignments changed for {sorted(sources)}")
        try:
            for relation, dirty in sorted(dirty_map.items()):
                rel_state = state.get(relation)
                if rel_state is None or dirty.full_rebuild:
                    return (
                        f"{relation} needs a full rebuild "
                        f"({'; '.join(dirty.reasons) or 'untracked'})"
                    )
                if dirty.empty:
                    continue
                mapping = mappings.get(relation)
                if mapping is None:
                    return f"no mapping available to patch {relation}"
                problem = self._patch_relation(
                    relation, rel_state, dirty, mapping, store, outcome, row_diffs
                )
                if problem is not None:
                    rel_state.mark_stale(problem)
                    return problem
                if relation not in outcome.relations:
                    outcome.relations.append(relation)
        except Exception as exc:  # noqa: BLE001 — any patch failure must fall back
            return f"patch failed: {type(exc).__name__}: {exc}"
        return None

    # -- metric facts ----------------------------------------------------------

    def _patch_metrics(
        self,
        change_set: ChangeSet,
        state,
        row_diffs: Mapping[str, tuple[dict[str, tuple], dict[str, tuple]]],
        outcome: IncrementalOutcome,
    ) -> bool:
        """Patch the quality sufficient statistics and refresh metric facts.

        Result relations re-derive from the before/after row diff (remove
        the old contribution, add the new); sources with appended rows add
        the tail rows' contributions. Anything the accumulators cannot
        represent — a changed data context or CFD set (the context token),
        a row-count drift — rebuilds the affected entries from the patched
        tables, which is still a table scan, not a pipeline run. Returns
        False only when the session has no stash to patch (the next full
        run recomputes the metrics from scratch).
        """
        kb = self._kb
        # The metric transducer snapshots the stash into the incremental
        # state; fall back to the KB artifact for sessions that predate it.
        stash = state.quality or quality_stats_stash(kb, create=False)
        if stash is None or not stash.entries:
            return False  # metrics never computed — let the transducer run
        from repro.quality.transducers import _metric_context

        context = None
        refreshed: list[str] = []

        def rebuild(relation: str) -> None:
            nonlocal context
            if context is None:
                context = _metric_context(kb)
            subject_kind = stash.entries[relation].subject_kind
            stash.entries[relation] = build_relation_entry(
                kb, relation, subject_kind, context=context
            )

        token = quality_context_token(kb)
        if stash.context_token != token:
            # The evaluation context itself changed (CFD revision, new data
            # context): every accumulator embeds it, so rebuild them all
            # against the already-patched tables.
            for relation in sorted(stash.entries):
                if kb.has_table(relation):
                    rebuild(relation)
                    refreshed.append(relation)
                else:
                    stash.entries.pop(relation)
            stash.context_token = token
        else:
            appended_rows: dict[str, int] = {}
            rebuild_sources: set[str] = set()
            for delta in change_set.source_deltas():
                if delta.removed_indexes:
                    rebuild_sources.add(delta.relation)
                elif delta.appended:
                    appended_rows[delta.relation] = (
                        appended_rows.get(delta.relation, 0) + len(delta.appended)
                    )
            for relation in sorted(rebuild_sources):
                if relation in stash.entries and kb.has_table(relation):
                    rebuild(relation)
                    refreshed.append(relation)
            for relation, count in sorted(appended_rows.items()):
                entry = stash.entries.get(relation)
                if entry is None or not kb.has_table(relation):
                    continue
                rows = kb.get_table(relation).tuples()
                if entry.stats.row_count + count != len(rows):
                    rebuild(relation)  # stats drifted from the table: resync
                else:
                    for values in rows[len(rows) - count:]:
                        entry.stats.add_row(values)
                refreshed.append(relation)
            for relation, (old_rows, new_rows) in sorted(row_diffs.items()):
                entry = stash.entries.get(relation)
                if entry is None or not kb.has_table(relation):
                    continue
                if entry.stats.row_count != len(old_rows):
                    rebuild(relation)  # stats drifted from the table: resync
                else:
                    stats = entry.stats
                    for key, old in old_rows.items():
                        new = new_rows.get(key)
                        if new is None:
                            stats.remove_row(old)
                        elif new is not old and new != old:
                            # Unchanged rows carry the same tuple object
                            # through the patch; the identity check keeps
                            # this scan at pointer-compare cost.
                            stats.replace_row(old, new)
                    for key, new in new_rows.items():
                        if key not in old_rows:
                            stats.add_row(new)
                refreshed.append(relation)

        for relation in dict.fromkeys(refreshed):
            entry = stash.entries[relation]
            # Retract/add: the patched subject's facts are replaced wholesale,
            # exactly as the metric transducer would on a full re-run.
            kb.retract_where(Predicates.METRIC, p0=entry.subject_kind, p1=relation)
            for criterion, value in entry.stats.finalise().as_dict().items():
                kb.assert_tuple(metric_fact(entry.subject_kind, relation, criterion, value))
        outcome.metrics_patched = list(dict.fromkeys(refreshed))
        # Stamped after the assertions: the stash exactly reflects the
        # patched tables as the engine hands back control, which is what
        # lets Wrangler.evaluate serve the report without a rescan.
        stash.synced_revision = kb.revision
        return True

    # -- fallback -------------------------------------------------------------

    def _fallback(
        self, change_set: ChangeSet, reason: str, *, evaluated: bool = False
    ) -> IncrementalOutcome:
        """Report non-application and arm the orchestrator for a full pass.

        When feedback was already assimilated (stage 1 ran), the selection
        facts were re-asserted and materialisation is runnable. Otherwise a
        re-selection nudge makes it runnable, so the caller's ``run()``
        rebuilds the results rather than quiescing over a half-patched KB.
        """
        if not evaluated:
            kb = self._kb
            for mapping_id, rank in list(kb.facts(Predicates.MAPPING_SELECTED)):
                kb.retract_fact(Predicates.MAPPING_SELECTED, mapping_id, rank)
                kb.assert_fact(Predicates.MAPPING_SELECTED, mapping_id, rank)
        return IncrementalOutcome(
            applied=False, reason=reason, details={"change_set": change_set.describe()}
        )

    @staticmethod
    def _changed_leaves(old_mapping, new_mapping) -> set[str] | None:
        """Driving sources whose leaf changed shape (None → leaves added/lost).

        Assignment *scores* are ignored — they move with every feedback
        round but do not affect what a leaf materialises. Only the
        (target, source relation, source attribute) triplets and the join
        conditions matter (``SchemaMapping.structure_signature``).
        """
        if old_mapping is None:
            return None
        old_leaves = {
            leaf.sources[0]: leaf.structure_signature() for leaf in old_mapping.leaf_mappings()
        }
        new_leaves = {
            leaf.sources[0]: leaf.structure_signature() for leaf in new_mapping.leaf_mappings()
        }
        if set(old_leaves) != set(new_leaves):
            return None
        return {source for source, sig in new_leaves.items() if old_leaves[source] != sig}

    # -- the patch ------------------------------------------------------------

    def _patch_relation(
        self,
        relation: str,
        rel_state: RelationState,
        dirty: DirtySet,
        mapping,
        store: ProvenanceStore,
        outcome: IncrementalOutcome,
        row_diffs: dict[str, tuple[dict[str, tuple], dict[str, tuple]]],
    ) -> str | None:
        """Patch one relation in place; returns a problem string on failure."""
        kb = self._kb
        schema = rel_state.schema
        old_pairs = dict(rel_state.pairs)
        old_clusters = cluster_map(old_pairs)

        # (a) re-execute dirty driving rows (and whole segments / appends).
        rematerialised = self._rematerialise(relation, rel_state, dirty, mapping, store)
        if rematerialised is None:
            return f"re-materialisation failed for {relation}"
        fresh, removed = rematerialised
        outcome.rows_rematerialised += len(fresh)

        # Dirty rows re-derive from base; their whole old clusters join them
        # (the fused survivor needs every member's fresh pre-fusion row and
        # lineage, not just the dirty one's).
        recompute = (set(dirty.recompute) | set(dirty.rematerialise) | fresh) & set(rel_state.base)
        for key in list(recompute):
            recompute |= old_clusters.get(key, frozenset())
        recompute &= set(rel_state.base)

        # (b) per-row pass 1: base → repair → feedback (the pre-fusion rows).
        feedback_marks = incorrect_marks(kb.facts(Predicates.FEEDBACK)).get(relation, {})
        learned: LearnedCFDs | None = kb.get_artifact(CFD_ARTIFACT_KEY)
        recompute_order = [key for key in rel_state.order if key in recompute]
        pass1, repaired_cells, dropped = self._derive_prefusion(
            relation, rel_state, recompute_order, learned, feedback_marks, store
        )
        outcome.rows_recomputed += len(recompute_order)
        outcome.cells_rerepaired += repaired_cells
        outcome.rows_dropped += len(dropped)
        for key in recompute_order:
            if key in dropped:
                rel_state.prefusion.pop(key, None)
            else:
                rel_state.prefusion[key] = pass1[key]

        # (c) re-score duplicate pairs involving the recomputed rows.
        touched = recompute | removed
        self._repair_pairs(rel_state, touched)

        # (d) affected final rows: every cluster (old or new) touching the
        # recomputed keys, plus recomputed singletons.
        new_clusters = cluster_map(rel_state.pairs)
        affected: set[str] = set(recompute)
        for key in recompute | removed:
            affected |= old_clusters.get(key, frozenset())
            affected |= new_clusters.get(key, frozenset())
        affected &= set(rel_state.base)

        # The pipeline runs its repair/feedback passes once per
        # materialisation — and once more *only when fusion rewrites the
        # table*. Whether this relation fuses at all therefore decides every
        # row's pass count; if the patch flips that (first pairs appeared,
        # or the last cluster dissolved), every row's derivation changes
        # shape and the whole table re-derives.
        two_pass = bool(rel_state.pairs)
        if two_pass != bool(old_pairs):
            affected = set(rel_state.prefusion)

        # (e) fuse dirty clusters; when the relation fuses, run the
        # cascade's post-fusion repair + feedback pass over the affected rows.
        current = self._current_rows(relation)
        final_updates, refused, pass2_cells, pass2_dropped = self._derive_final(
            relation,
            rel_state,
            affected,
            new_clusters,
            learned,
            feedback_marks,
            store,
            two_pass=two_pass,
        )
        outcome.clusters_refused += refused
        outcome.cells_rerepaired += pass2_cells
        outcome.rows_dropped += len(pass2_dropped)

        # (f) rebuild the emitted row order and write the table.
        order_index = {key: position for position, key in enumerate(rel_state.order)}
        emitted: list[str] = []
        rows: list[tuple] = []
        for key in rel_state.order:
            if key not in rel_state.prefusion:
                continue  # dropped pre-fusion (tuple feedback, removed row)
            cluster = new_clusters.get(key)
            if cluster is not None:
                kept = min(cluster, key=lambda member: order_index.get(member, 1 << 30))
                if key != kept:
                    continue
            if key in pass2_dropped:
                continue
            if key in final_updates:
                row = final_updates[key]
            elif key in current:
                row = current[key]
            else:
                # Newly appended / newly released from a cluster but not in
                # the affected set — derive directly from its pre-fusion row.
                row = rel_state.prefusion[key]
            emitted.append(key)
            rows.append(row)

        table = Table(schema, rows)
        kb.update_table(table)
        rel_state.phase = PHASE_FUSED if rel_state.pairs else PHASE_PREFUSION

        # (g) verify the patched table is a pipeline fixpoint: the full run
        # would re-detect over the fused rows and fuse again if anything
        # still pairs. Unchanged rows were pairwise clean at the previous
        # fixpoint, so only pairs touching this patch's final rows can exist.
        changed_final = {key for key in emitted if key in final_updates}
        if self._second_level_pairs(table, changed_final):
            return f"{relation}: patched rows re-cluster post-fusion (needs full pass)"

        # (h) result facts mirror the cascade's quiescent state.
        for row in list(kb.facts(Predicates.RESULT)):
            if row[0] == relation:
                kb.retract_fact(Predicates.RESULT, *row)
        kb.assert_tuple(result_fact(relation, mapping.mapping_id, len(table)))
        kb.retract_where(Predicates.DUPLICATE, p0=relation)
        all_pairs = kb.get_artifact(DUPLICATES_ARTIFACT_KEY, {})
        all_pairs[relation] = []
        kb.store_artifact(DUPLICATES_ARTIFACT_KEY, all_pairs)

        # (i) bookkeeping for the metric-statistics patch: the before/after
        # row diff. Phase D composes onto phase A's diff, so the first
        # captured "before" is kept.
        before = row_diffs[relation][0] if relation in row_diffs else current
        row_diffs[relation] = (before, dict(zip(emitted, rows)))
        return None

    # -- patch internals -------------------------------------------------------

    def _rematerialise(
        self,
        relation: str,
        rel_state: RelationState,
        dirty: DirtySet,
        mapping,
        store: ProvenanceStore,
    ) -> tuple[set[str], set[str]] | None:
        """Re-execute dirty driving rows; returns (fresh keys, removed keys)."""
        kb = self._kb
        target_schema = kb.schema_of(mapping.target_relation)
        executor = MappingExecutor(kb.catalog, provenance=store)

        driving: dict[str, set[int]] = {}
        for key in dirty.rematerialise:
            source, _, index = key.rpartition(":")
            if source and index.isdigit():
                driving.setdefault(source, set()).add(int(index))
        for source, indexes in dirty.appended.items():
            driving.setdefault(source, set()).update(indexes)
        segment_sources = set(dirty.rebuild_sources)
        for source in segment_sources:
            if source not in kb.catalog:
                return None
            driving[source] = set(range(len(kb.catalog.get(source))))

        if not driving:
            return set(), set()

        produced = executor.execute_rows(
            mapping, target_schema, driving=dict(driving), result_name=relation
        )
        fresh: set[str] = set()
        by_source_new: dict[str, list[str]] = {}
        for key, row in produced:
            fresh.add(key)
            if key in rel_state.base:
                rel_state.base[key] = row
            else:
                by_source_new.setdefault(key.rpartition(":")[0], []).append(key)
                rel_state.base[key] = row
            rel_state.prefusion.setdefault(key, row)
            lineage = store.tuple_lineage(relation, key)
            if lineage is not None:
                rel_state.base_lineage[key] = lineage

        # Segment rebuilds: drop keys of those sources that no longer exist.
        removed: set[str] = set()
        for source in segment_sources:
            prefix = f"{source}:"
            for key in [k for k in rel_state.order if k.startswith(prefix)]:
                if key not in fresh:
                    self._drop_key(relation, rel_state, key, store, "source rows removed")
                    removed.add(key)

        # Splice new keys into the order at the end of their source segment
        # (matching a full execute's leaf-then-index enumeration).
        for source, new_keys in by_source_new.items():
            prefix = f"{source}:"
            insert_at = max(
                (
                    position + 1
                    for position, key in enumerate(rel_state.order)
                    if key.startswith(prefix)
                ),
                default=len(rel_state.order),
            )
            ordered = sorted(new_keys, key=lambda key: int(key.rpartition(":")[2]))
            rel_state.order[insert_at:insert_at] = ordered
        return fresh, removed

    def _drop_key(
        self,
        relation: str,
        rel_state: RelationState,
        key: str,
        store: ProvenanceStore,
        reason: str,
    ) -> None:
        rel_state.base.pop(key, None)
        rel_state.prefusion.pop(key, None)
        rel_state.base_lineage.pop(key, None)
        try:
            rel_state.order.remove(key)
        except ValueError:
            pass
        store.record_drop(relation, key, reason=reason)

    def _derive_prefusion(
        self,
        relation: str,
        rel_state: RelationState,
        keys: list[str],
        learned: LearnedCFDs | None,
        feedback_marks: Mapping[str, set[str]],
        store: ProvenanceStore,
    ) -> tuple[dict[str, tuple], int, set[str]]:
        """Pass 1 for the given keys: base lineage reset → repair → feedback."""
        # Reset lineage to the materialisation-time annotation: repair and
        # fusion overrides are re-derived below, replacing (not appending to)
        # whatever previous rounds recorded.
        for key in keys:
            base = rel_state.base_lineage.get(key)
            if base is not None:
                store.record_tuple(
                    relation,
                    key,
                    operator=base.operator,
                    witnesses=base.witnesses,
                    mapping_id=base.mapping_id,
                    cell_sources=base.cell_sources,
                )
        rows = [rel_state.base[key] for key in keys]
        repaired, cells = self._repair_rows(relation, rel_state.schema, rows, learned, store)
        derived, dropped = self._feedback_pass(
            relation, rel_state.schema, keys, repaired, feedback_marks, store
        )
        return derived, cells, dropped

    def _repair_rows(
        self,
        relation: str,
        schema,
        rows: list[tuple],
        learned: LearnedCFDs | None,
        store: ProvenanceStore,
    ) -> tuple[list[tuple], int]:
        """One CFD repair pass over a row subset (row-local, like the full pass)."""
        if not rows or learned is None or not learned.cfds:
            return rows, 0
        mini = Table(schema, rows, coerce=False, validate=False)
        mini = mini.rename(relation)
        result = self._repairer.repair(
            mini, learned.cfds, witnesses=learned.witnesses, provenance=store
        )
        return result.table.tuples(), len(result.actions)

    @staticmethod
    def _feedback_pass(
        relation: str,
        schema,
        keys: list[str],
        rows: list[tuple],
        feedback_marks: Mapping[str, set[str]],
        store: ProvenanceStore,
    ) -> tuple[dict[str, tuple], set[str]]:
        """The pipeline's per-row feedback rule over a row subset; returns
        (kept rows by key, dropped keys)."""
        names = schema.attribute_names
        kept: dict[str, tuple] = {}
        dropped: set[str] = set()
        for key, row in zip(keys, rows):
            row, _cleared = apply_row_feedback(
                store, relation, key, row, names, feedback_marks.get(key, ())
            )
            if row is None:
                dropped.add(key)
            else:
                kept[key] = row
        return kept, dropped

    def _repair_pairs(self, rel_state: RelationState, touched: set[str]) -> None:
        """Drop pairs touching ``touched`` keys and re-score their candidates.

        The detector's own candidate generator over the pre-fusion rows,
        restricted to pairs with at least one touched endpoint: same blocks,
        same pruning, same threshold, same score rounding as detection.
        """
        rel_state.pairs = {
            pair: score
            for pair, score in rel_state.pairs.items()
            if pair[0] not in touched and pair[1] not in touched
        }
        alive = rel_state.alive_keys()
        touched_positions = [position for position, key in enumerate(alive) if key in touched]
        if not touched_positions:
            return
        config = self._detector.config
        schema = rel_state.schema
        table = Table(
            schema, [rel_state.prefusion[key] for key in alive], coerce=False, validate=False
        )
        # Row views only for candidate endpoints, not for every alive row.
        row = functools.cache(table.__getitem__)
        for i, j in self._detector.candidates(table, touching=touched_positions):
            score = self._detector.pair_similarity(row(i), row(j))
            if score >= config.threshold:
                rel_state.pairs[(alive[i], alive[j])] = round(score, 6)

    def _derive_final(
        self,
        relation: str,
        rel_state: RelationState,
        affected: set[str],
        new_clusters: Mapping[str, frozenset],
        learned: LearnedCFDs | None,
        feedback_marks: Mapping[str, set[str]],
        store: ProvenanceStore,
        *,
        two_pass: bool,
    ) -> tuple[dict[str, tuple], int, int, set[str]]:
        """Fuse affected clusters; with ``two_pass``, re-repair + re-apply
        feedback over the affected rows (the cascade's post-fusion passes)."""
        schema = rel_state.schema
        names = list(schema.attribute_names)
        final: dict[str, tuple] = {}
        handled: set[str] = set()
        refused = 0
        order_index = {key: position for position, key in enumerate(rel_state.order)}

        for key in sorted(affected, key=lambda k: order_index.get(k, 1 << 30)):
            if key in handled or key not in rel_state.prefusion:
                continue
            cluster = new_clusters.get(key)
            if cluster is None:
                final[key] = rel_state.prefusion[key]
                handled.add(key)
                continue
            members = sorted(
                (member for member in cluster if member in rel_state.prefusion),
                key=lambda member: order_index.get(member, 1 << 30),
            )
            handled |= set(members)
            if not members:
                continue
            if len(members) == 1:
                final[members[0]] = rel_state.prefusion[members[0]]
                continue
            member_rows = [rel_state.prefusion[member] for member in members]
            merged, kept = self._fuser.fuse_cluster(
                relation, names, member_rows, members, provenance=store
            )
            final[kept] = merged
            refused += 1

        if not two_pass:
            # No fusion → the pipeline never rewrites the materialised
            # table after its single repair/feedback pass.
            return final, refused, 0, set()

        # The cascade's post-fusion repair + feedback over the fused rows.
        keys = [key for key in rel_state.order if key in final]
        rows = [final[key] for key in keys]
        repaired, cells = self._repair_rows(relation, schema, rows, learned, store)
        kept, dropped = self._feedback_pass(relation, schema, keys, repaired, feedback_marks, store)
        final.update(kept)
        return final, refused, cells, dropped

    def _current_rows(self, relation: str) -> dict[str, tuple]:
        """The current final table, keyed by row key."""
        if not self._kb.has_table(relation):
            return {}
        table = self._kb.get_table(relation)
        return dict(zip(table.row_keys(), table.tuples()))

    def _second_level_pairs(self, table: Table, changed_keys: set[str]) -> bool:
        """Would the pipeline's final detection pass fuse again?"""
        if not changed_keys:
            return False
        threshold = self._detector.config.threshold
        touching = [
            position for position, key in enumerate(table.row_keys()) if key in changed_keys
        ]
        row = functools.cache(table.__getitem__)
        return any(
            self._detector.pair_similarity(row(i), row(j)) >= threshold
            for i, j in self._detector.candidates(table, touching=touching)
        )
