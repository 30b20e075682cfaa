"""Feedback-driven transducers: mapping evaluation and feedback repair.

When ``feedback`` facts appear in the knowledge base the mapping-evaluation
transducer becomes runnable. It attributes the feedback to the matches used
by the selected mapping (through recorded why-provenance when available),
revises their scores, and publishes feedback-derived error rates — changes
to the ``match`` predicate then make mapping generation (and everything
downstream) runnable again, closing the paper's feedback loop. The
feedback-repair transducer applies the annotations directly to the
materialised result (values the user has marked incorrect are removed,
tuples marked incorrect are dropped), so the user's effort pays off
immediately as well as through re-orchestration.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

from repro.core.facts import Predicates
from repro.core.knowledge_base import KnowledgeBase
from repro.core.transducer import Activity, Transducer, TransducerResult
from repro.feedback.assimilation import FeedbackAssimilator
from repro.incremental.state import incremental_state
from repro.mapping.model import PROVENANCE_ROW_ID
from repro.mapping.transducers import (
    FEEDBACK_PENALTIES_ARTIFACT_KEY,
    MAPPINGS_ARTIFACT_KEY,
    selected_mapping,
)
from repro.provenance.feedback import (
    LINEAGE_PENALTIES_ARTIFACT_KEY,
    LineageFeedbackPropagator,
)
from repro.provenance.model import OPERATOR_FEEDBACK, ProvenanceStore, provenance_store
from repro.quality.transducers import quality_stats_stash
from repro.relational.types import is_null

__all__ = [
    "MappingEvaluationTransducer",
    "FeedbackRepairTransducer",
    "apply_row_feedback",
    "incorrect_marks",
]


def incorrect_marks(feedback_rows: Iterable[tuple]) -> dict[str, dict[str, set[str]]]:
    """relation → row key → attributes marked incorrect (``*`` marks the tuple)."""
    marks: dict[str, dict[str, set[str]]] = {}
    for _fid, relation, row_key, attribute, verdict in feedback_rows:
        if verdict == Predicates.INCORRECT:
            marks.setdefault(relation, {}).setdefault(str(row_key), set()).add(str(attribute))
    return marks


def apply_row_feedback(
    store: ProvenanceStore,
    relation: str,
    row_key: str,
    row: tuple,
    names: Sequence[str],
    incorrect: Collection[str],
) -> tuple[tuple | None, int]:
    """The per-row feedback rule; returns (row, cells cleared).

    A tuple marked incorrect is dropped (the returned row is None); every
    non-null cell marked incorrect is cleared, and its lineage keeps the
    prior witnesses: the cell is empty now, but the lineage of the value
    the user rejected is what feedback assimilation must blame.
    """
    if not incorrect:
        return row, 0
    if Predicates.ANY_ATTRIBUTE in incorrect:
        store.record_drop(relation, row_key, reason="feedback: tuple marked incorrect")
        return None, 0
    mutable = list(row)
    cleared = 0
    for position, attribute in enumerate(names):
        if attribute in incorrect and not is_null(mutable[position]):
            mutable[position] = None
            cleared += 1
            prior = store.cell_lineage(relation, row_key, attribute)
            store.record_cell(
                relation,
                row_key,
                attribute,
                operator=OPERATOR_FEEDBACK,
                witnesses=prior.witnesses if prior else (),
                detail="cleared: marked incorrect",
            )
    return (tuple(mutable) if cleared else row), cleared


class MappingEvaluationTransducer(Transducer):
    """Revises match scores in the light of user feedback on results."""

    name = "mapping_evaluation"
    activity = Activity.EVALUATION
    priority = 10
    # Only feedback itself is a dependency: re-materialising the result must
    # not re-trigger evaluation of the *same* feedback (that would repeatedly
    # penalise the same matches and never quiesce).
    input_dependencies = ("feedback(F, R, K, A, V)",)

    def __init__(self, assimilator: FeedbackAssimilator | None = None):
        super().__init__()
        self._assimilator = assimilator or FeedbackAssimilator()

    def run(self, kb: KnowledgeBase) -> TransducerResult:
        candidates = kb.get_artifact(MAPPINGS_ARTIFACT_KEY, {})
        store = provenance_store(kb)
        # One lineage-targeted attribution pass: it yields both the
        # per-assignment evidence (reused by the assimilator below) and the
        # per-mapping penalties naming exactly the implicated candidates.
        propagation = LineageFeedbackPropagator().collect(kb, store, candidates)
        evidence = self._assimilator.collect_evidence(
            kb, selected_mapping(kb), store, propagation=propagation
        )
        source_rows = self._assimilator.source_row_counts(kb)
        revised = self._assimilator.revise_matches(kb, evidence, source_rows)
        penalties = self._assimilator.error_rates(evidence)
        kb.store_artifact(FEEDBACK_PENALTIES_ARTIFACT_KEY, penalties)
        kb.store_artifact(LINEAGE_PENALTIES_ARTIFACT_KEY, propagation.mapping_penalties)
        problem_assignments = sorted(
            f"{source}.{attribute}={entry['error_rate']:.2f}"
            for (source, attribute), entry in penalties.items()
            if entry["error_rate"] > 0
        )
        return TransducerResult(
            facts_added=0,
            notes=(
                f"assimilated feedback on {len(evidence)} assignments; "
                f"revised {revised} match scores; "
                f"{len(propagation.implicated_mappings())} mappings implicated"
            ),
            details={
                "evidence": {
                    f"{s}.{a}": (e.correct, e.incorrect) for (s, a), e in evidence.items()
                },
                "revised_matches": revised,
                "problem_assignments": problem_assignments,
                "implicated_mappings": propagation.implicated_mappings(),
            },
        )


class FeedbackRepairTransducer(Transducer):
    """Applies feedback annotations directly to the materialised result.

    - attribute-level ``incorrect`` feedback removes the flagged value (a
      known-wrong value is worse than a missing one for downstream analysis);
    - tuple-level ``incorrect`` feedback drops the row.

    The transducer re-runs after every re-materialisation (the ``result``
    watch) so the user's annotations keep being honoured even when the
    result is rebuilt from a revised mapping.
    """

    name = "feedback_repair"
    activity = Activity.REPAIR
    priority = 20
    input_dependencies = ("feedback(F, R, K, A, V)",)
    watch_predicates = ("result",)

    def run(self, kb: KnowledgeBase) -> TransducerResult:
        state = incremental_state(kb, create=False)
        feedback_rows = kb.facts(Predicates.FEEDBACK)
        if state is not None:
            # Whatever this pass applies (or skips as already applied) is
            # reflected in the materialised tables from here on.
            state.observe_feedback_applied({str(row[0]) for row in feedback_rows})
        by_relation = incorrect_marks(feedback_rows)
        if not by_relation:
            return TransducerResult(notes="no negative feedback to apply")
        cells_cleared = 0
        rows_dropped = 0
        tables_written = []
        store = provenance_store(kb)
        stash = quality_stats_stash(kb, create=False)
        for relation, marks in by_relation.items():
            if not kb.has_table(relation):
                continue
            table = kb.get_table(relation)
            if PROVENANCE_ROW_ID not in table.schema:
                continue
            # Keep the quality sufficient statistics tracking the rewrite:
            # this is the one table mutation the metric transducer's watch
            # predicates cannot see, so the accumulators would silently go
            # stale without it. Entries that already drifted are dropped
            # (the incremental engine rebuilds them from the table).
            entry = stash.entries.get(relation) if stash is not None else None
            if entry is not None and entry.stats.row_count != len(table):
                stash.entries.pop(relation, None)
                entry = None
            stats = entry.stats if entry is not None else None
            row_id_position = table.schema.position(PROVENANCE_ROW_ID)
            names = table.schema.attribute_names
            new_rows = []
            changed = False
            for values in table.tuples():
                row_key = str(values[row_id_position])
                new_values, cleared = apply_row_feedback(
                    store, relation, row_key, values, names, marks.get(row_key, ())
                )
                if new_values is None:
                    rows_dropped += 1
                    changed = True
                    if stats is not None:
                        stats.remove_row(values)
                    continue
                if cleared:
                    cells_cleared += cleared
                    changed = True
                    if stats is not None:
                        stats.replace_row(values, new_values)
                new_rows.append(new_values)
            if changed:
                rewritten = table.replace_rows(new_rows)
                kb.update_table(rewritten)
                if state is not None:
                    state.observe_table_updated(rewritten)
                tables_written.append(relation)
        return TransducerResult(
            facts_added=0,
            tables_written=tables_written,
            notes=f"applied feedback: cleared {cells_cleared} cells, dropped {rows_dropped} rows",
            details={"cells_cleared": cells_cleared, "rows_dropped": rows_dropped},
        )
