"""Lineage-targeted feedback propagation.

When a user marks a result value wrong, the why-provenance of that cell
names exactly the source rows, assignments and mappings that produced it.
This module turns feedback facts into:

- **per-assignment evidence** — ``(source relation, target attribute)``
  tallies attributed through the recorded lineage rather than through the
  coarse ``_source`` bookkeeping column. The difference matters for joined
  attributes (a wrong ``crimerank`` is attributed to the joined-in lookup
  source, not the driving portal) and for fused cells (the sources whose
  value actually won the conflict are blamed, not the cluster's first
  member);
- **implicated mappings** — the candidate mappings containing a blamed
  assignment, published as the ``lineage_penalties`` artifact. Mapping
  scoring decrements the confidence of exactly these mappings, which is
  what triggers *selective* re-selection instead of a global score update.

Cells whose current value was produced by a repair are attributed to the
repairing CFD (pseudo-source ``cfd:<id>``) rather than to the mapping — the
mapping did not produce the wrong value, the repair did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.facts import Predicates
from repro.provenance.model import OPERATOR_REPAIR, ProvenanceStore

__all__ = [
    "LINEAGE_PENALTIES_ARTIFACT_KEY",
    "LineageEvidence",
    "LineagePropagation",
    "LineageFeedbackPropagator",
]

#: Artifact key for per-mapping feedback penalties derived from lineage.
LINEAGE_PENALTIES_ARTIFACT_KEY = "lineage_penalties"


@dataclass
class LineageEvidence:
    """Feedback tallies for one ``(source relation, target attribute)`` pair."""

    source_relation: str
    target_attribute: str
    correct: int = 0
    incorrect: int = 0
    #: Feedback ids that contributed (diagnostics / explanations).
    feedback_ids: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of annotations attributed to this assignment."""
        return self.correct + self.incorrect

    @property
    def error_rate(self) -> float:
        """Fraction of attributed annotations that were negative."""
        if self.total == 0:
            return 0.0
        return self.incorrect / self.total


@dataclass
class LineagePropagation:
    """What one propagation pass derived from the feedback facts."""

    #: (source relation, target attribute) -> evidence.
    evidence: dict[tuple[str, str], LineageEvidence]
    #: mapping id -> {"correct", "incorrect", "error_rate"}.
    mapping_penalties: dict[str, dict[str, float]]
    #: Feedback fact rows that could not be attributed through lineage
    #: (no recorded lineage for their tuple) — callers may fall back to the
    #: coarse ``_source``-column attribution for these.
    unattributed: list[tuple] = field(default_factory=list)

    def implicated_mappings(self) -> list[str]:
        """Mappings with at least one negatively annotated assignment."""
        return sorted(
            mapping_id
            for mapping_id, entry in self.mapping_penalties.items()
            if entry["incorrect"] > 0
        )


class LineageFeedbackPropagator:
    """Attributes feedback facts through recorded lineage."""

    def emit_deltas(self, kb, *, seen: Iterable[str] = ()) -> "ChangeSet":
        """The feedback facts as a typed change set for incremental re-wrangling.

        ``seen`` names feedback ids whose table effects are already
        materialised (tracked by the incremental state); they are skipped, so
        the emitted change set describes exactly the *new* revisions. This is
        the bridge from the feedback loop into
        :mod:`repro.incremental`: annotations become
        :class:`~repro.incremental.delta.FeedbackDelta` objects whose row
        keys :func:`~repro.incremental.impact.resolve` fans out over the
        duplicate clusters.
        """
        from repro.incremental.delta import ChangeSet, FeedbackDelta

        seen_ids = set(seen)
        deltas = []
        for fid, relation, row_key, attribute, verdict in kb.facts(Predicates.FEEDBACK):
            if str(fid) in seen_ids:
                continue
            deltas.append(
                FeedbackDelta(
                    relation=str(relation),
                    row_key=str(row_key),
                    attribute=None if attribute == Predicates.ANY_ATTRIBUTE else str(attribute),
                    correct=verdict == Predicates.CORRECT,
                    feedback_id=str(fid),
                )
            )
        return ChangeSet(deltas=tuple(deltas), origin="feedback facts")

    def collect(
        self,
        kb,
        store: ProvenanceStore | None,
        candidates: Mapping[str, object] | None = None,
    ) -> LineagePropagation:
        """Attribute every feedback fact via lineage.

        ``candidates`` is the candidate-mapping artifact (id ->
        :class:`~repro.mapping.model.SchemaMapping`); when given, the
        per-assignment evidence is folded into per-mapping penalties for
        every candidate containing a blamed assignment.
        """
        evidence: dict[tuple[str, str], LineageEvidence] = {}
        unattributed: list[tuple] = []
        feedback_rows = kb.facts(Predicates.FEEDBACK)
        attribute_cache: dict[str, list[str]] = {}
        for row in feedback_rows:
            fid, relation, row_key, attribute, verdict = row
            attributed = False
            if store is not None:
                relation = str(relation)
                if relation not in attribute_cache:
                    attribute_cache[relation] = self._result_attributes(kb, relation)
                attributed = self._attribute_one(
                    store,
                    evidence,
                    str(fid),
                    relation,
                    str(row_key),
                    str(attribute),
                    verdict == Predicates.CORRECT,
                    attribute_cache[relation],
                )
            if not attributed:
                unattributed.append(row)
        penalties = self._mapping_penalties(evidence, candidates or {})
        return LineagePropagation(
            evidence=evidence,
            mapping_penalties=penalties,
            unattributed=unattributed,
        )

    # -- internals ------------------------------------------------------------

    def _attribute_one(
        self,
        store: ProvenanceStore,
        evidence: dict[tuple[str, str], LineageEvidence],
        feedback_id: str,
        relation: str,
        row_key: str,
        attribute: str,
        correct: bool,
        tuple_attributes: Iterable[str],
    ) -> bool:
        lineage = store.tuple_lineage(relation, row_key)
        if lineage is None:
            return False
        if attribute == Predicates.ANY_ATTRIBUTE:
            attributes = list(tuple_attributes)
        else:
            attributes = [attribute]
        attributed = False
        for target_attribute in attributes:
            cell = lineage.cell(target_attribute)
            if cell.operator == OPERATOR_REPAIR:
                # The repair, not the mapping, produced the current value.
                sources = {f"cfd:{cell.detail}" if cell.detail else "cfd:?"}
            else:
                sources = cell.source_relations()
            for source in sorted(sources):
                entry = evidence.setdefault(
                    (source, target_attribute),
                    LineageEvidence(source, target_attribute),
                )
                if correct:
                    entry.correct += 1
                else:
                    entry.incorrect += 1
                entry.feedback_ids.append(feedback_id)
                attributed = True
        return attributed

    @staticmethod
    def _result_attributes(kb, relation: str) -> list[str]:
        if not kb.has_table(relation):
            return []
        table = kb.get_table(relation)
        return [name for name in table.schema.attribute_names if not name.startswith("_")]

    @staticmethod
    def _mapping_penalties(
        evidence: Mapping[tuple[str, str], LineageEvidence],
        candidates: Mapping[str, object],
    ) -> dict[str, dict[str, float]]:
        penalties: dict[str, dict[str, float]] = {}
        for mapping_id, mapping in candidates.items():
            correct = 0
            incorrect = 0
            for leaf in mapping.leaf_mappings():
                for assignment in leaf.assignments:
                    entry = evidence.get((assignment.source_relation, assignment.target_attribute))
                    if entry is None:
                        continue
                    correct += entry.correct
                    incorrect += entry.incorrect
            if correct or incorrect:
                total = correct + incorrect
                penalties[mapping_id] = {
                    "correct": float(correct),
                    "incorrect": float(incorrect),
                    "error_rate": incorrect / total,
                }
        return penalties
