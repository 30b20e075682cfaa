"""Typed revision deltas and the change-set algebra.

A feedback-driven revision — a user annotation, an appended source row, a
changed CFD, a fusion-policy flip, a mapping re-selection — is represented
as a typed delta. A :class:`ChangeSet` bundles deltas and supports the small
algebra the incremental engine needs:

- **union** (``a | b``) — combine the revisions of several interactions;
- **restrict-to-table** — the deltas that can affect one result relation;
- **row-key closure** — resolve the deltas to the exact dirty row keys per
  result relation, by delegating to an
  :class:`~repro.incremental.impact.ImpactIndex` built over the recorded
  why-provenance.

Deltas are pure descriptions: nothing here touches the knowledge base. The
:class:`~repro.incremental.rewrangle.IncrementalWrangler` interprets them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.incremental.impact import DirtyMap, ImpactIndex

__all__ = [
    "FeedbackDelta",
    "SourceRowsDelta",
    "RuleDelta",
    "FusionPolicyDelta",
    "MappingRevisionDelta",
    "Delta",
    "ChangeSet",
]


@dataclass(frozen=True)
class FeedbackDelta:
    """One user annotation on a materialised result cell or tuple."""

    kind = "feedback"

    #: Result relation the annotation targets.
    relation: str
    #: Stable row key (``_row_id``) of the annotated tuple.
    row_key: str
    #: Annotated attribute; None means tuple-level feedback.
    attribute: str | None
    #: The user's verdict.
    correct: bool
    #: The feedback fact id this delta was derived from (diagnostics).
    feedback_id: str | None = None

    @property
    def changes_table(self) -> bool:
        """Only negative feedback rewrites the result (cells cleared, rows
        dropped); positive feedback changes scores, not data."""
        return not self.correct


@dataclass(frozen=True)
class SourceRowsDelta:
    """Rows appended to (or removed from) a registered source table.

    Appends are fully incremental: existing ``source:index`` row ids stay
    valid and only the new rows (plus any join partners they unlock) are
    re-materialised. Removals invalidate the positional ids of every later
    row of that source, so they dirty the source's whole segment — still
    incremental with respect to every *other* source and mapping.
    """

    kind = "source_rows"

    #: The source relation being revised.
    relation: str
    #: New raw rows in the source's schema order.
    appended: tuple[tuple, ...] = ()
    #: Positional indexes of removed rows (pre-removal numbering).
    removed_indexes: tuple[int, ...] = ()


@dataclass(frozen=True)
class RuleDelta:
    """A change to the learned rules (CFDs) driving repair.

    ``change`` is ``"removed"``, ``"added"`` or ``"revised"``. Removal is
    surgical: the inverted repair index names exactly the cells the retired
    CFDs rewrote. Additions and revisions are conservative — a new pattern
    may newly apply anywhere — so they dirty every row of the affected
    relations for re-repair (but not for re-materialisation).
    """

    kind = "rule"

    cfd_ids: tuple[str, ...]
    change: str = "revised"


@dataclass(frozen=True)
class FusionPolicyDelta:
    """A conflict-resolution policy change (fusion-winner flip).

    Dirties every row that belongs to a duplicate cluster — singleton rows
    have no conflicts to re-resolve — for re-fusion without re-execution.
    """

    kind = "fusion_policy"

    #: Affected result relation (None → every tracked relation).
    relation: str | None = None
    #: Affected attributes (informational; clusters re-fuse whole rows).
    attributes: tuple[str, ...] = ()


@dataclass(frozen=True)
class MappingRevisionDelta:
    """The selected mapping changed for a target relation.

    The result is a different query over the sources, so the relation needs
    a full rebuild; the engine performs it as one straight-line pipeline
    pass rather than through orchestrated re-runs.
    """

    kind = "mapping"

    target_relation: str
    mapping_id: str


#: Any of the supported delta types.
Delta = FeedbackDelta | SourceRowsDelta | RuleDelta | FusionPolicyDelta | MappingRevisionDelta


@dataclass(frozen=True)
class ChangeSet:
    """An immutable bundle of revision deltas."""

    deltas: tuple[Delta, ...] = ()
    #: Free-form origin note ("feedback round 3", "CFD refresh", ...).
    origin: str = ""
    details: dict[str, Any] = field(default_factory=dict, compare=False)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_feedback(cls, annotations: Iterable, *, origin: str = "feedback") -> "ChangeSet":
        """A change set from :class:`~repro.core.facts.Feedback` annotations."""
        from repro.core.facts import Predicates

        deltas = []
        for annotation in annotations:
            attribute = annotation.attribute
            if attribute == Predicates.ANY_ATTRIBUTE:
                attribute = None
            deltas.append(
                FeedbackDelta(
                    relation=str(annotation.relation),
                    row_key=str(annotation.row_key),
                    attribute=attribute,
                    correct=bool(annotation.correct),
                    feedback_id=str(annotation.feedback_id),
                )
            )
        return cls(deltas=tuple(deltas), origin=origin)

    # -- algebra --------------------------------------------------------------

    def union(self, other: "ChangeSet") -> "ChangeSet":
        """The combined change set (deduplicated, order-preserving)."""
        seen = set()
        merged = []
        for delta in (*self.deltas, *other.deltas):
            if delta in seen:
                continue
            seen.add(delta)
            merged.append(delta)
        origin = " + ".join(part for part in (self.origin, other.origin) if part)
        return ChangeSet(deltas=tuple(merged), origin=origin)

    __or__ = union

    def restrict_to_table(
        self, relation: str, *, source_relations: Sequence[str] | None = None
    ) -> "ChangeSet":
        """The deltas that can affect result relation ``relation``.

        ``source_relations`` names the sources feeding that relation (the
        selected mapping's sources); without it, source- and rule-level
        deltas are kept conservatively.
        """
        sources = set(source_relations) if source_relations is not None else None
        kept = []
        for delta in self.deltas:
            if isinstance(delta, FeedbackDelta):
                if delta.relation == relation:
                    kept.append(delta)
            elif isinstance(delta, SourceRowsDelta):
                if sources is None or delta.relation in sources:
                    kept.append(delta)
            elif isinstance(delta, FusionPolicyDelta):
                if delta.relation in (None, relation):
                    kept.append(delta)
            elif isinstance(delta, MappingRevisionDelta):
                if delta.target_relation == relation or relation.startswith(delta.target_relation):
                    kept.append(delta)
            else:  # RuleDelta — rules are learned per target, keep conservatively.
                kept.append(delta)
        return ChangeSet(deltas=tuple(kept), origin=self.origin)

    def row_key_closure(self, index: "ImpactIndex") -> "DirtyMap":
        """Resolve the change set to dirty row keys per result relation.

        This is the closure operation of the algebra: every delta is pushed
        through the inverted provenance index (source-ref fan-out, fusion
        clusters, repair fan-out) to the exact set of downstream row keys it
        can affect. Delegates to :meth:`ImpactIndex.resolve`.
        """
        return index.resolve(self)

    # -- views ----------------------------------------------------------------

    def __iter__(self) -> Iterator[Delta]:
        return iter(self.deltas)

    def __len__(self) -> int:
        return len(self.deltas)

    def __bool__(self) -> bool:
        return bool(self.deltas)

    def feedback_deltas(self) -> list[FeedbackDelta]:
        """Only the feedback deltas."""
        return [d for d in self.deltas if isinstance(d, FeedbackDelta)]

    def source_deltas(self) -> list[SourceRowsDelta]:
        """Only the source-row deltas."""
        return [d for d in self.deltas if isinstance(d, SourceRowsDelta)]

    def rule_deltas(self) -> list[RuleDelta]:
        """Only the rule (CFD) deltas."""
        return [d for d in self.deltas if isinstance(d, RuleDelta)]

    def fusion_deltas(self) -> list[FusionPolicyDelta]:
        """Only the fusion-policy deltas."""
        return [d for d in self.deltas if isinstance(d, FusionPolicyDelta)]

    def mapping_deltas(self) -> list[MappingRevisionDelta]:
        """Only the mapping-revision deltas."""
        return [d for d in self.deltas if isinstance(d, MappingRevisionDelta)]

    def result_relations(self) -> list[str]:
        """Result relations directly named by feedback deltas."""
        return sorted({d.relation for d in self.feedback_deltas()})

    def describe(self) -> dict[str, Any]:
        """A compact, JSON-friendly summary."""
        counts: dict[str, int] = {}
        for delta in self.deltas:
            counts[delta.kind] = counts.get(delta.kind, 0) + 1
        return {"origin": self.origin, "deltas": len(self.deltas), "by_kind": counts}
