"""Typed revision deltas and the change sets that bundle them.

The pay-as-you-go loop revises a result in two ways: a user annotates a
result cell or tuple (:class:`FeedbackDelta`), or rows are appended to or
removed from a registered source (:class:`SourceRowsDelta`). A
:class:`ChangeSet` bundles the deltas of one revision;
:func:`repro.incremental.impact.resolve` closes it over the snapshots to the
dirty row keys per result relation.

Deltas are pure descriptions: nothing here touches the knowledge base. The
:class:`~repro.incremental.rewrangle.IncrementalWrangler` interprets them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

__all__ = ["FeedbackDelta", "SourceRowsDelta", "Delta", "ChangeSet"]


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


#: Any of the supported delta types.
Delta = FeedbackDelta | SourceRowsDelta


@dataclass(frozen=True)
class ChangeSet:
    """An immutable bundle of revision deltas."""

    deltas: tuple[Delta, ...] = ()
    #: Free-form origin note ("feedback facts", "append 2 rows to depots").
    origin: str = ""

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

    def describe(self) -> dict[str, Any]:
        """A compact, JSON-friendly summary."""
        counts: dict[str, int] = {}
        for delta in self.deltas:
            counts[delta.kind] = counts.get(delta.kind, 0) + 1
        return {"origin": self.origin, "deltas": len(self.deltas), "by_kind": counts}
