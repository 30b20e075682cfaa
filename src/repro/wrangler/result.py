"""Result objects returned by the wrangling pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.trace import Trace
from repro.mapping.model import SchemaMapping
from repro.provenance.explain import LineageTree, explain_result, render_lineage
from repro.provenance.model import ProvenanceStore
from repro.quality.stats import QualityReport
from repro.relational.table import Table

__all__ = ["WranglingResult"]


@dataclass
class WranglingResult:
    """What one orchestration run (one pay-as-you-go stage) produced."""

    #: Label of the stage that produced this result (bootstrap, data_context,
    #: feedback, user_context or a caller-supplied label).
    phase: str
    #: The materialised result table (None when no mapping could be selected).
    table: Table | None
    #: The mapping that produced the result.
    selected_mapping: SchemaMapping | None
    #: Quality of the result as measured against ground truth (when the
    #: caller supplied it) or against the available data context.
    quality: QualityReport | None
    #: Orchestration trace of the whole session so far.
    trace: Trace
    #: Number of trace steps executed during this stage.
    steps_executed: int
    #: Extra details (per-criterion weights in use, ranking, …).
    details: dict[str, Any] = field(default_factory=dict)
    #: Lineage recorded for the session (None when tracking is off).
    provenance: ProvenanceStore | None = None
    #: The session catalog at the time the result was produced; lets
    #: :meth:`explain` resolve contributing source rows without the caller
    #: having to thread ``wrangler.kb.catalog`` through by hand.
    catalog: Any = None

    @property
    def row_count(self) -> int:
        """Number of rows in the result (0 when there is none)."""
        return len(self.table) if self.table is not None else 0

    def explain(self, row: int | str, column: str | None = None) -> LineageTree:
        """Why-provenance of one result cell (or tuple when ``column`` is None).

        Identical to :meth:`repro.wrangler.pipeline.Wrangler.explain` (both
        route through :func:`repro.provenance.explain.explain_result`); the
        source-row leaves resolve against the catalog captured with the
        result.
        """
        return explain_result(self.table, self.provenance, row, column, catalog=self.catalog)

    def explain_text(self, row: int | str, column: str | None = None) -> str:
        """Human-readable rendering of :meth:`explain`."""
        return render_lineage(self.explain(row, column))

    def summary(self) -> dict[str, Any]:
        """A compact dictionary used by examples and benchmarks."""
        quality = self.quality.as_dict() if self.quality else {}
        return {
            "phase": self.phase,
            "rows": self.row_count,
            "mapping": self.selected_mapping.mapping_id if self.selected_mapping else None,
            "steps": self.steps_executed,
            **{f"quality_{name}": round(value, 4) for name, value in quality.items()},
        }
