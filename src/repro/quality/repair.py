"""CFD-based data repair.

Paper §3 step 2: once CFDs have been learned from reference data "it is now
also possible … to carry out repairs to the mapping results". The repairer
fixes two kinds of defect:

- *violations*: a row's RHS value disagrees with the CFD's expected value
  (constant pattern or reference witness) — the value is replaced;
- *missing values*: the RHS is NULL but the CFD (via its witness) knows the
  expected value — the value is imputed.

Every change is reported as a :class:`RepairAction` so the knowledge base
can record ``repair`` facts and the trace stays browsable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.provenance.model import OPERATOR_REPAIR, ProvenanceStore
from repro.quality.cfd import CFD, CFDCheck, _values_equal
from repro.relational.table import Table
from repro.relational.types import is_null

__all__ = ["RepairAction", "RepairResult", "CFDRepairer"]


@dataclass(frozen=True)
class RepairAction:
    """One cell change performed by the repairer."""

    relation: str
    row_index: int
    attribute: str
    old_value: Any
    new_value: Any
    cfd_id: str
    #: ``violation`` (wrong value replaced) or ``imputation`` (NULL filled).
    kind: str

    def __str__(self) -> str:
        return (
            f"{self.relation}[{self.row_index}].{self.attribute}: "
            f"{self.old_value!r} -> {self.new_value!r} ({self.kind}, {self.cfd_id})"
        )


@dataclass
class RepairResult:
    """The repaired table plus the list of actions taken."""

    table: Table
    actions: list[RepairAction]

    @property
    def repaired_cells(self) -> int:
        """Number of cells changed."""
        return len(self.actions)

    def actions_of_kind(self, kind: str) -> list[RepairAction]:
        """Only violations or only imputations."""
        return [action for action in self.actions if action.kind == kind]


class CFDRepairer:
    """Applies CFDs (with witnesses) to repair a table."""

    def repair(
        self,
        table: Table,
        cfds: Iterable[CFD],
        *,
        witnesses: Mapping[str, Mapping[tuple, Any]] | None = None,
        provenance: ProvenanceStore | None = None,
    ) -> RepairResult:
        """Return a repaired copy of ``table`` and the actions performed.

        CFDs are applied in decreasing confidence order, each through its
        :class:`~repro.quality.cfd.CFDCheck` over the rows as rewritten so
        far; once a cell has been repaired by one CFD it is not touched again
        by a weaker one. With a
        provenance store each repaired cell records a lineage override: the
        current value no longer comes from the mapped source row but from
        the CFD (and its witness reference data) that rewrote it.
        """
        witnesses = witnesses or {}
        ordered = sorted(cfds, key=lambda cfd: (-cfd.confidence, -cfd.support, cfd.cfd_id))
        rows = [list(values) for values in table.tuples()]
        names = table.schema.attribute_names
        actions: list[RepairAction] = []
        touched: set[tuple[int, str]] = set()

        for cfd in ordered:
            check = CFDCheck(cfd, names, witnesses.get(cfd.cfd_id))
            rhs_position = check.rhs_position
            if rhs_position is None:
                continue
            for row_index, values in enumerate(rows):
                if (row_index, cfd.rhs) in touched or not check.applies(values):
                    continue
                expected = check.expected(values)
                if is_null(expected):
                    continue
                current = values[rhs_position]
                if is_null(current):
                    kind = "imputation"
                elif not _values_equal(current, expected):
                    kind = "violation"
                else:
                    continue
                values[rhs_position] = expected
                touched.add((row_index, cfd.rhs))
                actions.append(
                    RepairAction(
                        relation=table.name,
                        row_index=row_index,
                        attribute=cfd.rhs,
                        old_value=current,
                        new_value=expected,
                        cfd_id=cfd.cfd_id,
                        kind=kind,
                    )
                )
        repaired = table.replace_rows([tuple(values) for values in rows])
        if provenance is not None and provenance.enabled and actions:
            row_keys = table.row_keys()
            for action in actions:
                provenance.record_cell(
                    table.name,
                    row_keys[action.row_index],
                    action.attribute,
                    operator=OPERATOR_REPAIR,
                    witnesses=(),
                    detail=f"{action.cfd_id}:{action.kind}",
                )
        return RepairResult(table=repaired, actions=actions)
