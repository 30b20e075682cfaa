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
from repro.quality.cfd import CFD, CFDCheck, _values_equal, group_checks
from repro.relational.table import Table
from repro.relational.types import is_null

__all__ = ["RepairAction", "RepairResult", "CFDRepairer"]

#: A row's LHS state in a group, besides its normalised key: a NULL LHS
#: value, or none NULL with the key not computed yet.
_NULL = object()
_IN_SCOPE = object()


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
        by a weaker one. The checks over one LHS share each row's NULL test
        and normalised LHS key (:func:`~repro.quality.cfd.group_checks`);
        when a CFD rewrites a cell that a group's LHS reads, that row's key
        in the group is computed again for the weaker CFDs. With a
        provenance store each repaired cell records a lineage override: the
        current value no longer comes from the mapped source row but from
        the CFD (and its witness reference data) that rewrote it.
        """
        witnesses = witnesses or {}
        ordered = sorted(cfds, key=lambda cfd: (-cfd.confidence, -cfd.support, cfd.cfd_id))
        names = table.schema.attribute_names
        checks = [CFDCheck(cfd, names, witnesses.get(cfd.cfd_id)) for cfd in ordered]
        groups = group_checks(checks)
        group_of = {index: group for group in groups for index, _check in group.members}
        # The checks that can rewrite a cell, in confidence order, each with
        # its group and the groups whose LHS reads the cell it rewrites.
        plan = []
        for index, check in enumerate(checks):
            rhs_position = check.rhs_position
            if index in group_of and rhs_position is not None:
                readers = [group for group in groups if rhs_position in group.positions]
                plan.append((index, check, group_of[index], readers))
        # Repairs are row-local: each row goes through the checks in
        # confidence order, and the actions are reported check by check.
        found: list[list[RepairAction]] = [[] for _ in checks]
        rows = table.tuples()
        for row_index, values in enumerate(rows):
            # Group → _NULL, _IN_SCOPE or the row's normalised LHS key; a
            # rewrite of a cell the group's LHS reads drops it.
            lhs_of: dict = {}
            rewritten: set[int] = set()
            for index, check, group, readers in plan:
                rhs_position = check.rhs_position
                if rhs_position in rewritten:
                    continue
                lhs = lhs_of.get(group)
                if lhs is None:
                    lhs = lhs_of[group] = _NULL if group.null(values) else _IN_SCOPE
                if lhs is _NULL or not check.matches(values):
                    continue
                if lhs is _IN_SCOPE and check.reads_witness:
                    lhs = lhs_of[group] = group.key(values)
                expected = check.expected_at(lhs)
                if is_null(expected):
                    continue
                current = values[rhs_position]
                if is_null(current):
                    kind = "imputation"
                elif not _values_equal(current, expected):
                    kind = "violation"
                else:
                    continue
                if not rewritten:
                    values = list(values)
                values[rhs_position] = expected
                rewritten.add(rhs_position)
                for reader in readers:
                    lhs_of.pop(reader, None)
                found[index].append(
                    RepairAction(
                        relation=table.name,
                        row_index=row_index,
                        attribute=check.cfd.rhs,
                        old_value=current,
                        new_value=expected,
                        cfd_id=check.cfd.cfd_id,
                        kind=kind,
                    )
                )
            if rewritten:
                rows[row_index] = tuple(values)
        actions = [action for bucket in found for action in bucket]
        repaired = table.replace_rows(rows)
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
