"""Data profiling: the statistics quality components are built on.

Profiling discovers per-column statistics (null fractions, distinct counts),
candidate keys, functional dependencies and inclusion dependencies. The CFD
learner uses the FD search; mapping generation uses inclusion dependencies
to decide whether two sources should be unioned or joined.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from repro.relational.table import Table
from repro.relational.types import is_null

__all__ = [
    "ColumnProfile",
    "profile_column",
    "profile_table",
    "candidate_keys",
    "functional_dependency_confidence",
    "discover_functional_dependencies",
    "value_overlap",
]


@dataclass(frozen=True)
class ColumnProfile:
    """Summary statistics of one column."""

    relation: str
    attribute: str
    row_count: int
    null_count: int
    distinct_count: int

    @property
    def completeness(self) -> float:
        """Fraction of non-null values."""
        if self.row_count == 0:
            return 1.0
        return 1.0 - self.null_count / self.row_count

    @property
    def uniqueness(self) -> float:
        """Distinct values over non-null values (1.0 for a key column)."""
        present = self.row_count - self.null_count
        if present == 0:
            return 0.0
        return self.distinct_count / present


def profile_column(table: Table, attribute: str) -> ColumnProfile:
    """Profile one column of ``table``."""
    values = table.column(attribute)
    nulls = sum(1 for value in values if is_null(value))
    distinct = len({value for value in values if not is_null(value)})
    return ColumnProfile(table.name, attribute, len(values), nulls, distinct)


def profile_table(table: Table) -> dict[str, ColumnProfile]:
    """Profile every column of ``table``."""
    return {
        attribute: profile_column(table, attribute) for attribute in table.schema.attribute_names
    }


def candidate_keys(table: Table, *, max_size: int = 2) -> list[tuple[str, ...]]:
    """Attribute combinations whose values uniquely identify rows.

    Only combinations up to ``max_size`` attributes are explored (minimal
    keys only: a superset of a discovered key is not reported).
    """
    names = table.schema.attribute_names
    found: list[tuple[str, ...]] = []
    rows = table.tuples()
    for size in range(1, max_size + 1):
        for combo in combinations(names, size):
            if any(set(existing) <= set(combo) for existing in found):
                continue
            positions = [table.schema.position(name) for name in combo]
            seen = set()
            unique = True
            for values in rows:
                key = tuple(values[p] for p in positions)
                if any(is_null(part) for part in key) or key in seen:
                    unique = False
                    break
                seen.add(key)
            if unique and rows:
                found.append(combo)
    return found


def functional_dependency_confidence(table: Table, lhs: Sequence[str], rhs: str) -> float:
    """Confidence of the FD ``lhs → rhs`` in ``table``.

    Confidence is the fraction of rows that would remain if, for every LHS
    value, only the most frequent RHS value were kept (1.0 = exact FD).
    Rows with NULL in LHS or RHS are ignored.
    """
    lhs_positions = [table.schema.position(name) for name in lhs]
    rhs_position = table.schema.position(rhs)
    groups: dict[tuple, dict] = defaultdict(lambda: defaultdict(int))
    considered = 0
    for values in table.tuples():
        key = tuple(values[p] for p in lhs_positions)
        value = values[rhs_position]
        if any(is_null(part) for part in key) or is_null(value):
            continue
        groups[key][value] += 1
        considered += 1
    if considered == 0:
        return 0.0
    kept = sum(max(counts.values()) for counts in groups.values())
    return kept / considered


def discover_functional_dependencies(
    table: Table, *, min_confidence: float = 0.98, max_lhs_size: int = 2
) -> list[tuple[tuple[str, ...], str, float]]:
    """Approximate FDs ``lhs → rhs`` with confidence above ``min_confidence``.

    Trivial dependencies (rhs ∈ lhs) and dependencies whose LHS is a
    superset of an already-discovered LHS for the same RHS are skipped.
    """
    names = table.schema.attribute_names
    discovered: list[tuple[tuple[str, ...], str, float]] = []
    for rhs in names:
        minimal_lhs: list[tuple[str, ...]] = []
        for size in range(1, max_lhs_size + 1):
            for combo in combinations([n for n in names if n != rhs], size):
                if any(set(existing) <= set(combo) for existing in minimal_lhs):
                    continue
                confidence = functional_dependency_confidence(table, combo, rhs)
                if confidence >= min_confidence:
                    minimal_lhs.append(combo)
                    discovered.append((combo, rhs, confidence))
    return discovered


def value_overlap(
    source: Table, source_attribute: str, target: Table, target_attribute: str
) -> float:
    """Fraction of distinct source values contained in the target column."""
    source_values = source.distinct_values(source_attribute)
    if not source_values:
        return 0.0
    target_values = target.distinct_values(target_attribute)
    return len(source_values & target_values) / len(source_values)
