"""Blocking: cheap candidate generation for duplicate detection.

Comparing every pair of rows is quadratic; blocking groups rows by a cheap
key (e.g. the postcode, or a normalised prefix of the street) so that only
rows sharing a block are compared. This is the standard first stage of
entity resolution and keeps duplicate detection tractable on the scenario's
source sizes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Sequence

from repro.relational.keys import normalise_key
from repro.relational.table import Row, Table

__all__ = ["block_by_attributes", "block_by_key_function", "candidate_blocks"]


def block_by_attributes(table: Table, attributes: Sequence[str]) -> dict[tuple, list[int]]:
    """Group row indexes by the normalised values of ``attributes``.

    Rows with NULL in any blocking attribute end up in their own singleton
    blocks (they can never be confidently matched on that key).
    """
    columns = [
        table.column(name) if name in table.schema else [None] * len(table)
        for name in attributes
    ]
    blocks: dict[tuple, list[int]] = defaultdict(list)
    for index in range(len(table)):
        key = tuple(normalise_key(column[index]) for column in columns)
        if any(part is None for part in key):
            blocks[("__null__", index)].append(index)
        else:
            blocks[key].append(index)
    return dict(blocks)


def block_by_key_function(
    table: Table, key_function: Callable[[Row], object]
) -> dict[object, list[int]]:
    """Group row indexes by an arbitrary key function."""
    blocks: dict[object, list[int]] = defaultdict(list)
    for index, row in enumerate(table.rows()):
        blocks[key_function(row)].append(index)
    return dict(blocks)


def candidate_blocks(
    table: Table, attributes: Sequence[str], *, max_block_size: int = 200
) -> list[list[int]]:
    """Groups of row indexes whose members are compared pairwise.

    With blocking ``attributes``: the blocks of :func:`block_by_attributes`
    in first-appearance order, minus singletons (NULL keys included) and
    oversized blocks — low-selectivity keys would dominate the runtime while
    contributing mostly non-duplicates. Without: the whole table is one
    group. Members are in ascending row order.
    """
    if not attributes:
        return [list(range(len(table)))]
    return [
        members
        for members in block_by_attributes(table, attributes).values()
        if 2 <= len(members) <= max_block_size
    ]
