"""Duplicate detection over wrangling results.

After the union of overlapping sources (Rightmove and Onthemarket list many
of the same properties), the result contains near-duplicate rows. The
detector blocks on a cheap key, scores candidate pairs with a per-attribute
similarity, and reports pairs above a threshold — the input the fusion
component needs (the paper mentions "a data fusion transducer may start to
evaluate when duplicates have been detected").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.fusion.blocking import candidate_blocks
from repro.matching.similarity import jaro_winkler_similarity
from repro.relational.schema import Schema
from repro.relational.table import Row, Table
from repro.relational.types import is_null

__all__ = [
    "DuplicatePair",
    "DuplicateDetectorConfig",
    "DuplicateDetector",
    "cluster_row_keys",
]


@dataclass(frozen=True)
class DuplicatePair:
    """Two row indexes judged to refer to the same real-world entity."""

    left_index: int
    right_index: int
    score: float

    def as_tuple(self) -> tuple[int, int]:
        """The pair as an (i, j) tuple with i < j."""
        return (min(self.left_index, self.right_index),
                max(self.left_index, self.right_index))


@dataclass(frozen=True)
class DuplicateDetectorConfig:
    """Tuning knobs of duplicate detection."""

    #: Attributes used for blocking (fall back to comparing all pairs when
    #: none of them exist in the table).
    blocking_attributes: tuple[str, ...] = ("postcode",)
    #: Attributes compared to score a candidate pair (missing ones ignored).
    #: Price and description are the discriminating attributes in the
    #: real-estate domain: two listings of the *same* property agree on them
    #: almost exactly, while different properties on the same street do not.
    comparison_attributes: tuple[str, ...] = (
        "street",
        "price",
        "bedrooms",
        "type",
        "description",
    )
    #: Pairs scoring at or above this are duplicates. The default is
    #: deliberately conservative: false merges (fusing two different
    #: properties) damage accuracy far more than missed duplicates damage
    #: conciseness.
    threshold: float = 0.92
    #: Relative tolerance for numeric attribute agreement.
    numeric_tolerance: float = 0.01
    #: Oversized blocks are skipped.
    max_block_size: int = 200


class DuplicateDetector:
    """Finds duplicate row pairs within one table."""

    #: The last (left schema, right schema) pair scored and the (left,
    #: right) positions of the comparison attributes both hold. Holding the
    #: schemas keeps the identity compare sound. A class default, so
    #: detectors unpickled from older checkpoints have it too.
    _positions: tuple = (None, None, ())

    def __init__(self, config: DuplicateDetectorConfig | None = None):
        self._config = config or DuplicateDetectorConfig()

    @property
    def config(self) -> DuplicateDetectorConfig:
        """The detector configuration."""
        return self._config

    def detect(self, table: Table) -> list[DuplicatePair]:
        """All duplicate pairs in ``table`` (row-index pairs with scores)."""
        threshold = self._config.threshold
        rows = table.rows()
        duplicates = []
        for left_index, right_index in self.candidates(table):
            score = self.pair_similarity(rows[left_index], rows[right_index])
            if score >= threshold:
                duplicates.append(DuplicatePair(left_index, right_index, round(score, 6)))
        return duplicates

    def candidates(
        self, table: Table, touching: Iterable[int] | None = None
    ) -> Iterator[tuple[int, int]]:
        """Row-index pairs ``(i, j)``, ``i < j``, that may reach the threshold.

        Pairs come block by block (see
        :func:`~repro.fusion.blocking.candidate_blocks`), ordered by ``i``
        then ``j`` within a block, as all-pairs enumeration orders them.
        Only pairs that provably score below the threshold are left out:
        with ``m`` comparison attributes in the schema, each scoring at most
        1, a pair reaches threshold ``t`` only if every attribute scores at
        least ``L = t·m − (m−1)``. On the first numeric comparison attribute
        a score of at least ``L`` needs a relative difference of at most
        ``max(1 − L, numeric_tolerance)`` — past the tolerance the score is
        ``1 − difference``, within it at least 0.5 — and NULL (0.5) rules a
        row out when ``L > 0.5``. :class:`_BlockIndex` turns that into
        sorted windows; every other pair is kept and scored. A subclass
        that changes the scoring must keep these facts or override this.

        With ``touching``, only the pairs with an endpoint among those row
        positions, in the same order, streamed without scanning all pairs:
        a touched row yields its later partners, any other row the touched
        rows after it that it may pair with.
        """
        config = self._config
        schema = table.schema
        blocking = [name for name in config.blocking_attributes if name in schema]
        blocks = candidate_blocks(table, blocking, max_block_size=config.max_block_size)
        compared = [name for name in config.comparison_attributes if name in schema]
        numeric = next((name for name in compared if schema.dtype(name).is_numeric), None)
        values, ratio, drop_nulls = [None] * len(table), None, False
        if numeric is not None:
            # The slack keeps pairs within float rounding of a bound (they
            # are scored, not dropped).
            floor = config.threshold * len(compared) - (len(compared) - 1) - _SLACK
            radius = max(1.0 - floor, config.numeric_tolerance) + _SLACK
            values = table.column(numeric)
            ratio = 1.0 - radius if radius < 1.0 else None
            drop_nulls = floor > 0.5
        touched = None if touching is None else set(touching)
        for members in blocks:
            if touched is not None and touched.isdisjoint(members):
                continue
            index = _BlockIndex(members, values, ratio, drop_nulls)
            if touched is None:
                for left in index.eligible:
                    for right in index.later_partners(left):
                        yield left, right
                continue
            targets = [member for member in index.eligible if member in touched]
            for left in index.eligible:
                if left in touched:
                    for right in index.later_partners(left):
                        yield left, right
                else:
                    for right in targets[bisect_right(targets, left) :]:
                        if index.may_pair(left, right):
                            yield left, right

    def pair_similarity(self, left: Row, right: Row) -> float:
        """Mean per-attribute similarity over the comparison attributes.

        Attributes missing from either schema are skipped; attributes where
        either side is NULL contribute a neutral 0.5 (absence of evidence).
        """
        left_schema, right_schema, positions = self._positions
        if left_schema is not left.schema or right_schema is not right.schema:
            positions = self._comparison_positions(left.schema, right.schema)
        left_values, right_values = left.values, right.values
        scores = []
        for left_position, right_position in positions:
            left_value, right_value = left_values[left_position], right_values[right_position]
            if is_null(left_value) or is_null(right_value):
                scores.append(0.5)
                continue
            scores.append(self._value_similarity(left_value, right_value))
        if not scores:
            return 0.0
        return sum(scores) / len(scores)

    def _comparison_positions(self, left: Schema, right: Schema) -> tuple[tuple[int, int], ...]:
        """The (left, right) positions of the comparison attributes that
        both schemas hold, in configuration order; remembered for the pair."""
        positions = tuple((left.position(name), right.position(name))
                          for name in self._config.comparison_attributes
                          if name in left and name in right)
        self._positions = (left, right, positions)
        return positions

    def _value_similarity(self, left, right) -> float:
        if _is_number(left) and _is_number(right):
            left_value, right_value = float(left), float(right)
            if left_value == right_value:
                return 1.0
            magnitude = max(abs(left_value), abs(right_value))
            if magnitude == 0:
                return 1.0
            difference = abs(left_value - right_value) / magnitude
            if difference <= self._config.numeric_tolerance:
                return 1.0 - difference / max(self._config.numeric_tolerance, 1e-9) * 0.5
            return max(0.0, 1.0 - difference)
        return jaro_winkler_similarity(str(left).strip().lower(), str(right).strip().lower())


#: Safety margin on the pruning bounds of :meth:`DuplicateDetector.candidates`.
_SLACK = 1e-9


def _is_number(value) -> bool:
    """Whether ``value`` is scored as a number (bools and strings are
    scored as strings)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _BlockIndex:
    """Which members of one block may pair, judged on one numeric attribute.

    ``ratio`` is ``1 − radius`` for the relative-difference radius of
    :meth:`DuplicateDetector.candidates` (``None``: no window). Same-sign
    magnitudes ``x ≤ y`` are within the radius when ``x ≥ y·ratio``, so a
    member's partners sit in a sorted window of its sign; opposite signs,
    and zero beside non-zero, differ by a relative 1 or more and score 0.
    NULLs pair with nobody when ``drop_nulls``; values compared as strings
    (strings, bools) pair with every eligible member.
    """

    def __init__(self, members: list[int], values: list, ratio: float | None, drop_nulls: bool):
        self.ratio = ratio
        #: Members that can pair at all, ascending.
        self.eligible: list[int] = []
        #: Eligible members that pair with every other eligible member.
        self.wild: list[int] = []
        #: Windowed members: member → (sign, magnitude).
        self.numbers: dict[int, tuple[int, float]] = {}
        lines: dict[int, list[tuple[float, int]]] = {}
        for member in members:
            value = values[member]
            if is_null(value):
                if drop_nulls:
                    continue
                self.wild.append(member)
            elif ratio is not None and _is_number(value):
                number = float(value)
                sign = (number > 0) - (number < 0)
                self.numbers[member] = (sign, abs(number))
                lines.setdefault(sign, []).append((abs(number), member))
            else:
                self.wild.append(member)
            self.eligible.append(member)
        #: sign → (sorted magnitudes, their members).
        self.lines: dict[int, tuple[list[float], list[int]]] = {}
        for sign, line in lines.items():
            line.sort()
            self.lines[sign] = ([pair[0] for pair in line], [pair[1] for pair in line])

    def _window(self, member: int) -> list[int]:
        """Windowed members whose magnitude may be close enough (incl. itself)."""
        sign, magnitude = self.numbers[member]
        magnitudes, owners = self.lines[sign]
        low = bisect_left(magnitudes, magnitude * self.ratio)
        high = bisect_right(magnitudes, magnitude / self.ratio)
        return owners[low:high]

    def may_pair(self, member: int, later: int) -> bool:
        """Whether the eligible ``later`` is among ``member``'s
        :meth:`later_partners` (the same window bounds, without the list)."""
        if member not in self.numbers or later not in self.numbers:
            return True
        sign, magnitude = self.numbers[member]
        other_sign, other = self.numbers[later]
        return sign == other_sign and magnitude * self.ratio <= other <= magnitude / self.ratio

    def later_partners(self, member: int) -> list[int]:
        """The partners with a higher row index, ascending."""
        if member not in self.numbers:
            return self.eligible[bisect_right(self.eligible, member) :]
        later = self.wild[bisect_right(self.wild, member) :]
        later += [other for other in self._window(member) if other > member]
        return sorted(later)


def cluster_pairs(pairs: Sequence[DuplicatePair], size: int) -> list[list[int]]:
    """Union-find clustering of duplicate pairs into entity clusters.

    Returns only clusters with at least two members; ``size`` is the number
    of rows in the underlying table.
    """
    parent = list(range(size))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(left: int, right: int) -> None:
        root_left, root_right = find(left), find(right)
        if root_left != root_right:
            parent[max(root_left, root_right)] = min(root_left, root_right)

    for pair in pairs:
        union(pair.left_index, pair.right_index)
    clusters: dict[int, list[int]] = {}
    for index in range(size):
        clusters.setdefault(find(index), []).append(index)
    return [sorted(members) for members in clusters.values() if len(members) > 1]


def cluster_row_keys(table: Table, pairs: Sequence[DuplicatePair]) -> list[list[str]]:
    """Duplicate clusters as stable row keys instead of positional indexes.

    Row keys (see :meth:`~repro.relational.table.Table.row_keys`) are what
    the provenance store and feedback annotations are keyed on, so this is
    the form lineage consumers want clusters in — positional indexes go
    stale as soon as fusion rewrites the table.
    """
    keys = table.row_keys()
    return [[keys[member] for member in members]
            for members in cluster_pairs(pairs, len(table))]
