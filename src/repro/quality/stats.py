"""Quality metrics as mergeable sufficient statistics.

Paper §2.3: "the completeness of the crimerank attribute can be estimated as
the fraction of non-null values", while "determining the consistency of the
property table needs additional information" — CFDs learned from reference
data. Accuracy is measured against reference/master/ground-truth data, and
relevance as coverage of the entities the user cares about (master data).
Every score lies in [0, 1]; higher is better.

Each criterion is a *decomposable aggregate*: the score of a table is a pure
function of per-row contributions that add (and subtract) independently.
This module captures those contributions as picklable accumulators —
per-attribute null/row counts for completeness, checked/correct counters
over a keyed reference index for accuracy, per-CFD checkable/violation
counters for consistency, and a covered-key multiset over the master-key
set for relevance — so the feedback loop can *patch* a metric report when a
handful of rows change instead of rescanning the whole table (the standard
self-maintainable-view trick from incremental view maintenance, applied to
the data-quality layer).

:func:`build_stats` is the one whole-table build, and
``build_stats(table, ...).finalise()`` scores a table. Contract: for any
sequence of ``add_row`` / ``remove_row`` / ``replace_row`` calls that ends
in row multiset *R*, ``finalise()`` is **bit-identical** to that score over
a table holding *R*; the property tests in ``tests/test_quality_stats.py``
check the equality over random tables and random deltas. ``merge`` combines
accumulators built over disjoint row sets (associatively): candidate
scoring finalises a union mapping from the merge of its leaves' statistics
(:class:`repro.mapping.selection.LeafStatsCache`).

:class:`MetricContext` holds the data context a relation is scored against
and turns it into the :func:`build_stats` arguments for a row layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.quality.cfd import CFD, CFDCheck
from repro.relational.keys import normalise_key_tuple
from repro.relational.table import Table
from repro.relational.types import is_null

__all__ = [
    "QualityReport",
    "CompletenessStats",
    "AccuracyStats",
    "ConsistencyStats",
    "RelevanceStats",
    "AnswerAgreementStats",
    "QualityStats",
    "MetricContext",
    "build_stats",
    "build_reference_index",
    "build_master_keys",
    "cell_equal",
]


def build_reference_index(reference: Table, key: Sequence[str]) -> dict[tuple, dict[str, Any]]:
    """Normalised key tuple → reference row (first occurrence wins)."""
    reference_index: dict[tuple, dict[str, Any]] = {}
    for row in reference.rows():
        index_key = normalise_key_tuple(row[k] for k in key)
        if any(part is None for part in index_key):
            continue
        reference_index.setdefault(index_key, row.to_dict())
    return reference_index


def build_master_keys(master: Table, key: Sequence[str]) -> frozenset:
    """The master table's normalised key set (NULL-bearing keys excluded)."""
    master_keys = set()
    for row in master.rows():
        master_key = normalise_key_tuple(row.get(k) for k in key)
        if any(part is None for part in master_key):
            continue
        master_keys.add(master_key)
    return frozenset(master_keys)


def cell_equal(left: Any, right: Any) -> bool:
    """Accuracy's comparison of two non-NULL cells.

    Trimmed case-folded strings, numbers within 1e-9. Callers skip NULLs
    (a missing value is completeness's concern, not accuracy's).
    """
    if isinstance(left, str) and isinstance(right, str):
        return left.strip().lower() == right.strip().lower()
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return abs(float(left) - float(right)) < 1e-9
    return left == right


def _positions(row_names: Sequence[str], wanted: Iterable[str]) -> tuple[int | None, ...]:
    """Position of each wanted attribute in the row layout (None = absent).

    Absent attributes contribute NULL, mirroring ``row.get(name)`` in the
    scan implementations.
    """
    index = {name: position for position, name in enumerate(row_names)}
    return tuple(index.get(name) for name in wanted)


class _Mismatch(ValueError):
    """Two accumulators with different configurations cannot merge."""


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise _Mismatch(f"cannot merge quality stats: {what} differ")


@dataclass
class CompletenessStats:
    """Per-attribute null and row counts.

    ``row_names`` is the full attribute layout of incoming row tuples;
    ``attributes`` the subset actually scored (bookkeeping ``_``-prefixed
    columns are excluded by the builders).
    """

    row_names: tuple[str, ...]
    attributes: tuple[str, ...]
    row_count: int = 0
    null_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in self.attributes:
            self.null_counts.setdefault(name, 0)
        self._tracked = tuple(
            (name, position)
            for name, position in zip(self.attributes, _positions(self.row_names, self.attributes))
            if position is not None
        )

    def __getstate__(self):
        return {
            "row_names": self.row_names,
            "attributes": self.attributes,
            "row_count": self.row_count,
            "null_counts": self.null_counts,
        }

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def add_row(self, values: Sequence[Any]) -> None:
        """Count one row's contribution."""
        self._count(values, 1)

    def remove_row(self, values: Sequence[Any]) -> None:
        """Retract one previously added row's contribution."""
        self._count(values, -1)

    def _count(self, values: Sequence[Any], sign: int) -> None:
        self.row_count += sign
        counts = self.null_counts
        for name, position in self._tracked:
            if is_null(values[position]):
                counts[name] += sign

    def merge(self, other: "CompletenessStats") -> None:
        """Fold another shard's counters into this one."""
        _require(self.row_names == other.row_names, "row layouts")
        _require(self.attributes == other.attributes, "completeness attributes")
        self.row_count += other.row_count
        for name, count in other.null_counts.items():
            self.null_counts[name] = self.null_counts.get(name, 0) + count

    def attribute_completeness(self, attribute: str) -> float:
        """Fraction of non-null values in one tracked attribute."""
        if self.row_count == 0:
            return 0.0
        return 1.0 - self.null_counts[attribute] / self.row_count

    def score(self, weights: Mapping[str, float] | None = None) -> float:
        """(Weighted) mean completeness over the tracked attributes."""
        names = self.attributes
        if not names:
            return 0.0
        if weights:
            total_weight = sum(weights.get(name, 0.0) for name in names)
            if total_weight > 0:
                weighted = sum(
                    self.attribute_completeness(name) * weights.get(name, 0.0) for name in names
                )
                return weighted / total_weight
        return sum(self.attribute_completeness(name) for name in names) / len(names)


@dataclass
class AccuracyStats:
    """Checked/correct cell counters over a keyed reference index."""

    row_names: tuple[str, ...]
    key: tuple[str, ...]
    #: Attributes compared against the reference (empty → uninformative 0.0).
    names: tuple[str, ...]
    #: Normalised key tuple → reference row (first occurrence wins).
    reference_index: dict[tuple, dict[str, Any]]
    checked: int = 0
    correct: int = 0

    def __post_init__(self) -> None:
        self._key_positions = _positions(self.row_names, self.key)
        self._name_positions = _positions(self.row_names, self.names)

    def __getstate__(self):
        return {
            "row_names": self.row_names,
            "key": self.key,
            "names": self.names,
            "reference_index": self.reference_index,
            "checked": self.checked,
            "correct": self.correct,
        }

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    @classmethod
    def from_reference(
        cls,
        row_names: Sequence[str],
        reference: Table,
        key: Sequence[str],
        attributes: Sequence[str] | None = None,
        *,
        reference_index: dict[tuple, dict[str, Any]] | None = None,
    ) -> "AccuracyStats":
        """Build (or adopt) the keyed reference index; counters start at zero.

        ``reference_index`` lets callers that evaluate many relations
        against one reference share a single index (it depends only on the
        reference table and the key, never on the evaluated relation).
        """
        row_names = tuple(row_names)
        key = tuple(key)
        shared = [
            name
            for name in row_names
            if name in reference.schema and name not in key and not name.startswith("_")
        ]
        names = tuple(
            name
            for name in (attributes if attributes is not None else shared)
            if name in reference.schema
        )
        if reference_index is None:
            # No comparable attributes → the value is 0.0 whatever the index
            # holds; skip the O(|reference|) build entirely.
            reference_index = build_reference_index(reference, key) if names else {}
        return cls(row_names=row_names, key=key, names=names, reference_index=reference_index)

    def _contribution(self, values: Sequence[Any]) -> tuple[int, int]:
        """(checked, correct) cells this row contributes."""
        index_key = normalise_key_tuple(
            values[position] if position is not None else None
            for position in self._key_positions
        )
        if any(part is None for part in index_key):
            return 0, 0
        expected_row = self.reference_index.get(index_key)
        if expected_row is None:
            return 0, 0
        checked = 0
        correct = 0
        for name, position in zip(self.names, self._name_positions):
            expected = expected_row.get(name)
            if is_null(expected):
                continue
            actual = values[position] if position is not None else None
            if is_null(actual):
                # Missing values are completeness's concern, not accuracy's.
                continue
            checked += 1
            if cell_equal(actual, expected):
                correct += 1
        return checked, correct

    def add_row(self, values: Sequence[Any]) -> None:
        """Count one row's contribution."""
        checked, correct = self._contribution(values)
        self.checked += checked
        self.correct += correct

    def remove_row(self, values: Sequence[Any]) -> None:
        """Retract one previously added row's contribution."""
        checked, correct = self._contribution(values)
        self.checked -= checked
        self.correct -= correct

    def merge(self, other: "AccuracyStats") -> None:
        """Fold another shard's counters into this one."""
        _require(self.row_names == other.row_names, "row layouts")
        _require(self.key == other.key, "accuracy keys")
        _require(self.names == other.names, "accuracy attributes")
        self.checked += other.checked
        self.correct += other.correct

    def value(self) -> float:
        """Fraction of checked cells agreeing with the reference."""
        if not self.names:
            return 0.0
        if self.checked == 0:
            return 0.0
        return self.correct / self.checked


@dataclass
class ConsistencyStats:
    """Per-CFD checkable and violation counters (with witness indexes).

    Each CFD is evaluated by its :class:`~repro.quality.cfd.CFDCheck` over
    ``row_names``, the check the repairer runs too: a row in a CFD's scope
    adds a checkable cell, and a violation when it does not satisfy the
    CFD. The checks are rebuilt from the pickled fields on load.
    """

    row_names: tuple[str, ...]
    cfds: tuple[CFD, ...]
    #: cfd_id → witness index, as produced by the CFD learner.
    witnesses: dict[str, dict]
    row_count: int = 0
    #: Counters aligned positionally with ``cfds`` (ids may not be unique
    #: for arbitrary caller-supplied dependency lists).
    checkable: list[int] = field(default_factory=list)
    violations: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.checkable:
            self.checkable = [0] * len(self.cfds)
        if not self.violations:
            self.violations = [0] * len(self.cfds)
        self._checks = tuple(
            CFDCheck(cfd, self.row_names, self.witnesses.get(cfd.cfd_id)) for cfd in self.cfds
        )

    def __getstate__(self):
        return {
            "row_names": self.row_names,
            "cfds": self.cfds,
            "witnesses": self.witnesses,
            "row_count": self.row_count,
            "checkable": self.checkable,
            "violations": self.violations,
        }

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    def add_row(self, values: Sequence[Any]) -> None:
        """Count one row's contribution."""
        self._count(values, 1)

    def remove_row(self, values: Sequence[Any]) -> None:
        """Retract one previously added row's contribution."""
        self._count(values, -1)

    def _count(self, values: Sequence[Any], sign: int) -> None:
        self.row_count += sign
        for position, check in enumerate(self._checks):
            if check.applies(values):
                self.checkable[position] += sign
                if not check.satisfied(values):
                    self.violations[position] += sign

    def merge(self, other: "ConsistencyStats") -> None:
        """Fold another shard's counters into this one."""
        _require(self.row_names == other.row_names, "row layouts")
        _require(self.cfds == other.cfds, "CFD lists")
        self.row_count += other.row_count
        for position in range(len(self.cfds)):
            self.checkable[position] += other.checkable[position]
            self.violations[position] += other.violations[position]

    def value(self) -> float:
        """1 − (violating cells / checkable cells), 1.0 when nothing checks."""
        if not self.cfds or self.row_count == 0:
            return 1.0
        total_checkable = sum(self.checkable)
        if total_checkable == 0:
            return 1.0
        return max(0.0, 1.0 - sum(self.violations) / total_checkable)


@dataclass
class RelevanceStats:
    """Master-key set plus a multiset of covered keys.

    Coverage must survive removals exactly, so covered keys carry a count
    of contributing rows — a key stays covered while any row still
    provides it.
    """

    row_names: tuple[str, ...]
    key: tuple[str, ...]
    #: Rows in the master table (the empty-master → 1.0 rule needs it).
    master_rows: int
    master_keys: frozenset
    covered: dict[tuple, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._key_positions = _positions(self.row_names, self.key)

    def __getstate__(self):
        return {
            "row_names": self.row_names,
            "key": self.key,
            "master_rows": self.master_rows,
            "master_keys": self.master_keys,
            "covered": self.covered,
        }

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    @classmethod
    def from_master(
        cls,
        row_names: Sequence[str],
        master: Table,
        key: Sequence[str],
        *,
        master_keys: frozenset | None = None,
    ) -> "RelevanceStats":
        """Build (or adopt) the master-key set; the covered multiset starts empty."""
        key = tuple(key)
        if master_keys is None:
            master_keys = build_master_keys(master, key)
        return cls(
            row_names=tuple(row_names),
            key=key,
            master_rows=len(master),
            master_keys=master_keys,
        )

    def _row_key(self, values: Sequence[Any]) -> tuple:
        return normalise_key_tuple(
            values[position] if position is not None else None
            for position in self._key_positions
        )

    def add_row(self, values: Sequence[Any]) -> None:
        """Count one row's contribution."""
        row_key = self._row_key(values)
        if row_key in self.master_keys:
            self.covered[row_key] = self.covered.get(row_key, 0) + 1

    def remove_row(self, values: Sequence[Any]) -> None:
        """Retract one previously added row's contribution."""
        row_key = self._row_key(values)
        if row_key in self.master_keys:
            remaining = self.covered.get(row_key, 0) - 1
            if remaining > 0:
                self.covered[row_key] = remaining
            else:
                self.covered.pop(row_key, None)

    def merge(self, other: "RelevanceStats") -> None:
        """Fold another shard's covered multiset into this one."""
        _require(self.row_names == other.row_names, "row layouts")
        _require(self.key == other.key, "relevance keys")
        _require(self.master_keys == other.master_keys, "master key sets")
        self.master_rows = max(self.master_rows, other.master_rows)
        for row_key, count in other.covered.items():
            self.covered[row_key] = self.covered.get(row_key, 0) + count

    def value(self) -> float:
        """Fraction of master entities covered."""
        if self.master_rows == 0:
            return 1.0
        if not self.master_keys:
            return 1.0
        return len(self.covered) / len(self.master_keys)


@dataclass
class AnswerAgreementStats:
    """Certain-vs-repaired answer agreement across a query workload.

    Unlike the row-fed accumulators this one is fed by
    ``Wrangler.query(mode="both")`` observations: per query it keeps the
    Jaccard sufficient statistic (``|certain ∩ repaired|``,
    ``|certain ∪ repaired|``) keyed by the query text, so re-running a
    workload after feedback *replaces* a query's contribution instead of
    double-counting it. The value is the micro-averaged overlap — low
    agreement flags queries whose answers still hinge on unrepaired
    conflicts, which is exactly where the pay-as-you-go loop should spend
    its next feedback budget.
    """

    #: Query text → (intersection size, union size).
    entries: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def queries(self) -> int:
        """Number of distinct queries observed."""
        return len(self.entries)

    def observe(
        self, query: str, certain: Iterable[tuple], repaired: Iterable[tuple]
    ) -> None:
        """Record (or refresh) one query's certain and repaired answers."""
        certain_set = {tuple(row) for row in certain}
        repaired_set = {tuple(row) for row in repaired}
        self.entries[query] = (
            len(certain_set & repaired_set),
            len(certain_set | repaired_set),
        )

    def merge(self, other: "AnswerAgreementStats") -> None:
        """Adopt another accumulator's observations (theirs win on overlap)."""
        self.entries.update(other.entries)

    def value(self) -> float:
        """Micro-averaged Jaccard agreement; 1.0 with nothing observed."""
        if not self.entries:
            return 1.0
        agree = sum(intersection for intersection, _union in self.entries.values())
        total = sum(union for _intersection, union in self.entries.values())
        if total == 0:
            # Every query returned no answers in either mode: full agreement.
            return 1.0
        return agree / total


@dataclass
class QualityReport:
    """Per-criterion scores for one table (plus per-attribute completeness)."""

    relation: str
    completeness: float
    accuracy: float
    consistency: float
    relevance: float
    attribute_completeness: dict[str, float] = field(default_factory=dict)
    row_count: int = 0
    #: Certain-vs-repaired answer agreement over a query workload; ``None``
    #: until ``Wrangler.query(mode="both")`` has observed any queries.
    answer_agreement: float | None = None

    def overall(self, weights: Mapping[str, float] | None = None) -> float:
        """Weighted overall score (uniform weights when none are given)."""
        scores = {
            "completeness": self.completeness,
            "accuracy": self.accuracy,
            "consistency": self.consistency,
            "relevance": self.relevance,
        }
        if not weights:
            return sum(scores.values()) / len(scores)
        total = sum(weights.get(name, 0.0) for name in scores)
        if total <= 0:
            return sum(scores.values()) / len(scores)
        return sum(scores[name] * weights.get(name, 0.0) for name in scores) / total

    def as_dict(self) -> dict[str, float]:
        """The criterion scores as a dictionary.

        ``answer_agreement`` appears only once observed, so consumers of
        the four classic criteria are unaffected."""
        scores = {
            "completeness": self.completeness,
            "accuracy": self.accuracy,
            "consistency": self.consistency,
            "relevance": self.relevance,
        }
        if self.answer_agreement is not None:
            scores["answer_agreement"] = self.answer_agreement
        return scores


@dataclass
class QualityStats:
    """The four criterion accumulators for one relation, as one unit.

    ``accuracy`` / ``relevance`` are None when the corresponding data
    context is unavailable; :meth:`finalise` then reports the neutral 0.5,
    following the paper's point that some metrics *cannot be determined*
    without data context. Consistency without CFDs is 1.0 (there is
    nothing to violate).
    """

    relation: str
    attribute_names: tuple[str, ...]
    completeness: CompletenessStats
    consistency: ConsistencyStats
    accuracy: AccuracyStats | None = None
    relevance: RelevanceStats | None = None
    completeness_weights: dict[str, float] | None = None
    #: Query-workload agreement; attached lazily by ``Wrangler.query`` —
    #: row-fed paths never create or touch it, keeping ``finalise`` on the
    #: four classic criteria a pure function of the rows.
    answer_agreement: AnswerAgreementStats | None = None

    @property
    def row_count(self) -> int:
        """Rows currently reflected in the accumulators."""
        return self.completeness.row_count

    @classmethod
    def for_schema(
        cls,
        schema,
        *,
        relation: str | None = None,
        reference: Table | None = None,
        reference_key: Sequence[str] = (),
        cfds: Iterable[CFD] = (),
        witnesses: Mapping[str, Mapping[tuple, Any]] | None = None,
        master: Table | None = None,
        master_key: Sequence[str] = (),
        completeness_weights: Mapping[str, float] | None = None,
        reference_index: dict[tuple, dict[str, Any]] | None = None,
        master_keys: frozenset | None = None,
    ) -> "QualityStats":
        """Empty accumulators for tables shaped like ``schema``.

        ``reference_index`` / ``master_keys`` adopt prebuilt context indexes
        (see :func:`build_reference_index` / :func:`build_master_keys`) so
        one evaluation context can be shared across many relations' stats.
        """
        names = tuple(schema.attribute_names)
        tracked = tuple(name for name in names if not name.startswith("_"))
        accuracy = None
        if reference is not None and reference_key:
            accuracy = AccuracyStats.from_reference(
                names, reference, tuple(reference_key), reference_index=reference_index
            )
        relevance = None
        if master is not None and master_key:
            relevance = RelevanceStats.from_master(
                names, master, tuple(master_key), master_keys=master_keys
            )
        return cls(
            relation=relation if relation is not None else schema.name,
            attribute_names=names,
            completeness=CompletenessStats(row_names=names, attributes=tracked),
            consistency=ConsistencyStats(
                row_names=names, cfds=tuple(cfds), witnesses=dict(witnesses or {})
            ),
            accuracy=accuracy,
            relevance=relevance,
            completeness_weights=dict(completeness_weights) if completeness_weights else None,
        )

    # -- the accumulator interface -------------------------------------------

    def add_row(self, values: Sequence[Any]) -> None:
        """Add one row's contribution to every criterion."""
        self.completeness.add_row(values)
        self.consistency.add_row(values)
        if self.accuracy is not None:
            self.accuracy.add_row(values)
        if self.relevance is not None:
            self.relevance.add_row(values)

    def remove_row(self, values: Sequence[Any]) -> None:
        """Retract one previously added row from every criterion."""
        self.completeness.remove_row(values)
        self.consistency.remove_row(values)
        if self.accuracy is not None:
            self.accuracy.remove_row(values)
        if self.relevance is not None:
            self.relevance.remove_row(values)

    def replace_row(self, old_values: Sequence[Any], new_values: Sequence[Any]) -> None:
        """Swap one row's contribution for another's."""
        if tuple(old_values) == tuple(new_values):
            return
        self.remove_row(old_values)
        self.add_row(new_values)

    def add_table(self, table: Table) -> None:
        """Add every row of ``table``."""
        for values in table.tuples():
            self.add_row(values)

    def merge(self, other: "QualityStats") -> None:
        """Fold another shard's accumulators into this one (associative)."""
        _require(self.attribute_names == other.attribute_names, "row layouts")
        _require(
            (self.accuracy is None) == (other.accuracy is None), "accuracy configurations"
        )
        _require(
            (self.relevance is None) == (other.relevance is None), "relevance configurations"
        )
        _require(
            self.completeness_weights == other.completeness_weights, "completeness weights"
        )
        self.completeness.merge(other.completeness)
        self.consistency.merge(other.consistency)
        if self.accuracy is not None and other.accuracy is not None:
            self.accuracy.merge(other.accuracy)
        if self.relevance is not None and other.relevance is not None:
            self.relevance.merge(other.relevance)
        if other.answer_agreement is not None:
            if self.answer_agreement is None:
                self.answer_agreement = AnswerAgreementStats(
                    entries=dict(other.answer_agreement.entries)
                )
            else:
                self.answer_agreement.merge(other.answer_agreement)

    # -- finalisation ---------------------------------------------------------

    def finalise(self) -> QualityReport:
        """Derive the :class:`QualityReport`.

        Bit-identical to ``build_stats(...).finalise()`` over the row
        multiset the accumulators currently reflect (the checked contract).
        """
        completeness_by_attribute = {
            name: self.completeness.attribute_completeness(name)
            for name in self.completeness.attributes
        }
        return QualityReport(
            relation=self.relation,
            completeness=self.completeness.score(weights=self.completeness_weights),
            accuracy=self.accuracy.value() if self.accuracy is not None else 0.5,
            consistency=self.consistency.value(),
            relevance=self.relevance.value() if self.relevance is not None else 0.5,
            attribute_completeness=completeness_by_attribute,
            row_count=self.completeness.row_count,
            answer_agreement=(
                self.answer_agreement.value()
                if self.answer_agreement is not None
                else None
            ),
        )


def build_stats(
    table: Table,
    *,
    reference: Table | None = None,
    reference_key: Sequence[str] = (),
    cfds: Iterable[CFD] = (),
    witnesses: Mapping[str, Mapping[tuple, Any]] | None = None,
    master: Table | None = None,
    master_key: Sequence[str] = (),
    completeness_weights: Mapping[str, float] | None = None,
    reference_index: dict[tuple, dict[str, Any]] | None = None,
    master_keys: frozenset | None = None,
) -> QualityStats:
    """Accumulate ``table``'s rows into fresh :class:`QualityStats`.

    ``build_stats(table, ...).finalise()`` is the table's
    :class:`QualityReport`; callers that patch the report later keep the
    stats instead.
    """
    stats = QualityStats.for_schema(
        table.schema,
        relation=table.name,
        reference=reference,
        reference_key=reference_key,
        cfds=cfds,
        witnesses=witnesses,
        master=master,
        master_key=master_key,
        completeness_weights=completeness_weights,
        reference_index=reference_index,
        master_keys=master_keys,
    )
    stats.add_table(table)
    return stats


@dataclass
class MetricContext:
    """The data context a relation's quality is scored against.

    The learned CFDs with their witnesses, the reference table with the key
    accuracy joins on, and the master table with the key relevance covers.
    The keyed reference index and the master-key set depend only on a
    context table and a key, never on the relation scored: the context
    keeps each one that :meth:`build` makes (inside :func:`build_stats`) and
    passes it to every later build, so each is built once per key.
    """

    cfds: Sequence[CFD] = ()
    witnesses: Mapping[str, Mapping[tuple, Any]] = field(default_factory=dict)
    reference: Table | None = None
    reference_key: Sequence[str] = ()
    master: Table | None = None
    master_key: Sequence[str] = ()
    #: Join key → the reference index / master-key set built for it so far.
    reference_indexes: dict[tuple, dict[tuple, dict[str, Any]]] = field(default_factory=dict)
    master_key_sets: dict[tuple, frozenset] = field(default_factory=dict)

    def stats_arguments(self, schema) -> dict[str, Any]:
        """The :func:`build_stats` arguments for rows laid out as ``schema``.

        Each join key keeps the attributes the layout has (accuracy or
        relevance without one is not measured), and the CFDs those whose
        right-hand side it has.
        """
        reference_key = tuple(k for k in self.reference_key if k in schema)
        master_key = tuple(k for k in self.master_key if k in schema)
        return {
            "reference": self.reference if reference_key else None,
            "reference_key": reference_key,
            "cfds": [cfd for cfd in self.cfds if cfd.rhs in schema],
            "witnesses": self.witnesses,
            "master": self.master if master_key else None,
            "master_key": master_key,
            "reference_index": self.reference_indexes.get(reference_key),
            "master_keys": self.master_key_sets.get(master_key),
        }

    def build(
        self, table: Table, *, completeness_weights: Mapping[str, float] | None = None
    ) -> QualityStats:
        """:func:`build_stats` over ``table`` in this context."""
        stats = build_stats(
            table,
            **self.stats_arguments(table.schema),
            completeness_weights=completeness_weights,
        )
        # An accuracy criterion that compares no attribute skipped the index
        # build and holds an empty one: only a real index is kept.
        if stats.accuracy is not None and stats.accuracy.names:
            self.reference_indexes.setdefault(stats.accuracy.key, stats.accuracy.reference_index)
        if stats.relevance is not None:
            self.master_key_sets.setdefault(stats.relevance.key, stats.relevance.master_keys)
        return stats
