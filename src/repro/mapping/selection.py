"""Mapping scoring and multi-criteria mapping selection.

Table 1: "Mapping Selection — Quality Metrics". Candidate mappings are
scored on the four quality criteria by materialising them and evaluating the
result (against whatever data context is available); selection then combines
the criterion scores using the weights derived from the user context (AHP)
— "the pairwise comparisons are used to derive weights that inform the
selection of mappings based on multi-dimensional optimization" (§3 step 4).
Without a user context, criteria are weighted uniformly.

Scoring additionally applies a cross-candidate *coverage prior* (how much of
the target schema, and how many rows relative to the best candidate, a
mapping produces) and decrements the confidence of mappings implicated by
lineage-targeted feedback (see :mod:`repro.provenance.feedback`).

Re-scoring in the pay-as-you-go loop keeps the quality statistics of each
leaf (direct or join) mapping in a :class:`LeafStatsCache`, so a re-score
executes only the leaves, or the appended rows, whose sources changed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.mapping.execution import MappingExecutor
from repro.mapping.model import SchemaMapping
from repro.quality.cfd_learning import LearnedCFDs
from repro.quality.metrics import evaluate_quality
from repro.quality.stats import QualityStats, build_stats
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.table import Table

__all__ = [
    "MappingScore",
    "MappingScorer",
    "LeafStats",
    "LeafStatsCache",
    "SelectionOutcome",
    "MappingSelector",
]

#: A penalty-free base score: criterion scores and the candidate's row count.
BaseScore = tuple[dict[str, float], int]


@dataclass
class MappingScore:
    """Criterion scores for one candidate mapping."""

    mapping_id: str
    criteria: dict[str, float]
    row_count: int = 0
    #: Mean correspondence score of the assignments (provenance confidence).
    match_confidence: float = 0.0

    def weighted(self, weights: Mapping[str, float] | None = None) -> float:
        """Weighted overall score; uniform weights when none are supplied."""
        if not self.criteria:
            return 0.0
        if not weights:
            return sum(self.criteria.values()) / len(self.criteria)
        total_weight = sum(weights.get(name, 0.0) for name in self.criteria)
        if total_weight <= 0:
            return sum(self.criteria.values()) / len(self.criteria)
        return (
            sum(value * weights.get(name, 0.0) for name, value in self.criteria.items())
            / total_weight
        )


@dataclass
class LeafStats:
    """One leaf mapping's quality statistics and the sources they reflect."""

    #: The source tables, in ``leaf.sources`` order, the statistics were
    #: accumulated from.
    tables: tuple[Table, ...]
    stats: QualityStats
    #: Unique within the owning cache; a new one whenever ``stats`` changes.
    version: int


@dataclass
class LeafStatsCache:
    """Per-leaf quality statistics of one target relation's candidates.

    A direct or join candidate's base score finalises its leaf's
    statistics; a union is bag concatenation, so its base score finalises
    the merge of its leaves'. The counters are integers, so every base score
    is bit-identical to :meth:`MappingScorer.base_score`. The cache is valid
    for one scoring context (data context, learned CFDs, completeness
    weights); its owner drops it when that context changes.
    """

    #: Leaf ``structure_signature()`` → its statistics.
    leaves: dict[tuple, LeafStats] = field(default_factory=dict)
    #: A candidate's leaf versions → its finalised base score.
    bases: dict[tuple[int, ...], BaseScore] = field(default_factory=dict)
    #: The context indexes every leaf's accumulators share (adopted from
    #: the first leaf built).
    reference_index: dict | None = None
    master_keys: frozenset | None = None
    last_version: int = 0

    def next_version(self) -> int:
        """A version number no entry of this cache has had."""
        self.last_version += 1
        return self.last_version


class MappingScorer:
    """Materialises candidate mappings and scores them on the quality criteria."""

    def __init__(
        self,
        catalog: Catalog,
        target_schema: Schema,
        *,
        reference: Table | None = None,
        reference_key: Sequence[str] = (),
        master: Table | None = None,
        master_key: Sequence[str] = (),
        learned_cfds: LearnedCFDs | None = None,
        feedback_penalties: Mapping[tuple[str, str], float] | None = None,
        mapping_penalties: Mapping[str, Mapping[str, float]] | None = None,
        completeness_weights: Mapping[str, float] | None = None,
        coverage_prior: bool = True,
    ):
        self._catalog = catalog
        self._executor = MappingExecutor(catalog)
        self._target_schema = target_schema
        #: The layout of every executed candidate (target plus provenance).
        self._output_schema = self._executor.output_schema(target_schema, "__candidate")
        self._reference = reference
        self._reference_key = list(reference_key)
        self._master = master
        self._master_key = list(master_key)
        self._learned_cfds = learned_cfds
        self._feedback_penalties = dict(feedback_penalties or {})
        self._mapping_penalties = dict(mapping_penalties or {})
        self._completeness_weights = dict(completeness_weights or {})
        self._coverage_prior = coverage_prior

    def base_score(self, mapping: SchemaMapping) -> BaseScore:
        """Penalty-free criterion scores of one candidate (and its row count).

        The reference evaluator: the candidate is materialised in full and
        evaluated against the data context from scratch. Feedback does not
        enter here. :meth:`score_all` with a :class:`LeafStatsCache` derives
        the same values from per-leaf statistics.
        """
        table = self._executor.execute(
            mapping, self._target_schema, result_name=f"__candidate_{mapping.mapping_id}"
        )
        cfds = self._learned_cfds.cfds if self._learned_cfds else []
        witnesses = self._learned_cfds.witnesses if self._learned_cfds else {}
        report = evaluate_quality(
            table,
            reference=self._reference,
            reference_key=self._reference_key,
            cfds=[cfd for cfd in cfds if cfd.rhs in table.schema],
            witnesses=witnesses,
            master=self._master,
            master_key=self._master_key,
            completeness_weights=self._completeness_weights or None,
        )
        return report.as_dict(), len(table)

    def score(self, mapping: SchemaMapping, base: BaseScore | None = None) -> MappingScore:
        """Score one candidate mapping (``base`` reuses a cached base score)."""
        if base is None:
            base = self.base_score(mapping)
        base_criteria, row_count = base
        criteria = dict(base_criteria)
        accuracy = self._apply_feedback_penalty(mapping, criteria["accuracy"], row_count)
        criteria["accuracy"] = self._apply_mapping_penalty(mapping, accuracy, row_count)
        return MappingScore(
            mapping_id=mapping.mapping_id,
            criteria=criteria,
            row_count=row_count,
            match_confidence=mapping.mean_match_score(),
        )

    def score_all(
        self,
        mappings: Sequence[SchemaMapping],
        *,
        cache: LeafStatsCache | None = None,
    ) -> dict[str, MappingScore]:
        """Score every candidate, adding the cross-candidate coverage prior.

        The ``coverage`` criterion blends how much of the target schema a
        mapping populates with how many rows it produces relative to the
        best candidate. It is what keeps bootstrap (when accuracy and
        relevance are still uninformative 0.5s) from picking a low-coverage
        join mapping whose handful of fully-populated rows win on
        completeness alone — the paper's pay-as-you-go story needs the
        *broad* result first, refined once data context and feedback arrive.

        Without a ``cache`` every candidate is scored from scratch
        (:meth:`base_score`). With one, base scores come from the cached
        per-leaf statistics: a leaf whose sources are unchanged is reused,
        one whose driving source gained rows executes only those rows, and
        any other leaf re-executes in full. Leaves and base scores no
        candidate uses any more are evicted. The caller drops the cache
        when the data context, CFDs or weights change (see
        :class:`~repro.mapping.transducers.MappingQualityTransducer`).
        """
        if cache is None:
            bases = {mapping.mapping_id: self.base_score(mapping) for mapping in mappings}
        else:
            bases = self._cached_bases(mappings, cache)
        scores = {
            mapping.mapping_id: self.score(mapping, bases[mapping.mapping_id])
            for mapping in mappings
        }
        if not self._coverage_prior or not scores:
            return scores
        target_attributes = [
            name for name in self._target_schema.attribute_names if not name.startswith("_")
        ]
        max_rows = max((score.row_count for score in scores.values()), default=0)
        for mapping in mappings:
            score = scores[mapping.mapping_id]
            if target_attributes:
                attribute_share = len(
                    mapping.covered_attributes() & set(target_attributes)
                ) / len(target_attributes)
            else:
                attribute_share = 0.0
            row_share = (score.row_count / max_rows) if max_rows > 0 else 0.0
            score.criteria["coverage"] = round((attribute_share + row_share) / 2, 6)
        return scores

    # -- per-leaf statistics ----------------------------------------------------

    def _cached_bases(
        self, mappings: Sequence[SchemaMapping], cache: LeafStatsCache
    ) -> dict[str, BaseScore]:
        """Base scores from the cache's leaf statistics, brought up to date."""
        leaves: dict[tuple, LeafStats] = {}
        bases: dict[tuple[int, ...], BaseScore] = {}
        by_id: dict[str, BaseScore] = {}
        for mapping in mappings:
            parts = []
            for leaf in mapping.leaf_mappings():
                signature = leaf.structure_signature()
                if signature not in leaves:
                    leaves[signature] = self._leaf_stats(leaf, cache.leaves.get(signature), cache)
                parts.append(leaves[signature])
            versions = tuple(part.version for part in parts)
            base = bases.get(versions) or cache.bases.get(versions)
            if base is None:
                base = self._finalise([part.stats for part in parts], cache)
            bases[versions] = by_id[mapping.mapping_id] = base
        cache.leaves = leaves
        cache.bases = bases
        return by_id

    def _leaf_stats(
        self, leaf: SchemaMapping, entry: LeafStats | None, cache: LeafStatsCache
    ) -> LeafStats:
        """``entry`` brought up to date with the leaf's current source tables.

        Unchanged sources reuse the entry. A driving source that was only
        extended (:meth:`Table.extends`) under unchanged lookup sources adds
        the new rows' contributions. Anything else — a changed lookup, a
        removal, a replaced table — rebuilds the leaf from a full execution.
        """
        tables = tuple(self._catalog.get(name) for name in leaf.sources)
        result_name = f"__candidate_{leaf.mapping_id}"
        if entry is not None and all(map(operator.is_, tables[1:], entry.tables[1:])):
            driving, before = tables[0], entry.tables[0]
            if driving is before:
                return entry
            if driving.extends(before):
                produced = self._executor.execute_rows(
                    leaf,
                    self._target_schema,
                    driving={leaf.sources[0]: range(len(before), len(driving))},
                    result_name=result_name,
                )
                for _key, row in produced:
                    entry.stats.add_row(row)
                entry.tables = tables
                entry.version = cache.next_version()
                return entry
        table = self._executor.execute(leaf, self._target_schema, result_name=result_name)
        stats = build_stats(table, **self._stats_context(cache))
        if stats.accuracy is not None:
            cache.reference_index = stats.accuracy.reference_index
        if stats.relevance is not None:
            cache.master_keys = stats.relevance.master_keys
        return LeafStats(tables=tables, stats=stats, version=cache.next_version())

    def _finalise(self, parts: list[QualityStats], cache: LeafStatsCache) -> BaseScore:
        """The base score of the concatenation of ``parts``' rows."""
        if len(parts) == 1:
            stats = parts[0]
        else:
            stats = QualityStats.for_schema(self._output_schema, **self._stats_context(cache))
            for part in parts:
                stats.merge(part)
        return stats.finalise().as_dict(), stats.row_count

    def _stats_context(self, cache: LeafStatsCache) -> dict:
        """:func:`build_stats` arguments of this scorer's evaluation context,
        sharing the cache's context indexes."""
        cfds = self._learned_cfds.cfds if self._learned_cfds else []
        return {
            "reference": self._reference,
            "reference_key": self._reference_key,
            "cfds": [cfd for cfd in cfds if cfd.rhs in self._output_schema],
            "witnesses": self._learned_cfds.witnesses if self._learned_cfds else {},
            "master": self._master,
            "master_key": self._master_key,
            "completeness_weights": self._completeness_weights or None,
            "reference_index": cache.reference_index,
            "master_keys": cache.master_keys,
        }

    def _apply_feedback_penalty(
        self, mapping: SchemaMapping, accuracy: float, row_count: int
    ) -> float:
        """Blend reference-based accuracy with feedback-observed error rates.

        ``feedback_penalties`` maps ``(source_relation, target_attribute)`` to
        ``{"error_rate": …, "annotations": …}`` as published by the feedback
        assimilator. The observed signal is weighted by how much of the
        mapping's output the annotations actually cover, so a handful of
        (possibly targeted, hence biased) annotations nudge the estimate
        rather than dominating it.
        """
        if not self._feedback_penalties:
            return accuracy
        rates = []
        annotations = 0.0
        for leaf in mapping.leaf_mappings():
            for assignment in leaf.assignments:
                key = (assignment.source_relation, assignment.target_attribute)
                entry = self._feedback_penalties.get(key)
                if entry is None:
                    continue
                rates.append(float(entry.get("error_rate", 0.0)))
                annotations += float(entry.get("annotations", 0.0))
        if not rates:
            return accuracy
        observed_accuracy = 1.0 - sum(rates) / len(rates)
        weight = min(1.0, annotations / max(1.0, float(row_count)))
        return (1.0 - weight) * accuracy + weight * observed_accuracy

    def _apply_mapping_penalty(
        self, mapping: SchemaMapping, accuracy: float, row_count: int
    ) -> float:
        """Decrement the confidence of mappings implicated by lineage.

        ``mapping_penalties`` (the ``lineage_penalties`` artifact) maps
        mapping ids to feedback tallies attributed through why-provenance.
        Only implicated mappings are touched — the selective part of
        lineage-targeted feedback — and the observed error rate is weighted
        by annotation coverage exactly like the assignment-level blend.
        """
        entry = self._mapping_penalties.get(mapping.mapping_id)
        if not entry:
            return accuracy
        error_rate = float(entry.get("error_rate", 0.0))
        if error_rate <= 0.0:
            return accuracy
        annotations = float(entry.get("incorrect", 0.0)) + float(entry.get("correct", 0.0))
        weight = min(1.0, annotations / max(1.0, float(row_count)))
        return accuracy * (1.0 - 0.5 * error_rate * weight)


@dataclass
class SelectionOutcome:
    """The result of mapping selection."""

    ranking: list[tuple[str, float]]
    scores: dict[str, MappingScore]
    weights: dict[str, float] = field(default_factory=dict)

    @property
    def best_mapping_id(self) -> str:
        """The identifier of the winning mapping."""
        if not self.ranking:
            raise ValueError("selection produced an empty ranking")
        return self.ranking[0][0]

    @property
    def best_score(self) -> float:
        """The winning weighted score."""
        return self.ranking[0][1]


class MappingSelector:
    """Ranks candidate mappings by weighted criterion scores."""

    def __init__(self, *, tie_break_by_confidence: bool = True):
        self._tie_break_by_confidence = tie_break_by_confidence

    def select(
        self, scores: Mapping[str, MappingScore], weights: Mapping[str, float] | None = None
    ) -> SelectionOutcome:
        """Rank mappings; the first entry of the ranking is the selected one."""
        if not scores:
            raise ValueError("cannot select from an empty candidate set")
        weighted: list[tuple[str, float]] = []
        for mapping_id, score in scores.items():
            weighted.append((mapping_id, score.weighted(weights)))

        def sort_key(item: tuple[str, float]):
            mapping_id, value = item
            if self._tie_break_by_confidence:
                confidence = scores[mapping_id].match_confidence
            else:
                confidence = 0.0
            return (-round(value, 9), -round(confidence, 9), mapping_id)

        ranking = sorted(weighted, key=sort_key)
        return SelectionOutcome(ranking=ranking, scores=dict(scores), weights=dict(weights or {}))
