"""Instance-level matching: value-overlap based correspondences.

Table 1 of the paper: "Instance Matching — Src/Target Instances". Target
instances are rarely available before wrangling has produced anything, but
the *data context* provides instances associated with the target schema
(reference/master/example data). When a data context arrives, this matcher
becomes runnable and refines the purely name-based matches from
bootstrapping — which is precisely the improvement the paper attributes to
step 2 of the demonstration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.matching.correspondence import Correspondence, MatchSet
from repro.matching.similarity import jaccard_similarity, numeric_overlap
from repro.relational.table import Table
from repro.relational.types import is_null

__all__ = ["InstanceMatcherConfig", "InstanceMatcher"]


@dataclass(frozen=True)
class InstanceMatcherConfig:
    """Tuning knobs of the instance matcher."""

    #: Correspondences scoring below this are discarded.
    threshold: float = 0.3
    #: Maximum number of distinct values sampled per column.
    sample_size: int = 500
    #: Weight given to exact value overlap vs distributional overlap for
    #: numeric columns.
    overlap_weight: float = 0.7


class InstanceMatcher:
    """Produces correspondences by comparing column *contents*."""

    def __init__(self, config: InstanceMatcherConfig | None = None):
        self._config = config or InstanceMatcherConfig()

    @property
    def config(self) -> InstanceMatcherConfig:
        """The matcher configuration."""
        return self._config

    def match(
        self, source: Table, target_instances: Table, *, target_relation: str | None = None
    ) -> MatchSet:
        """Match ``source`` columns against columns of ``target_instances``.

        ``target_instances`` is typically a data-context table whose
        attributes are (a subset of) the target schema; ``target_relation``
        overrides the relation name recorded in the correspondences so that
        they refer to the *target schema* rather than the context table.
        """
        relation = target_relation or target_instances.name
        matches = MatchSet()
        targets = [(attribute.name, self._sample(target_instances.column(attribute.name)))
                   for attribute in target_instances.schema.attributes]
        for source_attribute in source.schema.attributes:
            source_values = self._sample(source.column(source_attribute.name))
            if not source_values:
                continue
            for target_name, target_values in targets:
                if not target_values:
                    continue
                score = self.column_similarity(source_values, target_values)
                if score >= self._config.threshold:
                    matches.add(Correspondence(
                        source.name, source_attribute.name,
                        relation, target_name, round(score, 6)))
        return matches

    def column_similarity(
        self, source_values: Sequence[Any], target_values: Sequence[Any]
    ) -> float:
        """Similarity of two column samples.

        String columns use Jaccard overlap of normalised values; numeric
        columns blend exact overlap with range overlap (prices rarely repeat
        exactly but occupy the same range).
        """
        source_numeric = _is_numeric(source_values)
        target_numeric = _is_numeric(target_values)
        if source_numeric != target_numeric:
            return 0.0
        if source_numeric:
            exact = jaccard_similarity(source_values, target_values)
            distributional = numeric_overlap(
                [float(v) for v in source_values], [float(v) for v in target_values]
            )
            weight = self._config.overlap_weight
            return weight * exact + (1.0 - weight) * distributional
        return jaccard_similarity(
            {_normalise(v) for v in source_values},
            {_normalise(v) for v in target_values},
        )

    def _sample(self, values: Sequence[Any]) -> list[Any]:
        distinct = []
        seen = set()
        for value in values:
            if is_null(value):
                continue
            key = _normalise(value)
            if key in seen:
                continue
            seen.add(key)
            distinct.append(value)
            if len(distinct) >= self._config.sample_size:
                break
        return distinct


def _is_numeric(values: Sequence[Any]) -> bool:
    numeric = sum(1 for v in values if isinstance(v, (int, float)) and not isinstance(v, bool))
    return numeric > len(values) / 2 if values else False


def _normalise(value: Any) -> str:
    if isinstance(value, str):
        return value.strip().lower()
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
