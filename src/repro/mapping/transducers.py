"""Mapping transducers: generation, scoring, selection and materialisation.

Together with the matching and quality transducers these reproduce the
mapping-related rows of Table 1 and the behaviour described in §2.3: once
matches exist mapping generation can run; once quality metrics exist on the
candidate mappings, mapping (and source) selection can run, taking the user
context into account.
"""

from __future__ import annotations

from repro.core.facts import (
    Predicates,
    mapping_fact,
    mapping_score_fact,
    mapping_selected_fact,
    result_fact,
    result_relation_name,
    source_selected_fact,
)
from repro.core.knowledge_base import KnowledgeBase
from repro.core.transducer import Activity, Transducer, TransducerResult
from repro.incremental.state import incremental_state
from repro.matching.correspondence import MatchSet
from repro.mapping.execution import MappingExecutor
from repro.mapping.generation import MappingGenerator, MappingGeneratorConfig
from repro.mapping.model import SchemaMapping
from repro.mapping.selection import LeafStatsCache, MappingScorer, MappingSelector
from repro.provenance.feedback import LINEAGE_PENALTIES_ARTIFACT_KEY
from repro.provenance.model import provenance_store
from repro.quality.transducers import metric_context, quality_context_token

__all__ = [
    "MAPPINGS_ARTIFACT_KEY",
    "FEEDBACK_PENALTIES_ARTIFACT_KEY",
    "MappingGenerationTransducer",
    "MappingQualityTransducer",
    "SourceSelectionTransducer",
    "MappingSelectionTransducer",
    "ResultMaterialisationTransducer",
    "result_relation_name",
    "score_candidates",
    "selected_mapping",
]

#: Artifact key for the dictionary of candidate mappings (id → SchemaMapping).
MAPPINGS_ARTIFACT_KEY = "candidate_mappings"
#: Artifact key for feedback-derived error rates per (source, target attribute).
FEEDBACK_PENALTIES_ARTIFACT_KEY = "feedback_penalties"
#: Artifact key for the per-leaf quality statistics candidate scoring keeps
#: between runs ({"context_key": ..., "caches": {target_relation:
#: LeafStatsCache}}). A re-score executes only the leaves whose sources
#: changed, and an append to a leaf's driving source only the new rows;
#: feedback-only re-scores execute nothing. The entry is dropped whenever
#: the scoring context changes.
BASE_SCORES_ARTIFACT_KEY = "mapping_base_scores"


def selected_mapping(kb: KnowledgeBase) -> SchemaMapping | None:
    """The rank-1 candidate mapping (None before selection).

    Mapping selection retracts every ``mapping_selected`` fact and asserts
    exactly one at rank 1, so this is the one selected mapping.
    """
    candidates = kb.get_artifact(MAPPINGS_ARTIFACT_KEY, {})
    for mapping_id, rank in kb.facts(Predicates.MAPPING_SELECTED):
        if rank == 1 and mapping_id in candidates:
            return candidates[mapping_id]
    return None


class MappingGenerationTransducer(Transducer):
    """Generates candidate mappings from the current ``match`` facts."""

    name = "mapping_generation"
    activity = Activity.MAPPING
    priority = 10
    input_dependencies = (
        "match(S, A, T, B, Sc)",
        "schema(T, target)",
    )

    def __init__(self, config: MappingGeneratorConfig | None = None):
        super().__init__()
        self._generator = MappingGenerator(config)

    def run(self, kb: KnowledgeBase) -> TransducerResult:
        candidates: dict[str, SchemaMapping] = {}
        added = 0
        for target_relation in kb.target_relations():
            matches = MatchSet.from_kb(kb, target_relation=target_relation)
            target_schema = kb.schema_of(target_relation)
            generated = self._generator.generate(
                matches, target_schema, kb.catalog, sources=kb.source_relations()
            )
            for mapping in generated:
                candidates[mapping.mapping_id] = mapping
        # Replace the previous candidate set: mappings are derived facts.
        kb.retract_where(Predicates.MAPPING)
        kb.store_artifact(MAPPINGS_ARTIFACT_KEY, candidates)
        for mapping in candidates.values():
            added += int(
                kb.assert_tuple(
                    mapping_fact(mapping.mapping_id, mapping.target_relation, mapping.kind)
                )
            )
        return TransducerResult(
            facts_added=added,
            notes=f"generated {len(candidates)} candidate mappings",
            details={"candidates": [m.describe() for m in candidates.values()]},
        )


class MappingQualityTransducer(Transducer):
    """Scores every candidate mapping on the quality criteria.

    This is the "Quality Metric transducer … adding quality metrics on
    sources and mappings to the knowledge base" of §2.3, restricted to
    mappings (source metrics are handled by
    :class:`repro.quality.QualityMetricTransducer`). It uses whatever data
    context is available: reference data for accuracy, learned CFDs for
    consistency, master data for relevance, and feedback-derived penalties.
    """

    name = "mapping_quality"
    activity = Activity.QUALITY
    priority = 30
    input_dependencies = ("mapping(M, T, K)",)
    watch_predicates = ("cfd", "data_context", "feedback", "criterion_weight", "dataset")

    def run(self, kb: KnowledgeBase) -> TransducerResult:
        if not kb.get_artifact(MAPPINGS_ARTIFACT_KEY, {}):
            return TransducerResult(notes="no candidate mappings to score")
        facts = score_candidates(kb, self._base_cache(kb))
        kb.retract_where(Predicates.MAPPING_SCORE)
        added = sum(int(kb.assert_tuple(fact)) for fact in facts)
        scored = len({args[0] for _predicate, args in facts})
        return TransducerResult(
            facts_added=added,
            notes=f"scored {scored} candidate mappings",
        )

    def _base_cache(self, kb: KnowledgeBase) -> dict[str, LeafStatsCache]:
        """The session's per-leaf statistics, one cache per target relation.

        Leaf statistics depend on the source tables, the evaluation context
        and the completeness weights — but *not* on feedback.
        :meth:`MappingScorer.score_all` follows source changes leaf by leaf
        (it compares the source tables each leaf was computed from); the
        context key tracks the revisions of the other inputs, and any
        change there drops every leaf.
        """
        context_key = (
            quality_context_token(kb),
            kb.predicate_revision(Predicates.CRITERION_WEIGHT),
        )
        cache = kb.get_artifact(BASE_SCORES_ARTIFACT_KEY)
        if cache is None or cache.get("context_key") != context_key:
            cache = {"context_key": context_key, "caches": {}}
            kb.store_artifact(BASE_SCORES_ARTIFACT_KEY, cache)
        return cache["caches"]


def score_candidates(
    kb: KnowledgeBase, caches: dict[str, LeafStatsCache] | None = None
) -> list[tuple[str, tuple]]:
    """The ``mapping_score`` facts of every candidate mapping.

    With ``caches`` (target relation → :class:`LeafStatsCache`) scoring
    reuses and updates the per-leaf statistics. Without, every candidate is
    scored from scratch (:meth:`MappingScorer.base_score`): the reference
    the cached facts must equal.
    """
    candidates: dict[str, SchemaMapping] = kb.get_artifact(MAPPINGS_ARTIFACT_KEY, {})
    facts = []
    for target_relation in kb.target_relations():
        scorer = MappingScorer(
            kb.catalog,
            kb.schema_of(target_relation),
            context=metric_context(kb, target_relation),
            feedback_penalties=kb.get_artifact(FEEDBACK_PENALTIES_ARTIFACT_KEY, {}),
            mapping_penalties=kb.get_artifact(LINEAGE_PENALTIES_ARTIFACT_KEY, {}),
            completeness_weights=_completeness_weights(kb),
        )
        relevant = [m for m in candidates.values() if m.target_relation == target_relation]
        cache = None if caches is None else caches.setdefault(target_relation, LeafStatsCache())
        for mapping_id, score in scorer.score_all(relevant, cache=cache).items():
            for criterion, value in score.criteria.items():
                facts.append(mapping_score_fact(mapping_id, criterion, value))
            facts.append(mapping_score_fact(mapping_id, "match_confidence", score.match_confidence))
    return facts


class SourceSelectionTransducer(Transducer):
    """Ranks sources by their weighted quality metrics.

    §2.3: quality metrics on sources "allow a source selection … transducer
    to run that selects sources …, taking into account the user context".
    """

    name = "source_selection"
    activity = Activity.SELECTION
    priority = 20
    input_dependencies = ("metric(source, S, C, V)",)
    watch_predicates = ("criterion_weight",)

    def run(self, kb: KnowledgeBase) -> TransducerResult:
        weights = _criterion_weights(kb)
        per_source: dict[str, dict[str, float]] = {}
        for subject_kind, subject, criterion, value in kb.facts(Predicates.METRIC):
            if subject_kind != Predicates.ROLE_SOURCE:
                continue
            per_source.setdefault(subject, {})[criterion] = float(value)
        ranking = []
        for source, criteria in per_source.items():
            if weights:
                total = sum(weights.get(name, 0.0) for name in criteria)
                if total > 0:
                    score = (
                        sum(value * weights.get(name, 0.0) for name, value in criteria.items())
                        / total
                    )
                else:
                    score = 0.0
            else:
                score = sum(criteria.values()) / len(criteria)
            ranking.append((source, score))
        ranking.sort(key=lambda item: (-item[1], item[0]))
        kb.retract_where(Predicates.SOURCE_SELECTED)
        added = 0
        for rank, (source, _score) in enumerate(ranking, start=1):
            added += int(kb.assert_tuple(source_selected_fact(source, rank)))
        return TransducerResult(
            facts_added=added,
            notes=f"ranked {len(ranking)} sources",
            details={"ranking": ranking},
        )


class MappingSelectionTransducer(Transducer):
    """Selects the best candidate mapping using the user-context weights."""

    name = "mapping_selection"
    activity = Activity.SELECTION
    priority = 30
    input_dependencies = ("mapping_score(M, C, V)",)
    watch_predicates = ("criterion_weight",)

    def __init__(self) -> None:
        super().__init__()
        self._selector = MappingSelector()

    def run(self, kb: KnowledgeBase) -> TransducerResult:
        from repro.mapping.selection import MappingScore

        weights = _criterion_weights(kb)
        scores: dict[str, MappingScore] = {}
        confidences: dict[str, float] = {}
        for mapping_id, criterion, value in kb.facts(Predicates.MAPPING_SCORE):
            if criterion == "match_confidence":
                confidences[mapping_id] = float(value)
                continue
            entry = scores.setdefault(mapping_id, MappingScore(mapping_id, {}))
            entry.criteria[criterion] = float(value)
        for mapping_id, confidence in confidences.items():
            if mapping_id in scores:
                scores[mapping_id].match_confidence = confidence
        if not scores:
            return TransducerResult(notes="no mapping scores available")
        outcome = self._selector.select(scores, weights)
        kb.retract_where(Predicates.MAPPING_SELECTED)
        added = 0
        for rank, (mapping_id, _score) in enumerate(outcome.ranking, start=1):
            added += int(kb.assert_tuple(mapping_selected_fact(mapping_id, rank)))
        return TransducerResult(
            facts_added=added,
            notes=(
                f"selected {outcome.best_mapping_id} "
                f"(score {outcome.best_score:.3f}, weights={'user' if weights else 'uniform'})"
            ),
            details={"ranking": outcome.ranking, "weights": weights},
        )


class ResultMaterialisationTransducer(Transducer):
    """Materialises the selected mapping into the result table."""

    name = "result_materialisation"
    activity = Activity.SELECTION
    priority = 40
    input_dependencies = ("mapping_selected(M, 1)",)

    def run(self, kb: KnowledgeBase) -> TransducerResult:
        mapping = selected_mapping(kb)
        if mapping is None:
            return TransducerResult(notes="no selected mapping to materialise")
        selected_id = mapping.mapping_id
        target_schema = kb.schema_of(mapping.target_relation)
        executor = MappingExecutor(kb.catalog, provenance=provenance_store(kb))
        result_name = result_relation_name(mapping.target_relation)
        table = executor.execute(mapping, target_schema, result_name=result_name)
        if kb.has_table(result_name):
            kb.update_table(table)
        else:
            kb.catalog.register(table, replace=True)
        state = incremental_state(kb, create=False)
        if state is not None:
            state.observe_materialised(table, mapping, provenance_store(kb, create=False))
        # Refresh the result fact (retract results for this target first).
        for row in list(kb.facts(Predicates.RESULT)):
            if row[0] == result_name:
                kb.retract_fact(Predicates.RESULT, *row)
        added = int(kb.assert_tuple(result_fact(result_name, selected_id, len(table))))
        return TransducerResult(
            facts_added=added,
            tables_written=[result_name],
            notes=f"materialised {selected_id} into {result_name} ({len(table)} rows)",
            details={"mapping": mapping.describe(), "rows": len(table)},
        )


# -- shared helpers ------------------------------------------------------------------


def _criterion_weights(kb: KnowledgeBase) -> dict[str, float]:
    """Dimension-level weights from ``criterion_weight`` facts (may be empty)."""
    aggregated: dict[str, float] = {}
    for key, weight in kb.facts(Predicates.CRITERION_WEIGHT):
        dimension = key.split(".", 1)[0]
        aggregated[dimension] = aggregated.get(dimension, 0.0) + float(weight)
    total = sum(aggregated.values())
    if total <= 0:
        return {}
    return {dimension: weight / total for dimension, weight in aggregated.items()}


def _completeness_weights(kb: KnowledgeBase) -> dict[str, float]:
    """Attribute-level completeness weights from the user context (may be empty)."""
    weights: dict[str, float] = {}
    for key, weight in kb.facts(Predicates.CRITERION_WEIGHT):
        if "." not in key:
            continue
        dimension, attribute = key.split(".", 1)
        if dimension == "completeness":
            weights[attribute] = weights.get(attribute, 0.0) + float(weight)
    return weights
