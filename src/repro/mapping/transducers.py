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
    source_selected_fact,
)
from repro.core.knowledge_base import KnowledgeBase
from repro.core.transducer import Activity, Transducer, TransducerResult
from repro.incremental.state import incremental_state, mapping_source_volumes
from repro.matching.correspondence import MatchSet
from repro.mapping.execution import MappingExecutor
from repro.mapping.generation import MappingGenerator, MappingGeneratorConfig
from repro.mapping.model import SchemaMapping
from repro.mapping.selection import MappingScorer, MappingSelector
from repro.provenance.feedback import LINEAGE_PENALTIES_ARTIFACT_KEY
from repro.provenance.model import provenance_store
from repro.quality.transducers import CFD_ARTIFACT_KEY
from repro.relational.table import Table

__all__ = [
    "MAPPINGS_ARTIFACT_KEY",
    "FEEDBACK_PENALTIES_ARTIFACT_KEY",
    "MappingGenerationTransducer",
    "MappingQualityTransducer",
    "SourceSelectionTransducer",
    "MappingSelectionTransducer",
    "ResultMaterialisationTransducer",
    "result_relation_name",
    "selected_mapping",
]

#: Artifact key for the dictionary of candidate mappings (id → SchemaMapping).
MAPPINGS_ARTIFACT_KEY = "candidate_mappings"
#: Artifact key for feedback-derived error rates per (source, target attribute).
FEEDBACK_PENALTIES_ARTIFACT_KEY = "feedback_penalties"
#: Artifact key for the cached penalty-free base scores of candidate mappings
#: ({"context_key": ..., "bases": {target_relation: {mapping_id: base}}}).
#: Feedback-driven re-scores reuse these instead of re-materialising every
#: candidate; the entry is dropped whenever the scoring context changes.
BASE_SCORES_ARTIFACT_KEY = "mapping_base_scores"


def result_relation_name(target_relation: str) -> str:
    """Canonical name of the materialised result table for a target relation."""
    return f"{target_relation}_result"


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
        candidates: dict[str, SchemaMapping] = kb.get_artifact(MAPPINGS_ARTIFACT_KEY, {})
        if not candidates:
            return TransducerResult(notes="no candidate mappings to score")
        added = 0
        scored = 0
        base_cache = self._base_cache(kb)
        kb.retract_where(Predicates.MAPPING_SCORE)
        for target_relation in kb.target_relations():
            target_schema = kb.schema_of(target_relation)
            scorer = self._build_scorer(kb, target_relation, target_schema)
            relevant = [m for m in candidates.values() if m.target_relation == target_relation]
            relation_cache = base_cache["bases"].setdefault(target_relation, {})
            for mapping_id, score in scorer.score_all(
                relevant, base_cache=relation_cache
            ).items():
                scored += 1
                for criterion, value in score.criteria.items():
                    added += int(kb.assert_tuple(mapping_score_fact(mapping_id, criterion, value)))
                added += int(
                    kb.assert_tuple(
                        mapping_score_fact(mapping_id, "match_confidence", score.match_confidence)
                    )
                )
        return TransducerResult(
            facts_added=added,
            notes=f"scored {scored} candidate mappings",
        )

    def _base_cache(self, kb: KnowledgeBase) -> dict:
        """The session's base-score cache, invalidated on context changes.

        Base scores depend on the source tables, the data context, the
        learned CFDs and the completeness weights — but *not* on feedback.
        The context key tracks the revisions of exactly those inputs (source
        volumes stand in for source contents: sources are logically
        immutable apart from explicit row additions/removals, which change
        their row counts), so feedback-only re-scores hit the cache while
        any context change rebuilds it.
        """
        sources = tuple(
            sorted(row for row in kb.facts(Predicates.DATASET) if row[1] == Predicates.ROLE_SOURCE)
        )
        context_key = (
            kb.predicate_revision(Predicates.CFD),
            kb.predicate_revision(Predicates.DATA_CONTEXT),
            kb.predicate_revision(Predicates.CRITERION_WEIGHT),
            sources,
        )
        cache = kb.get_artifact(BASE_SCORES_ARTIFACT_KEY)
        if cache is None or cache.get("context_key") != context_key:
            cache = {"context_key": context_key, "bases": {}}
            kb.store_artifact(BASE_SCORES_ARTIFACT_KEY, cache)
        return cache

    def _build_scorer(
        self, kb: KnowledgeBase, target_relation: str, target_schema
    ) -> MappingScorer:
        reference, reference_key = _context_table(kb, Predicates.CONTEXT_REFERENCE, target_relation)
        master, master_key = _context_table(kb, Predicates.CONTEXT_MASTER, target_relation)
        return MappingScorer(
            kb.catalog,
            target_schema,
            reference=reference,
            reference_key=reference_key,
            master=master,
            master_key=master_key,
            learned_cfds=kb.get_artifact(CFD_ARTIFACT_KEY),
            feedback_penalties=kb.get_artifact(FEEDBACK_PENALTIES_ARTIFACT_KEY, {}),
            mapping_penalties=kb.get_artifact(LINEAGE_PENALTIES_ARTIFACT_KEY, {}),
            completeness_weights=_completeness_weights(kb),
            base_table_provider=_snapshot_base_table_provider(kb),
        )


def _snapshot_base_table_provider(kb: KnowledgeBase):
    """Serve the selected mapping's materialised rows from the pipeline snapshot.

    The incremental state's ``base`` rows are exactly what a fresh
    :meth:`MappingExecutor.execute` of the snapshot's mapping would produce
    — *while* the sources still have the row counts they had at
    materialisation time and the candidate's structure (score-free
    signature) is unchanged. Inside that window, a base-score refresh (a new
    data context, refreshed CFDs) re-evaluates the winner from the snapshot
    instead of re-running its joins; everything outside the window falls
    back to a real execution. Returns None when the session does not track
    incremental state.
    """
    state = incremental_state(kb, create=False)
    if state is None or not state.enabled:
        return None

    def provider(mapping) -> Table | None:
        rel_state = state.get(result_relation_name(mapping.target_relation))
        if rel_state is None or not rel_state.ready:
            return None
        if rel_state.mapping_id != mapping.mapping_id or rel_state.mapping is None:
            return None
        if not rel_state.source_volumes:
            return None
        if rel_state.source_volumes != mapping_source_volumes(kb.catalog, rel_state.mapping):
            return None
        if rel_state.mapping.structure_signature() != mapping.structure_signature():
            return None
        rows = []
        for key in rel_state.order:
            row = rel_state.base.get(key)
            if row is None:
                return None  # snapshot incomplete: execute for real
            rows.append(row)
        return Table(rel_state.schema, rows, coerce=False, validate=False)

    return provider


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
            state.observe_materialised(
                table, mapping, provenance_store(kb, create=False), catalog=kb.catalog
            )
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


def _context_table(kb: KnowledgeBase, kind: str, target_relation: str):
    """The first data-context table of ``kind`` for ``target_relation`` plus a key.

    Reference data is joined on an identifying attribute (a postcode-like
    attribute when one exists) so the *other* shared attributes can be
    checked for accuracy. Master data instead describes whole entities, so
    all shared attributes together form the coverage key for relevance.
    """
    for context_name, context_kind, bound_target in kb.facts(Predicates.DATA_CONTEXT):
        if context_kind != kind or bound_target != target_relation:
            continue
        if not kb.has_table(context_name):
            continue
        table = kb.get_table(context_name)
        target_schema = kb.schema_of(target_relation)
        shared = [name for name in table.schema.attribute_names if name in target_schema]
        if not shared:
            continue
        if kind == Predicates.CONTEXT_MASTER:
            key = shared
        else:
            key = [name for name in shared if "postcode" in name.lower()] or shared[:1]
        return table, key
    return None, []
