"""Mapping generation, scoring, selection and execution."""

from repro.mapping.execution import MappingExecutor
from repro.mapping.generation import MappingGenerator, MappingGeneratorConfig
from repro.mapping.model import AttributeAssignment, JoinCondition, SchemaMapping
from repro.mapping.selection import (
    LeafStatsCache,
    MappingScore,
    MappingScorer,
    MappingSelector,
    SelectionOutcome,
)
from repro.mapping.transducers import (
    FEEDBACK_PENALTIES_ARTIFACT_KEY,
    MAPPINGS_ARTIFACT_KEY,
    MappingGenerationTransducer,
    MappingQualityTransducer,
    MappingSelectionTransducer,
    ResultMaterialisationTransducer,
    SourceSelectionTransducer,
    result_relation_name,
)

__all__ = [
    "AttributeAssignment",
    "JoinCondition",
    "SchemaMapping",
    "MappingGenerator",
    "MappingGeneratorConfig",
    "MappingExecutor",
    "LeafStatsCache",
    "MappingScore",
    "MappingScorer",
    "MappingSelector",
    "SelectionOutcome",
    "MappingGenerationTransducer",
    "MappingQualityTransducer",
    "SourceSelectionTransducer",
    "MappingSelectionTransducer",
    "ResultMaterialisationTransducer",
    "MAPPINGS_ARTIFACT_KEY",
    "FEEDBACK_PENALTIES_ARTIFACT_KEY",
    "result_relation_name",
]
