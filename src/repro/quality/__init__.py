"""Data quality: profiling, CFDs, metrics and repair."""

from repro.quality.cfd import CFD, WILDCARD, CFDCheck
from repro.quality.cfd_learning import CFDLearner, CFDLearnerConfig, LearnedCFDs, build_witness
from repro.quality.profiling import (
    ColumnProfile,
    candidate_keys,
    discover_functional_dependencies,
    functional_dependency_confidence,
    profile_column,
    profile_table,
    value_overlap,
)
from repro.quality.repair import CFDRepairer, RepairAction, RepairResult
from repro.quality.stats import (
    AccuracyStats,
    AnswerAgreementStats,
    CompletenessStats,
    ConsistencyStats,
    QualityReport,
    QualityStats,
    RelevanceStats,
    build_stats,
)
from repro.quality.transducers import (
    CFD_ARTIFACT_KEY,
    CFDLearningTransducer,
    DataRepairTransducer,
    QualityMetricTransducer,
)

__all__ = [
    "CFD",
    "WILDCARD",
    "CFDCheck",
    "CFDLearner",
    "CFDLearnerConfig",
    "LearnedCFDs",
    "build_witness",
    "CFDRepairer",
    "RepairAction",
    "RepairResult",
    "QualityReport",
    "QualityStats",
    "CompletenessStats",
    "AccuracyStats",
    "ConsistencyStats",
    "RelevanceStats",
    "AnswerAgreementStats",
    "build_stats",
    "ColumnProfile",
    "profile_column",
    "profile_table",
    "candidate_keys",
    "functional_dependency_confidence",
    "discover_functional_dependencies",
    "value_overlap",
    "CFDLearningTransducer",
    "QualityMetricTransducer",
    "DataRepairTransducer",
    "CFD_ARTIFACT_KEY",
]
