"""Duplicate detection and data fusion."""

from repro.fusion.blocking import block_by_attributes, block_by_key_function, candidate_blocks
from repro.fusion.duplicates import (
    DuplicateDetector,
    DuplicateDetectorConfig,
    DuplicatePair,
    cluster_pairs,
)
from repro.fusion.fusion import DataFuser, FusionPolicy, FusionResult
from repro.fusion.transducers import (
    DUPLICATES_ARTIFACT_KEY,
    DataFusionTransducer,
    DuplicateDetectionTransducer,
)

__all__ = [
    "block_by_attributes",
    "block_by_key_function",
    "candidate_blocks",
    "DuplicateDetector",
    "DuplicateDetectorConfig",
    "DuplicatePair",
    "cluster_pairs",
    "DataFuser",
    "FusionPolicy",
    "FusionResult",
    "DuplicateDetectionTransducer",
    "DataFusionTransducer",
    "DUPLICATES_ARTIFACT_KEY",
]
