"""Incremental re-wrangling: lineage-driven delta re-materialisation.

The pay-as-you-go feedback loop is only cheap if iterating is cheap. This
package turns a feedback round or a source-row revision into a typed change
set (:mod:`~repro.incremental.delta`), resolves it over the pipeline
snapshots to the exact dirty rows (:mod:`~repro.incremental.impact`), and
patches the materialised results, the provenance store and the derived
facts in place instead of re-running the whole pipeline
(:mod:`~repro.incremental.rewrangle`). Equality with the full pipeline is a
checked contract (:mod:`~repro.incremental.validate`).

The engine and validation modules are imported lazily: the pipeline
transducers import :mod:`~repro.incremental.state` at module load, and an
eager engine import here would close that loop during bootstrap.
"""

from repro.incremental.delta import ChangeSet, FeedbackDelta, SourceRowsDelta
from repro.incremental.impact import DirtySet, cluster_map, resolve
from repro.incremental.state import (
    INCREMENTAL_STATE_ARTIFACT_KEY,
    IncrementalState,
    RelationState,
    incremental_state,
)

__all__ = [
    "ChangeSet",
    "FeedbackDelta",
    "SourceRowsDelta",
    "DirtySet",
    "cluster_map",
    "resolve",
    "IncrementalOutcome",
    "IncrementalWrangler",
    "IncrementalState",
    "RelationState",
    "INCREMENTAL_STATE_ARTIFACT_KEY",
    "incremental_state",
    "ValidationReport",
    "check_incremental",
]

_LAZY = {
    "IncrementalOutcome": "repro.incremental.rewrangle",
    "IncrementalWrangler": "repro.incremental.rewrangle",
    "ValidationReport": "repro.incremental.validate",
    "check_incremental": "repro.incremental.validate",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
