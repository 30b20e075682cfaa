"""Configuration of the high-level wrangling pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fusion.duplicates import DuplicateDetectorConfig
from repro.mapping.generation import MappingGeneratorConfig
from repro.matching.instance_matching import InstanceMatcherConfig
from repro.matching.schema_matching import SchemaMatcherConfig
from repro.quality.cfd_learning import CFDLearnerConfig

__all__ = ["WranglerConfig"]


@dataclass(frozen=True)
class WranglerConfig:
    """Tuning knobs for a :class:`~repro.wrangler.pipeline.Wrangler` session.

    Component-specific configurations are passed through to the individual
    transducers; ``max_steps`` bounds each orchestration run (a safety net —
    a well-behaved session quiesces long before it).

    This is the canonical home of the session-level knobs that used to be
    re-spelt across configs: provenance/incremental toggles, the step
    budget and the session seed. :class:`~repro.wrangler.batch.BatchConfig`
    nests one of these; scenario *generation* seeds stay with
    :class:`~repro.scenarios.synth.SynthConfig`.
    """

    max_steps: int = 200
    #: Session-level seed: the default for simulated feedback sampling and
    #: any other stochastic choice a session makes (scenario generation has
    #: its own seed in ``SynthConfig``).
    seed: int = 0
    schema_matcher: SchemaMatcherConfig = field(default_factory=SchemaMatcherConfig)
    instance_matcher: InstanceMatcherConfig = field(default_factory=InstanceMatcherConfig)
    mapping_generator: MappingGeneratorConfig = field(default_factory=MappingGeneratorConfig)
    cfd_learner: CFDLearnerConfig = field(default_factory=CFDLearnerConfig)
    duplicate_detector: DuplicateDetectorConfig = field(default_factory=DuplicateDetectorConfig)
    #: Whether why-provenance is recorded for every materialised tuple
    #: (lineage-aware explanations and feedback). Default on; switch off to
    #: benchmark the pipeline without lineage overhead.
    track_provenance: bool = True
    #: Whether the incremental re-wrangling engine keeps pipeline snapshots
    #: so session feedback and append rounds can patch
    #: results in place instead of re-running the whole pipeline. Requires
    #: provenance tracking; the engine falls back to full runs without it.
    enable_incremental: bool = True
