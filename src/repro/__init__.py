"""Reproduction of the VADA architecture for cost-effective data wrangling.

The top-level package re-exports the high-level wrangling API; the
subpackages contain the architecture's components:

- :mod:`repro.relational` — relational substrate (tables, CSV I/O, catalog)
- :mod:`repro.datalog` — Vadalog-lite reasoner
- :mod:`repro.core` — knowledge base, transducers, orchestration
- :mod:`repro.extraction` — synthetic deep-web extraction (DIADEM substitute)
- :mod:`repro.matching` — schema and instance matching
- :mod:`repro.mapping` — mapping generation, selection and execution
- :mod:`repro.quality` — quality metrics, CFD learning, repair
- :mod:`repro.fusion` — duplicate detection and data fusion
- :mod:`repro.feedback` — user feedback assimilation
- :mod:`repro.context` — user context (pairwise preferences) and data context
- :mod:`repro.scenarios` — the real-estate demonstration scenario
- :mod:`repro.baselines` — static manual-ETL comparator
- :mod:`repro.wrangler` — the high-level ``Wrangler`` facade
"""

from repro.context import (
    ACCURACY,
    COMPLETENESS,
    CONSISTENCY,
    RELEVANCE,
    Criterion,
    DataContext,
    Preference,
    UserContext,
)
from repro.core import (
    Activity,
    Feedback,
    GenericNetworkTransducer,
    KnowledgeBase,
    Orchestrator,
    Predicates,
    PreferInstanceMatchingPolicy,
    Trace,
    Transducer,
    TransducerRegistry,
    TransducerResult,
)
from repro.provenance import (
    LineageTree,
    ProvenanceStore,
    SourceRef,
    explain,
    render_lineage,
)
from repro.relational import Attribute, Catalog, DataType, Schema, Table
from repro.scenarios import (
    RealEstateScenario,
    Scenario,
    ScenarioConfig,
    SynthConfig,
    family_names,
    generate_scenario,
    generate_synthetic,
    scenario_suite,
    target_schema,
)
from repro.wrangler import (
    BatchConfig,
    BatchReport,
    ScenarioRunResult,
    Wrangler,
    WranglerConfig,
    WranglingResult,
    build_default_registry,
    iter_run,
    run_batch,
    run_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # high-level API
    "Wrangler",
    "WranglerConfig",
    "WranglingResult",
    "build_default_registry",
    # core architecture
    "KnowledgeBase",
    "Transducer",
    "TransducerResult",
    "TransducerRegistry",
    "Orchestrator",
    "GenericNetworkTransducer",
    "PreferInstanceMatchingPolicy",
    "Activity",
    "Predicates",
    "Trace",
    "Feedback",
    # context
    "UserContext",
    "DataContext",
    "Preference",
    "Criterion",
    "COMPLETENESS",
    "ACCURACY",
    "CONSISTENCY",
    "RELEVANCE",
    # relational substrate
    "Schema",
    "Attribute",
    "Table",
    "Catalog",
    "DataType",
    # scenarios (hand-written and generated)
    "ScenarioConfig",
    "RealEstateScenario",
    "generate_scenario",
    "target_schema",
    "Scenario",
    "SynthConfig",
    "family_names",
    "generate_synthetic",
    "scenario_suite",
    # batch runner
    "BatchConfig",
    "BatchReport",
    "ScenarioRunResult",
    "iter_run",
    "run_batch",
    "run_scenario",
    # provenance
    "ProvenanceStore",
    "SourceRef",
    "LineageTree",
    "explain",
    "render_lineage",
]
