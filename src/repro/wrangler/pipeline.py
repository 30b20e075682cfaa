"""The high-level pay-as-you-go wrangling API.

:class:`Wrangler` is the programmatic equivalent of the paper's web
interface (Figure 3): the user registers sources and a target schema, lets
the system bootstrap automatically, and then *pays* incrementally — adding
data context, giving feedback, stating a user context — with each payment
triggering re-orchestration and (typically) a better result.

Typical usage::

    wrangler = Wrangler()
    wrangler.add_source(rightmove)
    wrangler.add_source(onthemarket)
    wrangler.add_source(deprivation)
    wrangler.set_target_schema(target)

    bootstrap = wrangler.run("bootstrap")                     # step 1
    wrangler.add_reference_data(addresses)                    # step 2
    with_context = wrangler.run("data_context")
    wrangler.simulate_feedback(ground_truth, budget=50)       # step 3
    with_feedback = wrangler.run("feedback")
    wrangler.set_user_context(user_context)                   # step 4
    final = wrangler.run("user_context")
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.context.data_context import DataContext
from repro.context.transducers import CriterionWeightTransducer
from repro.context.user_context import UserContext
from repro.cqa import (
    ConjunctiveQuery,
    EnumerationConfig,
    answer_certain,
    keys_from_cfds,
    parse_query,
    query_answers,
)
from repro.core.facts import Feedback, Predicates
from repro.core.knowledge_base import KnowledgeBase
from repro.core.orchestrator import NetworkTransducer, Orchestrator
from repro.core.registry import TransducerRegistry
from repro.core.trace import Trace
from repro.extraction.pages import ResultPage
from repro.extraction.transducers import DataExtractionTransducer, register_web_source
from repro.extraction.wrapper import SiteWrapper
from repro.feedback.annotations import FeedbackCollector, simulate_feedback
from repro.feedback.transducers import FeedbackRepairTransducer, MappingEvaluationTransducer
from repro.fusion.transducers import DataFusionTransducer, DuplicateDetectionTransducer
from repro.incremental.delta import ChangeSet, SourceRowsDelta
from repro.incremental.rewrangle import IncrementalWrangler
from repro.incremental.state import IncrementalState, incremental_state
from repro.mapping.model import SchemaMapping
from repro.mapping.transducers import (
    MAPPINGS_ARTIFACT_KEY,
    MappingGenerationTransducer,
    MappingQualityTransducer,
    MappingSelectionTransducer,
    ResultMaterialisationTransducer,
    SourceSelectionTransducer,
    result_relation_name,
    selected_mapping,
)
from repro.matching.transducers import InstanceMatchingTransducer, SchemaMatchingTransducer
from repro.provenance.explain import LineageTree, explain_result, render_lineage
from repro.provenance.model import ProvenanceStore, provenance_store
from repro.quality.stats import AnswerAgreementStats, MetricContext, QualityReport
from repro.quality.transducers import (
    CFD_ARTIFACT_KEY,
    CFDLearningTransducer,
    DataRepairTransducer,
    QualityMetricTransducer,
    build_relation_stats,
    quality_stats_stash,
)
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.wrangler.config import WranglerConfig
from repro.wrangler.result import WranglingResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service wraps us)
    from repro.service.session import WranglingSession

__all__ = [
    "Wrangler",
    "QueryOutcome",
    "build_default_registry",
    "CQA_AGREEMENT_ARTIFACT_KEY",
]

#: Artifact key for the per-query certain-vs-repaired agreement records
#: written by :meth:`Wrangler.query` in ``mode="both"``.
CQA_AGREEMENT_ARTIFACT_KEY = "cqa_agreement"


@dataclass(frozen=True)
class QueryOutcome:
    """The answers of one :meth:`Wrangler.query` call.

    ``certain`` holds the certain answers over the unrepaired base tables,
    ``repaired`` the plain answers over the current (repaired) result;
    either is ``None`` when the mode did not request it. Boolean queries
    use ``((),)`` for *certainly true* and ``()`` for *not certain*.
    """

    query: str
    mode: str
    certain: tuple[tuple, ...] | None
    repaired: tuple[tuple, ...] | None
    #: ``"rewriting"`` or ``"enumeration"`` (None when certain was skipped).
    method: str | None
    rewritable: bool | None
    reason: str
    #: The primary keys the certain semantics ran under.
    keys: dict[str, tuple[str, ...]]
    #: Jaccard overlap of certain and repaired answers (``mode="both"``).
    agreement: float | None
    #: False when a sampled/timed-out enumeration over-approximated.
    exact: bool
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """A JSON-friendly rendering (answer tuples become lists)."""
        return {
            "query": self.query,
            "mode": self.mode,
            "certain": None if self.certain is None else [list(r) for r in self.certain],
            "repaired": None if self.repaired is None else [list(r) for r in self.repaired],
            "method": self.method,
            "rewritable": self.rewritable,
            "reason": self.reason,
            "keys": {relation: list(attrs) for relation, attrs in self.keys.items()},
            "agreement": self.agreement,
            "exact": self.exact,
            "details": dict(self.details),
        }


def build_default_registry(config: WranglerConfig | None = None) -> TransducerRegistry:
    """The standard transducer complement of the architecture.

    This is the concrete instantiation of Table 1 (plus the additional
    transducers named in the paper's text): extraction, schema and instance
    matching, mapping generation, CFD learning, quality metrics, repair,
    duplicate detection, data fusion, source selection, mapping selection,
    result materialisation, mapping evaluation and criterion weighting.
    A pipeline without some of them is this registry with those
    transducers deregistered, passed as ``Wrangler(registry=...)``.
    """
    config = config or WranglerConfig()
    registry = TransducerRegistry()
    registry.register(DataExtractionTransducer())
    registry.register(SchemaMatchingTransducer(config.schema_matcher))
    registry.register(InstanceMatchingTransducer(config.instance_matcher))
    registry.register(MappingGenerationTransducer(config.mapping_generator))
    registry.register(MappingQualityTransducer())
    registry.register(CFDLearningTransducer(config.cfd_learner))
    registry.register(QualityMetricTransducer())
    registry.register(DataRepairTransducer())
    registry.register(DuplicateDetectionTransducer(config.duplicate_detector))
    registry.register(DataFusionTransducer())
    registry.register(SourceSelectionTransducer())
    registry.register(MappingSelectionTransducer())
    registry.register(ResultMaterialisationTransducer())
    registry.register(MappingEvaluationTransducer())
    registry.register(FeedbackRepairTransducer())
    registry.register(CriterionWeightTransducer())
    return registry


class Wrangler:
    """A pay-as-you-go wrangling session over one knowledge base."""

    def __init__(
        self,
        *,
        config: WranglerConfig | None = None,
        policy: NetworkTransducer | None = None,
        registry: TransducerRegistry | None = None,
    ):
        self._config = config or WranglerConfig()
        self._kb = KnowledgeBase()
        self._registry = registry if registry is not None else build_default_registry(self._config)
        self._orchestrator = Orchestrator(
            self._kb, self._registry, policy, max_steps=self._config.max_steps
        )
        self._feedback = FeedbackCollector(self._kb)
        self._target_relation: str | None = None
        self._user_context: UserContext | None = None
        # Seed the session's provenance store so every transducer records
        # (or skips, when tracking is off) against the same instance.
        self._provenance = provenance_store(self._kb, enabled=self._config.track_provenance)
        # Seed the incremental-state artifact likewise: the pipeline
        # transducers snapshot their intermediate stages into it, which is
        # what lets feedback rounds patch results instead of re-running.
        self._incremental = incremental_state(
            self._kb, enabled=self._config.enable_incremental and self._config.track_provenance
        )

    # -- accessors -------------------------------------------------------------

    @property
    def kb(self) -> KnowledgeBase:
        """The session's knowledge base."""
        return self._kb

    @property
    def registry(self) -> TransducerRegistry:
        """The registered transducers."""
        return self._registry

    @property
    def orchestrator(self) -> Orchestrator:
        """The orchestrator driving the session."""
        return self._orchestrator

    @property
    def trace(self) -> Trace:
        """The browsable orchestration trace."""
        return self._orchestrator.trace

    @property
    def target_relation(self) -> str | None:
        """Name of the declared target relation (None before it is set)."""
        return self._target_relation

    @property
    def provenance(self) -> ProvenanceStore:
        """The session's lineage store (disabled when tracking is off)."""
        return self._provenance

    @property
    def incremental(self) -> IncrementalState:
        """The incremental-engine snapshots (disabled when turned off)."""
        return self._incremental

    # -- configuration of the wrangling task (Figure 3 interactions) -------------

    def add_source(self, table: Table) -> str:
        """Register a source table (already extracted)."""
        return self._kb.register_table(table, Predicates.ROLE_SOURCE)

    def add_sources(self, tables: Iterable[Table]) -> list[str]:
        """Register several source tables."""
        return [self.add_source(table) for table in tables]

    def add_web_source(
        self, name: str, pages: Sequence[ResultPage], *, wrapper: SiteWrapper | None = None
    ) -> None:
        """Register a deep-web source as pages; extraction will wrangle it."""
        register_web_source(self._kb, name, pages, wrapper=wrapper)

    def set_target_schema(self, schema: Schema) -> None:
        """Declare the target schema the user needs (Figure 3(a))."""
        self._kb.describe_schema(schema, Predicates.ROLE_TARGET)
        self._target_relation = schema.name

    def set_data_context(self, data_context: DataContext) -> int:
        """Associate data-context tables with the target schema (Figure 3(b))."""
        return data_context.assert_into(self._kb)

    def add_reference_data(self, table: Table, *, target_relation: str | None = None) -> int:
        """Shorthand: bind one reference table to the target schema."""
        relation = target_relation or self._require_target()
        return DataContext().reference(table, relation).assert_into(self._kb)

    def add_master_data(self, table: Table, *, target_relation: str | None = None) -> int:
        """Shorthand: bind one master-data table to the target schema."""
        relation = target_relation or self._require_target()
        return DataContext().master(table, relation).assert_into(self._kb)

    def add_example_data(self, table: Table, *, target_relation: str | None = None) -> int:
        """Shorthand: bind one example-data table to the target schema."""
        relation = target_relation or self._require_target()
        return DataContext().example(table, relation).assert_into(self._kb)

    def set_user_context(self, user_context: UserContext) -> int:
        """State the user's pairwise priorities (Figure 3(d))."""
        self._user_context = user_context
        return user_context.assert_into(self._kb)

    # -- feedback (Figure 3(c)) ---------------------------------------------------

    def feedback_on_attribute(
        self, row_key: str, attribute: str, *, correct: bool, relation: str | None = None
    ) -> Feedback:
        """Attribute-level feedback on one result cell."""
        return self._feedback.annotate_attribute(
            relation or self.result_name(), row_key, attribute, correct=correct
        )

    def feedback_on_tuple(
        self, row_key: str, *, correct: bool, relation: str | None = None
    ) -> Feedback:
        """Tuple-level feedback on one result row."""
        return self._feedback.annotate_tuple(
            relation or self.result_name(), row_key, correct=correct
        )

    def add_feedback(self, annotations: Iterable[Feedback]) -> int:
        """Assert a batch of pre-built feedback annotations."""
        return self._feedback.annotate_many(annotations)

    def simulate_feedback(
        self,
        ground_truth: Table,
        *,
        budget: int = 50,
        seed: int | None = None,
        key: Sequence[str] = ("postcode", "price"),
        strategy: str = "targeted",
    ) -> int:
        """Simulate a user annotating ``budget`` result cells against ground truth.

        The default ``targeted`` strategy mirrors the paper's motivation:
        the user notices and flags values that are clearly wrong (e.g. a
        bedroom count that is actually a room area). ``seed`` defaults to
        the session's :attr:`WranglerConfig.seed`.
        """
        table = self.result()
        if table is None:
            return 0
        if seed is None:
            seed = self._config.seed
        annotations = simulate_feedback(
            table, ground_truth, key, budget=budget, seed=seed, strategy=strategy
        )
        return self.add_feedback(annotations)

    # -- incremental revisions (the cheap side of the feedback loop) -------------

    def _apply_feedback(
        self,
        annotations: Iterable[Feedback] | None = None,
        *,
        incremental: bool | None = None,
        ground_truth: Table | None = None,
        ground_truth_key: Sequence[str] = ("postcode", "price"),
        evaluate: bool = True,
    ) -> WranglingResult:
        """Assert feedback and bring the result up to date — incrementally.

        This is the feedback loop's fast path: instead of re-running the
        whole pipeline (the behaviour of :meth:`run`, still available via
        ``incremental=False``), the annotations become a typed change set,
        lineage resolves them to the exact dirty rows, and only those rows
        are re-derived — re-executed, re-fused, re-repaired — with the
        result table, the provenance store and the derived facts patched in
        place. Revisions the patch cannot represent (a flipped mapping
        selection, structural changes) automatically fall back to the full
        orchestrated re-run, so the outcome is always the same as
        ``incremental=False``; only the cost differs.

        ``incremental`` defaults to the ``enable_incremental`` config flag.
        The outcome's :class:`~repro.wrangler.result.WranglingResult` carries
        the engine's report under ``details["incremental"]``.
        """
        if annotations is not None:
            self.add_feedback(annotations)
        if incremental is None:
            incremental = self._config.enable_incremental
        if not incremental:
            return self.run(
                "feedback",
                ground_truth=ground_truth,
                ground_truth_key=ground_truth_key,
                evaluate=evaluate,
            )
        from repro.provenance.feedback import LineageFeedbackPropagator

        change_set = LineageFeedbackPropagator().emit_deltas(
            self._kb, seen=self._incremental.seen_feedback
        )
        return self._apply_change_set(
            change_set,
            phase="feedback",
            ground_truth=ground_truth,
            ground_truth_key=ground_truth_key,
            evaluate=evaluate,
        )

    def _apply_change_set(
        self,
        change_set: ChangeSet,
        *,
        phase: str = "revision",
        ground_truth: Table | None = None,
        ground_truth_key: Sequence[str] = ("postcode", "price"),
        evaluate: bool = True,
    ) -> WranglingResult:
        """Apply an arbitrary change set through the incremental engine.

        Falls back to a full orchestrated run when the engine reports the
        revision is not patchable (and after any engine error — the full
        pipeline rebuilds whatever a partial patch touched).
        """
        engine = IncrementalWrangler(self._kb, registry=self._registry)
        outcome = engine.apply(change_set)
        if not outcome.applied:
            result = self.run(
                phase,
                ground_truth=ground_truth,
                ground_truth_key=ground_truth_key,
                evaluate=evaluate,
            )
            result.details["incremental"] = outcome.describe()
            return result
        table = self.result()
        quality = None
        if evaluate and table is not None:
            quality = self.evaluate(ground_truth=ground_truth, key=ground_truth_key)
        return WranglingResult(
            phase=f"{phase}(incremental)",
            table=table,
            selected_mapping=self.selected_mapping(),
            quality=quality,
            trace=self.trace,
            steps_executed=0,
            details={
                "kb_facts": self._kb.count(),
                "kb_revision": self._kb.revision,
                "incremental": outcome.describe(),
            },
            provenance=self._provenance if self._provenance.enabled else None,
            catalog=self._kb.catalog,
        )

    def _append_source_rows(
        self,
        relation: str,
        rows: Iterable[Sequence],
        *,
        incremental: bool | None = None,
        ground_truth: Table | None = None,
        ground_truth_key: Sequence[str] = ("postcode", "price"),
        evaluate: bool = True,
    ) -> WranglingResult:
        """Append rows to a registered source and update the result.

        Existing ``source:index`` row identities stay valid, so the
        incremental engine only executes the new driving rows (plus any
        existing rows a new lookup partner unlocks) instead of re-running
        the pipeline over the whole source.
        """
        appended = tuple(tuple(row) for row in rows)
        table = self._kb.get_table(relation)
        self._kb.update_table(table.extend(appended))
        if incremental is None:
            incremental = self._config.enable_incremental
        change_set = ChangeSet(
            deltas=(SourceRowsDelta(relation=relation, appended=appended),),
            origin=f"append {len(appended)} rows to {relation}",
        )
        if not incremental:
            return self.run(
                "revision",
                ground_truth=ground_truth,
                ground_truth_key=ground_truth_key,
                evaluate=evaluate,
            )
        return self._apply_change_set(
            change_set,
            phase="revision",
            ground_truth=ground_truth,
            ground_truth_key=ground_truth_key,
            evaluate=evaluate,
        )

    # -- running -----------------------------------------------------------------------

    def run(
        self,
        phase: str = "",
        *,
        ground_truth: Table | None = None,
        ground_truth_key: Sequence[str] = ("postcode", "price"),
        evaluate: bool = True,
    ) -> WranglingResult:
        """Orchestrate to quiescence and package the outcome of this stage.

        ``evaluate=False`` skips the quality report (an O(rows) diagnostic),
        leaving ``result.quality`` as None — useful when the caller only
        needs the materialised table (benchmark loops, validation harnesses).
        """
        steps_before = len(self.trace)
        self._orchestrator.set_phase(phase)
        self._orchestrator.run()
        steps_executed = len(self.trace) - steps_before
        table = self.result()
        quality = None
        if evaluate and table is not None:
            quality = self.evaluate(ground_truth=ground_truth, key=ground_truth_key)
        return WranglingResult(
            phase=phase or "run",
            table=table,
            selected_mapping=self.selected_mapping(),
            quality=quality,
            trace=self.trace,
            steps_executed=steps_executed,
            details={"kb_facts": self._kb.count(), "kb_revision": self._kb.revision},
            provenance=self._provenance if self._provenance.enabled else None,
            catalog=self._kb.catalog,
        )

    def session(self, *, session_id: str | None = None,
                name: str | None = None) -> "WranglingSession":
        """The coherent, typed session surface over this wrangler.

        This is the recommended entry point for the interactive loop: one
        :class:`~repro.service.session.WranglingSession` per data context,
        driven by typed requests (``FeedbackRequest``, ``AppendRequest``,
        ``ExplainRequest``, …) shared by the in-process, CLI and HTTP entry
        points, with checkpoint/restore built in.
        """
        from repro.service.session import WranglingSession

        return WranglingSession(self, session_id=session_id, name=name)

    def step(self):
        """Execute a single orchestration step (None when quiescent)."""
        return self._orchestrator.step()

    # -- results -------------------------------------------------------------------------

    def result_name(self) -> str:
        """Name of the materialised result relation."""
        return result_relation_name(self._require_target())

    def result(self) -> Table | None:
        """The current materialised result (None before materialisation)."""
        if self._target_relation is None:
            return None
        name = result_relation_name(self._target_relation)
        if not self._kb.has_table(name):
            return None
        return self._kb.get_table(name)

    def selected_mapping(self) -> SchemaMapping | None:
        """The currently selected mapping (None before selection)."""
        return selected_mapping(self._kb)

    def candidate_mappings(self) -> list[SchemaMapping]:
        """All candidate mappings currently known."""
        return sorted(
            self._kb.get_artifact(MAPPINGS_ARTIFACT_KEY, {}).values(),
            key=lambda mapping: mapping.mapping_id,
        )

    def explain(self, row: int | str, column: str | None = None) -> LineageTree:
        """Why-provenance of one result cell (or tuple when ``column`` is None).

        The returned tree has the annotated value at the root, one branch
        per why-provenance witness, and the contributing *source rows*
        (resolved from the catalog) at the leaves. Identical to
        :meth:`WranglingResult.explain <repro.wrangler.result.WranglingResult.explain>`
        — both route through :func:`repro.provenance.explain.explain_result`.
        Raises ``LookupError`` when there is no result yet or tracking is
        disabled.
        """
        return explain_result(
            self.result(), self._provenance, row, column, catalog=self._kb.catalog
        )

    def explain_text(self, row: int | str, column: str | None = None) -> str:
        """Human-readable rendering of :meth:`explain`."""
        return render_lineage(self.explain(row, column))

    # -- querying ------------------------------------------------------------------------

    def query(
        self,
        query: "ConjunctiveQuery | str",
        *,
        mode: str = "certain",
        keys: Mapping[str, Sequence[str] | str] | None = None,
        enumeration: EnumerationConfig | None = None,
        record: bool = True,
    ) -> QueryOutcome:
        """Answer a conjunctive query over the wrangled result.

        ``mode="certain"`` computes the answers that hold in *every* repair
        of the unrepaired base tables (the pre-repair, pre-feedback
        snapshot kept by the incremental engine) — rewritable queries run
        as datalog over the dirty tables, everything else falls back to
        bounded repair enumeration governed by ``enumeration``.
        ``mode="repaired"`` evaluates plainly over the current result;
        ``mode="both"`` computes the two and records their agreement as a
        quality signal (see ``CQA_AGREEMENT_ARTIFACT_KEY`` and the
        ``answer_agreement`` criterion), unless ``record=False``.

        Atoms may name the target relation (or the result relation) for the
        wrangled result; any other relation resolves from the catalog
        (lookup/reference/source tables, treated as consistent unless
        ``keys`` says otherwise). ``keys`` overrides the primary keys; by
        default they are derived from the exact CFDs learned by the
        pipeline.
        """
        if mode not in ("certain", "repaired", "both"):
            raise ValueError(f"unknown query mode {mode!r}; use certain, repaired or both")
        parsed = parse_query(query) if isinstance(query, str) else query
        text = str(parsed)
        schemas, certain_tables, repaired_tables, details = self._query_environment(parsed)
        resolved_keys = self._resolve_query_keys(schemas, keys)
        certain = repaired = None
        method = rewritable = agreement = None
        reason = ""
        exact = True
        if mode != "repaired":
            outcome = answer_certain(
                parsed, schemas, certain_tables, resolved_keys, enumeration=enumeration
            )
            certain = outcome.answers
            method = outcome.method
            rewritable = outcome.classification.rewritable
            reason = outcome.classification.reason
            exact = outcome.exact
            if outcome.enumeration is not None:
                details.update(
                    repairs_evaluated=outcome.enumeration.repairs_evaluated,
                    total_repairs=outcome.enumeration.total_repairs,
                    truncated=outcome.enumeration.truncated,
                    timed_out=outcome.enumeration.timed_out,
                )
        if mode != "certain":
            repaired = query_answers(parsed, schemas, repaired_tables)
        if certain is not None and repaired is not None:
            union = set(certain) | set(repaired)
            overlap = set(certain) & set(repaired)
            agreement = 1.0 if not union else len(overlap) / len(union)
            if record:
                self._record_query_agreement(text, certain, repaired, method, agreement)
        return QueryOutcome(
            query=text,
            mode=mode,
            certain=certain,
            repaired=repaired,
            method=method,
            rewritable=rewritable,
            reason=reason,
            keys=resolved_keys,
            agreement=agreement,
            exact=exact,
            details=details,
        )

    def _query_environment(self, parsed: ConjunctiveQuery):
        """Resolve every query relation to rows and schemas, in both modes.

        The target (or result) relation binds to the unrepaired base
        snapshot for certain semantics and to the current result for
        repaired semantics; catalog relations are the same in both.
        """
        target = self._require_target()
        result = self.result()
        if result is None:
            raise ValueError(
                "no result has been materialised yet; run the pipeline before querying"
            )
        result_name = result_relation_name(target)
        schemas: dict[str, tuple[str, ...]] = {}
        certain_tables: dict[str, list[tuple]] = {}
        repaired_tables: dict[str, list[tuple]] = {}
        details: dict[str, Any] = {}
        for relation in dict.fromkeys(parsed.relations()):
            if relation in (target, result_name):
                schemas[relation] = tuple(result.schema.attribute_names)
                repaired_tables[relation] = result.tuples()
                rows, note = self._unrepaired_rows(result)
                certain_tables[relation] = rows
                if note:
                    details["base_note"] = note
            else:
                if not self._kb.has_table(relation):
                    raise ValueError(f"unknown relation {relation!r} in query")
                table = self._kb.get_table(relation)
                schemas[relation] = tuple(table.schema.attribute_names)
                repaired_tables[relation] = table.tuples()
                certain_tables[relation] = table.tuples()
        return schemas, certain_tables, repaired_tables, details

    def _unrepaired_rows(self, result: Table) -> tuple[list[tuple], str]:
        """The pre-repair, pre-feedback rows of the result relation.

        Falls back to the current (repaired) result with a note when the
        incremental engine has no trustworthy base snapshot — certain
        answers are then certain with respect to that instance instead.
        """
        state = self._incremental.get(result.name)
        if state is None or not state.ready:
            return result.tuples(), "unrepaired snapshot unavailable; queried the current result"
        if tuple(state.schema.attribute_names) != tuple(result.schema.attribute_names):
            return result.tuples(), "base snapshot schema is stale; queried the current result"
        rows = [state.base[key] for key in state.order if key in state.base]
        if not rows:
            return result.tuples(), "base snapshot empty; queried the current result"
        return rows, ""

    def _resolve_query_keys(
        self,
        schemas: Mapping[str, Sequence[str]],
        keys: Mapping[str, Sequence[str] | str] | None,
    ) -> dict[str, tuple[str, ...]]:
        """Explicit keys win; otherwise derive them from exact learned CFDs.

        Keys declared under the target relation name also cover the result
        relation name and vice versa, matching atom-name aliasing.
        """
        target = self._target_relation
        result_name = result_relation_name(target) if target is not None else None
        aliases = {target: result_name, result_name: target}
        if keys is not None:
            resolved: dict[str, tuple[str, ...]] = {}
            for relation, attrs in dict(keys).items():
                key = (attrs,) if isinstance(attrs, str) else tuple(attrs)
                if not key:
                    continue
                name = relation
                if name not in schemas and aliases.get(name) in schemas:
                    name = aliases[name]
                resolved[name] = key
            return resolved
        learned = self._kb.get_artifact(CFD_ARTIFACT_KEY)
        if learned is None or not learned.cfds:
            return {}
        cfd_schemas = dict(schemas)
        for name, alias in aliases.items():
            if alias in cfd_schemas and name is not None and name not in cfd_schemas:
                cfd_schemas[name] = cfd_schemas[alias]
        underscored = {
            attribute
            for attrs in schemas.values()
            for attribute in attrs
            if attribute.startswith("_")
        }
        exclude = tuple(sorted(underscored)) or ("_row_id",)
        derived = keys_from_cfds(learned.cfds, cfd_schemas, exclude=exclude)
        resolved = {}
        for relation, key in derived.items():
            name = relation
            if name not in schemas and aliases.get(name) in schemas:
                name = aliases[name]
            if name in schemas:
                resolved[name] = key
        return resolved

    def _record_query_agreement(
        self, text: str, certain, repaired, method, agreement: float
    ) -> None:
        """Fold one ``mode="both"`` observation into the quality artifacts."""
        result = self.result()
        if result is not None:
            stash = quality_stats_stash(self._kb, create=False)
            entry = stash.get(result.name) if stash is not None else None
            if entry is not None:
                if entry.stats.answer_agreement is None:
                    entry.stats.answer_agreement = AnswerAgreementStats()
                entry.stats.answer_agreement.observe(text, certain, repaired)
        records = dict(self._kb.get_artifact(CQA_AGREEMENT_ARTIFACT_KEY) or {})
        records[text] = {
            "agreement": agreement,
            "certain_answers": len(set(certain)),
            "repaired_answers": len(set(repaired)),
            "method": method,
        }
        self._kb.store_artifact(CQA_AGREEMENT_ARTIFACT_KEY, records)

    def evaluate(
        self,
        *,
        ground_truth: Table | None = None,
        key: Sequence[str] = ("postcode", "price"),
        use_stats: bool | None = None,
    ) -> QualityReport | None:
        """Quality of the current result.

        With ``ground_truth`` the result is scored against it: the ground
        truth is both the reference and the master data, joined on the
        attributes of ``key`` both tables have. Otherwise the result is
        scored against its target's data context — mirroring what the
        system itself can know — exactly as the metric transducer scores it
        (:func:`~repro.quality.transducers.build_relation_stats`).

        When the session's quality statistics are fresh — synced at the
        current knowledge-base revision and built under the current CFD and
        data-context revisions — the report is finalised from them without
        rescanning the table. Otherwise, or with ``use_stats=False`` (the
        validation harness compares both), the table is rescanned.
        """
        table = self.result()
        if table is None:
            return None
        if ground_truth is not None:
            learned = self._kb.get_artifact(CFD_ARTIFACT_KEY)
            shared_key = [k for k in key if k in table.schema and k in ground_truth.schema]
            context = MetricContext(
                cfds=learned.cfds if learned else (),
                witnesses=learned.witnesses if learned else {},
                reference=ground_truth,
                reference_key=shared_key,
                master=ground_truth,
                master_key=shared_key,
            )
            return context.build(table).finalise()
        stash = quality_stats_stash(self._kb, create=False)
        if use_stats is not False and stash is not None and stash.fresh(self._kb, table.name):
            return stash.report(table.name)
        report = build_relation_stats(self._kb, table.name).finalise()
        # A rescan knows nothing about queries: graft back the certain-vs-
        # repaired agreement that query() observed. Its observations are
        # keyed by query text, so even a stale stash entry carries them.
        entry = stash.get(table.name) if stash is not None else None
        if entry is None or entry.stats.answer_agreement is None:
            return report
        return replace(report, answer_agreement=entry.stats.answer_agreement.value())

    def manual_actions(self) -> int:
        """How many manual configuration actions the user has performed.

        Counts the interactions of Figure 3: registering sources and the
        target schema, each data-context binding, each feedback annotation
        and each pairwise preference. Used by the cost-effectiveness
        benchmark as the effort proxy.
        """
        actions = len(self._kb.facts(Predicates.DATASET))
        actions += len(self._kb.target_relations())
        actions += len(self._kb.facts(Predicates.DATA_CONTEXT))
        actions += len(self._kb.facts(Predicates.FEEDBACK))
        actions += len(self._kb.facts(Predicates.PREFERENCE))
        return actions

    # -- internals --------------------------------------------------------------------------

    def _require_target(self) -> str:
        if self._target_relation is None:
            raise ValueError("no target schema has been set; call set_target_schema first")
        return self._target_relation
