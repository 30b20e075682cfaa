"""Quality transducers: CFD learning, quality metrics and repair.

Table 1 names "CFD Learning — Data Examples"; §2.3 describes the Quality
Metric transducer becoming able to run once the data context provides
reference data, "adding quality metrics on sources and mappings to the
knowledge base", which in turn enables source/mapping selection.

The metric transducer evaluates through the sufficient-statistic layer
(:mod:`repro.quality.stats`) and stashes the per-relation accumulators as
the ``quality_stats`` artifact. Whatever rewrites a scored table afterwards
— the two repairers, the incremental engine — passes the old and new rows
to :func:`patch_relation_stats`, which patches the accumulators and the
``metric`` facts they finalise into instead of rescanning the table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Collection, Iterable

from repro.core.facts import (
    Predicates,
    cfd_fact,
    metric_fact,
    repair_fact,
    result_relation_name,
)
from repro.core.knowledge_base import KnowledgeBase
from repro.core.transducer import Activity, Transducer, TransducerResult
from repro.incremental.state import incremental_state
from repro.provenance.model import provenance_store
from repro.quality.cfd_learning import CFDLearner, CFDLearnerConfig, LearnedCFDs
from repro.quality.repair import CFDRepairer
from repro.quality.stats import MetricContext, QualityStats

__all__ = [
    "CFD_ARTIFACT_KEY",
    "QUALITY_STATS_ARTIFACT_KEY",
    "QualityStatsEntry",
    "QualityStatsStash",
    "quality_context_token",
    "quality_stats_stash",
    "metric_context",
    "build_relation_stats",
    "patch_relation_stats",
    "CFDLearningTransducer",
    "QualityMetricTransducer",
    "DataRepairTransducer",
]

#: Artifact key under which learned CFDs (with witnesses) are stored in the KB.
CFD_ARTIFACT_KEY = "learned_cfds"

#: Artifact key for the session's maintained quality statistics
#: (:class:`QualityStatsStash`).
QUALITY_STATS_ARTIFACT_KEY = "quality_stats"


@dataclass
class QualityStatsEntry:
    """One relation's maintained accumulators plus its metric-fact subject."""

    subject_kind: str
    stats: QualityStats


class QualityStatsStash:
    """Per-session quality statistics, keyed by relation.

    ``context_token`` records the data-context/CFD revisions the entries
    were built against — entries are only patchable while it matches (a new
    reference table or refreshed CFDs change what the accumulators mean).
    ``synced_revision`` is the knowledge-base revision at which the entries
    were last known to exactly reflect the catalog tables; consumers like
    :meth:`Wrangler.evaluate <repro.wrangler.pipeline.Wrangler.evaluate>`
    use the finalised reports only when it still matches.
    """

    def __init__(self) -> None:
        self.entries: dict[str, QualityStatsEntry] = {}
        self.context_token: tuple = ()
        self.synced_revision: int = -1

    def get(self, relation: str) -> QualityStatsEntry | None:
        """The entry of one relation (None when untracked)."""
        return self.entries.get(relation)

    def report(self, relation: str):
        """The finalised :class:`~repro.quality.stats.QualityReport` (or None)."""
        entry = self.entries.get(relation)
        return entry.stats.finalise() if entry is not None else None

    def fresh(self, kb: KnowledgeBase, relation: str) -> bool:
        """Whether ``relation``'s entry exactly reflects the current KB."""
        return (
            relation in self.entries
            and self.synced_revision == kb.revision
            and self.context_token == quality_context_token(kb)
        )


def quality_context_token(kb: KnowledgeBase) -> tuple:
    """Revisions of the inputs the metric evaluation context derives from.

    The accumulators embed the reference index, the CFD/witness set and the
    master-key set; those change exactly when ``cfd`` or ``data_context``
    facts do (context tables are registered once and treated as immutable,
    like everywhere else in the pipeline).
    """
    return (
        kb.predicate_revision(Predicates.CFD),
        kb.predicate_revision(Predicates.DATA_CONTEXT),
    )


def quality_stats_stash(kb: KnowledgeBase, *, create: bool = True) -> QualityStatsStash | None:
    """The session's stash (created on first use, like the provenance store)."""
    stash = kb.get_artifact(QUALITY_STATS_ARTIFACT_KEY)
    if stash is None and create:
        stash = QualityStatsStash()
        kb.store_artifact(QUALITY_STATS_ARTIFACT_KEY, stash)
    return stash


def metric_context(kb: KnowledgeBase, target_relation: str | None = None) -> MetricContext:
    """The evaluation context of relations bound to ``target_relation``.

    The learned CFDs, and the first reference and the first master table
    bound to that target, each with its join key. Without a target, the
    first table of each kind bound to any target: the context sources are
    scored against.
    """
    learned: LearnedCFDs | None = kb.get_artifact(CFD_ARTIFACT_KEY)
    reference, reference_key = _context_table(kb, Predicates.CONTEXT_REFERENCE, target_relation)
    master, master_key = _context_table(kb, Predicates.CONTEXT_MASTER, target_relation)
    return MetricContext(
        cfds=learned.cfds if learned else (),
        witnesses=learned.witnesses if learned else {},
        reference=reference,
        reference_key=reference_key,
        master=master,
        master_key=master_key,
    )


def _context_table(kb: KnowledgeBase, kind: str, target_relation: str | None):
    """The first data-context table of ``kind`` for ``target_relation`` plus a key.

    Reference data is joined on an identifying attribute (a postcode-like
    attribute when one exists) so the *other* shared attributes can be
    checked for accuracy. Master data instead describes whole entities, so
    all shared attributes together form the coverage key for relevance.
    """
    for context_name, context_kind, bound_target in kb.facts(Predicates.DATA_CONTEXT):
        if context_kind != kind or not kb.has_table(context_name):
            continue
        if target_relation is not None and bound_target != target_relation:
            continue
        table = kb.get_table(context_name)
        target_schema = kb.schema_of(bound_target)
        shared = [name for name in table.schema.attribute_names if name in target_schema]
        if not shared:
            continue
        if kind == Predicates.CONTEXT_MASTER:
            key = shared
        else:
            key = [name for name in shared if "postcode" in name.lower()] or shared[:1]
        return table, key
    return None, []


def build_relation_stats(
    kb: KnowledgeBase, relation: str, contexts: dict | None = None
) -> QualityStats:
    """Fresh accumulators for one relation against the current data context.

    Exactly the evaluation the metric transducer performs for that relation:
    a result is scored against its own target's :func:`metric_context`, a
    source against the context without a target. ``contexts`` (target →
    context) carries the contexts, with the indexes they built, from one
    call to the next.
    """
    target = next(
        (name for name in kb.target_relations() if result_relation_name(name) == relation), None
    )
    if contexts is None:
        contexts = {}
    if target not in contexts:
        contexts[target] = metric_context(kb, target)
    return contexts[target].build(kb.get_table(relation))


def patch_relation_stats(
    kb: KnowledgeBase,
    relation: str,
    old_rows: Collection[tuple] | None,
    new_rows: Iterable[tuple] = (),
    contexts: dict | None = None,
) -> bool:
    """Keep ``relation``'s stash entry and ``metric`` facts in step with a rewrite.

    The rewrite replaced ``old_rows`` by ``new_rows`` (the table is already
    updated): rows only the old side holds leave the accumulators, rows only
    the new side holds join them, compared as multisets. When the entry's
    row count does not match ``old_rows``, or ``old_rows`` is None, the
    entry is rebuilt from the current table with
    :func:`build_relation_stats` instead. The relation's ``metric`` facts
    are re-asserted only when their values changed, so an unchanged report
    wakes no transducer. Returns False when the relation has no entry (the
    metric transducer scores it when it next runs).
    """
    stash = quality_stats_stash(kb, create=False)
    entry = stash.get(relation) if stash is not None else None
    if entry is None:
        return False
    if old_rows is None or entry.stats.row_count != len(old_rows):
        entry.stats = build_relation_stats(kb, relation, contexts)
    else:
        changes = Counter(old_rows)
        changes.subtract(new_rows)
        for row, count in changes.items():
            for _ in range(count):
                entry.stats.remove_row(row)
            for _ in range(-count):
                entry.stats.add_row(row)
    facts = [
        metric_fact(entry.subject_kind, relation, criterion, value)
        for criterion, value in entry.stats.finalise().as_dict().items()
    ]
    current = {
        row for row in kb.facts(Predicates.METRIC) if row[:2] == (entry.subject_kind, relation)
    }
    if current != {values for _predicate, values in facts}:
        kb.retract_where(Predicates.METRIC, p0=entry.subject_kind, p1=relation)
        for fact in facts:
            kb.assert_tuple(fact)
    return True


class CFDLearningTransducer(Transducer):
    """Learns CFDs from data-context tables bound to the target schema."""

    name = "cfd_learning"
    activity = Activity.QUALITY
    priority = 10
    input_dependencies = ("data_context(C, K, T)",)

    def __init__(self, config: CFDLearnerConfig | None = None):
        super().__init__()
        self._learner = CFDLearner(config)

    def run(self, kb: KnowledgeBase) -> TransducerResult:
        all_cfds: list = []
        witnesses: dict = {}
        learned_from = []
        for context_name, _kind, target_relation in kb.facts(Predicates.DATA_CONTEXT):
            if not kb.has_table(context_name):
                continue
            reference = kb.get_table(context_name)
            target_schema = kb.schema_of(target_relation)
            # Only translate attributes that exist in the target schema.
            attribute_map = {
                name: name for name in reference.schema.attribute_names if name in target_schema
            }
            if len(attribute_map) < 2:
                continue
            learned = self._learner.learn(
                reference, target_relation=target_relation, attribute_map=attribute_map
            )
            all_cfds.extend(learned.cfds)
            witnesses.update(learned.witnesses)
            learned_from.append(context_name)
        kb.store_artifact(CFD_ARTIFACT_KEY, LearnedCFDs(cfds=all_cfds, witnesses=witnesses))
        added = 0
        for cfd in all_cfds:
            added += int(kb.assert_tuple(cfd_fact(*cfd.to_fact_fields())))
        return TransducerResult(
            facts_added=added,
            notes=f"learned {len(all_cfds)} CFDs from {learned_from}",
            details={"cfds": [cfd.describe() for cfd in all_cfds]},
        )


class QualityMetricTransducer(Transducer):
    """Computes quality metrics for sources and materialised results.

    Completeness is always computable; accuracy, consistency and relevance
    additionally use whatever data context is available (reference data for
    accuracy/consistency via CFDs, master data for relevance). Metrics are
    asserted as ``metric`` facts on sources and results, which is what the
    selection transducers consume. The sufficient statistics behind every
    report are stashed (``quality_stats`` artifact) so later revisions can
    patch the metrics instead of rescanning: a repair rewrite does so itself
    (:func:`patch_relation_stats`), so ``repair`` facts are not watched.
    """

    name = "quality_metrics"
    activity = Activity.QUALITY
    priority = 20
    input_dependencies = ("dataset(S, R, N)",)
    watch_predicates = ("cfd", "data_context", "result")

    def run(self, kb: KnowledgeBase) -> TransducerResult:
        contexts: dict = {}
        added = 0
        evaluated = []
        stash = quality_stats_stash(kb)
        stash.entries = {}
        stash.context_token = quality_context_token(kb)
        subjects = [(Predicates.ROLE_SOURCE, name) for name in kb.source_relations()]
        subjects += [("result", row[0]) for row in kb.facts(Predicates.RESULT)]
        # Metric facts are derived state: replace, never accumulate (stale
        # values sort after fresh ones in the KB's deterministic fact order
        # and would win last-per-criterion reads in the selection consumers).
        kb.retract_where(Predicates.METRIC)
        for subject_kind, relation in subjects:
            if not kb.has_table(relation):
                continue
            entry = QualityStatsEntry(subject_kind, build_relation_stats(kb, relation, contexts))
            stash.entries[relation] = entry
            for criterion, value in entry.stats.finalise().as_dict().items():
                fact = metric_fact(subject_kind, relation, criterion, value)
                added += int(kb.assert_tuple(fact))
            evaluated.append(relation)
        # Stamped after the assertions: the entries reflect the KB exactly
        # as it stands when this transducer hands back control.
        stash.synced_revision = kb.revision
        return TransducerResult(
            facts_added=added,
            notes=f"computed metrics for {len(evaluated)} datasets",
            details={"evaluated": evaluated},
        )


class DataRepairTransducer(Transducer):
    """Repairs materialised results using the learned CFDs."""

    name = "data_repair"
    activity = Activity.REPAIR
    priority = 10
    input_dependencies = (
        "result(R, M, N)",
        "cfd(I, Rel, L, Rh, S)",
    )

    def __init__(self, repairer: CFDRepairer | None = None):
        super().__init__()
        self._repairer = repairer or CFDRepairer()

    @property
    def repairer(self) -> CFDRepairer:
        """The configured repairer (shared with the incremental engine)."""
        return self._repairer

    def run(self, kb: KnowledgeBase) -> TransducerResult:
        learned: LearnedCFDs | None = kb.get_artifact(CFD_ARTIFACT_KEY)
        if not learned or not learned.cfds:
            return TransducerResult(notes="no learned CFDs available")
        added = 0
        repaired_tables = []
        total_actions = 0
        store = provenance_store(kb)
        state = incremental_state(kb, create=False)
        for relation, _mapping_id, _rows in kb.facts(Predicates.RESULT):
            if not kb.has_table(relation):
                continue
            table = kb.get_table(relation)
            result = self._repairer.repair(
                table, learned.cfds, witnesses=learned.witnesses, provenance=store
            )
            if not result.actions:
                continue
            kb.update_table(result.table)
            if state is not None:
                state.observe_table_updated(result.table)
            patch_relation_stats(kb, relation, table.tuples(), result.table.tuples())
            repaired_tables.append(relation)
            total_actions += len(result.actions)
            row_keys = result.table.row_keys()
            for action in result.actions:
                fact = repair_fact(
                    action.relation,
                    row_keys[action.row_index],
                    action.attribute,
                    action.old_value,
                    action.new_value,
                    action.cfd_id,
                )
                added += int(kb.assert_tuple(fact))
        return TransducerResult(
            facts_added=added,
            tables_written=repaired_tables,
            notes=f"repaired {total_actions} cells in {len(repaired_tables)} tables",
            details={"actions": total_actions},
        )
