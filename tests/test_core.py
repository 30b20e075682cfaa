"""Unit tests for the core architecture: KB, transducers, orchestrator, trace."""

from __future__ import annotations

import pytest

from repro.core import (
    Activity,
    GenericNetworkTransducer,
    KnowledgeBase,
    KnowledgeBaseError,
    Orchestrator,
    OrchestrationError,
    Predicates,
    PreferInstanceMatchingPolicy,
    RegistryError,
    RoundRobinPolicy,
    Trace,
    TraceStep,
    Transducer,
    TransducerRegistry,
    TransducerResult,
)
from repro.core.errors import DependencyError, TransducerError
from repro.relational import Attribute, DataType, Schema, Table


def make_table(name: str = "rightmove") -> Table:
    schema = Schema(name, [Attribute("price", DataType.FLOAT),
                           Attribute("postcode", DataType.STRING)])
    return Table(schema, [(100000.0, "M1 1AA"), (200000.0, "M2 2BB")])


class RecordingTransducer(Transducer):
    """Asserts a fixed fact; used to exercise the orchestration machinery."""

    activity = Activity.MATCHING
    input_dependencies = ("schema(S, source)",)

    def __init__(self, name: str, output_predicate: str = "match_done", priority: int = 100):
        self.name = name
        self.priority = priority
        super().__init__()
        self._output_predicate = output_predicate

    def run(self, kb: KnowledgeBase) -> TransducerResult:
        added = kb.assert_fact(self._output_predicate, self.name)
        return TransducerResult(facts_added=int(added), notes="ran")


class TestKnowledgeBase:
    def test_assert_and_query_facts(self):
        kb = KnowledgeBase()
        assert kb.assert_fact("match", "rightmove", "price", "property", "price", 0.9)
        assert not kb.assert_fact("match", "rightmove", "price", "property", "price", 0.9)
        assert kb.has("match", "rightmove", "price", "property", "price", 0.9)
        assert kb.count("match") == 1

    def test_revision_tracking(self):
        kb = KnowledgeBase()
        base = kb.revision
        kb.assert_fact("schema", "s", "source")
        assert kb.revision == base + 1
        assert kb.predicate_revision("schema") == kb.revision
        kb.assert_fact("schema", "s", "source")  # duplicate: no bump
        assert kb.revision == base + 1
        kb.retract_fact("schema", "s", "source")
        assert kb.revision == base + 2

    def test_retract_where_by_position(self):
        kb = KnowledgeBase()
        kb.assert_fact("match", "a", "x", "t", "x", 0.5)
        kb.assert_fact("match", "b", "y", "t", "y", 0.6)
        removed = kb.retract_where("match", p0="a")
        assert removed == 1
        assert kb.count("match") == 1

    def test_register_table_creates_metadata(self):
        kb = KnowledgeBase()
        kb.register_table(make_table(), Predicates.ROLE_SOURCE)
        assert kb.has("schema", "rightmove", "source")
        assert kb.count("attribute") == 2
        assert kb.source_relations() == ["rightmove"]
        assert kb.get_table("rightmove").row_count == 2

    def test_register_table_rejects_unknown_role(self):
        kb = KnowledgeBase()
        with pytest.raises(KnowledgeBaseError):
            kb.register_table(make_table(), "nonsense")

    def test_update_table_refreshes_row_count(self):
        kb = KnowledgeBase()
        table = make_table()
        kb.register_table(table, Predicates.ROLE_SOURCE)
        bigger = table.extend([(300000.0, "M3 3CC")])
        kb.update_table(bigger)
        assert kb.has("dataset", "rightmove", "source", 3)

    def test_schema_of_metadata_only_relation(self):
        kb = KnowledgeBase()
        schema = Schema("property", [Attribute("price", DataType.FLOAT),
                                     Attribute("postcode", DataType.STRING)])
        kb.describe_schema(schema, Predicates.ROLE_TARGET)
        rebuilt = kb.schema_of("property")
        assert rebuilt.attribute_names == ("price", "postcode")
        assert kb.target_relations() == ["property"]

    def test_schema_of_unknown_relation_raises(self):
        with pytest.raises(KnowledgeBaseError):
            KnowledgeBase().schema_of("ghost")

    def test_datalog_query_with_helper_rules(self):
        kb = KnowledgeBase()
        kb.assert_fact("schema", "rightmove", "source")
        kb.assert_fact("schema", "property", "target")
        rows = kb.query("ready(S, T)",
                        "ready(S, T) :- schema(S, source), schema(T, target).")
        assert rows == [("rightmove", "property")]

    def test_query_unknown_predicate_is_empty(self):
        assert KnowledgeBase().query("nothing(X)") == []

    def test_satisfied(self):
        kb = KnowledgeBase()
        kb.assert_fact("schema", "s", "source")
        assert kb.satisfied(["schema(S, source)"])
        assert not kb.satisfied(["schema(S, source)", "schema(T, target)"])

    def test_artifacts(self):
        kb = KnowledgeBase()
        kb.store_artifact("thing", {"a": 1})
        assert kb.has_artifact("thing")
        assert kb.get_artifact("thing") == {"a": 1}
        assert kb.get_artifact("missing", 42) == 42
        assert kb.artifact_keys() == ["thing"]

    def test_snapshot(self):
        kb = KnowledgeBase()
        kb.assert_fact("schema", "s", "source")
        assert kb.snapshot() == {"schema": [("s", "source")]}


class TestTransducer:
    def test_dependencies_must_parse(self):
        class Broken(Transducer):
            input_dependencies = ("this is not datalog(",)

            def run(self, kb):  # pragma: no cover - never reached
                return TransducerResult()

        with pytest.raises(DependencyError):
            Broken()

    def test_can_run_requires_satisfied_dependencies(self):
        kb = KnowledgeBase()
        transducer = RecordingTransducer("matcher")
        assert not transducer.can_run(kb)
        kb.register_table(make_table(), Predicates.ROLE_SOURCE)
        assert transducer.can_run(kb)

    def test_rerun_only_after_input_change(self):
        kb = KnowledgeBase()
        kb.register_table(make_table(), Predicates.ROLE_SOURCE)
        transducer = RecordingTransducer("matcher")
        transducer.execute(kb)
        assert not transducer.can_run(kb)
        kb.assert_fact("schema", "onthemarket", "source")
        assert transducer.can_run(kb)

    def test_own_output_does_not_retrigger(self):
        kb = KnowledgeBase()
        kb.register_table(make_table(), Predicates.ROLE_SOURCE)

        class SelfFeeding(Transducer):
            activity = Activity.MATCHING
            input_dependencies = ("schema(S, source)",)

            def run(self, inner_kb):
                added = inner_kb.assert_fact("schema", "derived", "source")
                return TransducerResult(facts_added=int(added))

        transducer = SelfFeeding()
        transducer.execute(kb)
        assert not transducer.can_run(kb)

    def test_watch_predicates_extend_input_predicates(self):
        class Watching(RecordingTransducer):
            watch_predicates = ("feedback",)

        transducer = Watching("watcher")
        assert "feedback" in transducer.input_predicates()
        assert "schema" in transducer.input_predicates()

    def test_execute_wraps_failures(self):
        class Exploding(Transducer):
            input_dependencies = ()

            def run(self, kb):
                raise ValueError("boom")

        with pytest.raises(TransducerError):
            Exploding().execute(KnowledgeBase())

    def test_describe_and_reset(self):
        transducer = RecordingTransducer("matcher")
        kb = KnowledgeBase()
        kb.register_table(make_table(), Predicates.ROLE_SOURCE)
        transducer.execute(kb)
        description = transducer.describe()
        assert description["name"] == "matcher"
        assert description["runs"] == 1
        transducer.reset()
        assert not transducer.has_run


class TestRegistry:
    def test_register_and_lookup(self):
        registry = TransducerRegistry([RecordingTransducer("a"), RecordingTransducer("b")])
        assert len(registry) == 2
        assert registry.get("a").name == "a"
        assert "b" in registry
        assert registry.names() == ["a", "b"]

    def test_duplicate_names_rejected(self):
        registry = TransducerRegistry([RecordingTransducer("a")])
        with pytest.raises(RegistryError):
            registry.register(RecordingTransducer("a"))
        registry.register(RecordingTransducer("a"), replace=True)

    def test_unknown_lookup_raises(self):
        with pytest.raises(RegistryError):
            TransducerRegistry().get("ghost")

    def test_by_activity(self):
        registry = TransducerRegistry([RecordingTransducer("a")])
        assert [t.name for t in registry.by_activity(Activity.MATCHING)] == ["a"]
        assert registry.by_activity(Activity.MAPPING) == []


class TestOrchestrator:
    def test_runs_until_quiescent(self):
        kb = KnowledgeBase()
        kb.register_table(make_table(), Predicates.ROLE_SOURCE)
        orchestrator = Orchestrator(kb, [RecordingTransducer("a"), RecordingTransducer("b")])
        trace = orchestrator.run()
        assert len(trace) == 2
        assert orchestrator.runnable() == []

    def test_generic_policy_orders_by_activity_then_priority(self):
        kb = KnowledgeBase()
        kb.register_table(make_table(), Predicates.ROLE_SOURCE)

        class Extractor(RecordingTransducer):
            activity = Activity.EXTRACTION

        matcher = RecordingTransducer("matcher", priority=50)
        extractor = Extractor("extractor", priority=99)
        policy = GenericNetworkTransducer()
        chosen = policy.choose([matcher, extractor], kb, Trace())
        assert chosen is extractor

    def test_prefer_instance_matching_policy(self):
        kb = KnowledgeBase()
        schema_matcher = RecordingTransducer("schema_matching", priority=1)
        instance_matcher = RecordingTransducer("instance_matching", priority=99)
        policy = PreferInstanceMatchingPolicy()
        chosen = policy.choose([schema_matcher, instance_matcher], kb, Trace())
        assert chosen is instance_matcher

    def test_round_robin_policy_cycles(self):
        kb = KnowledgeBase()
        transducers = [RecordingTransducer("a"), RecordingTransducer("b")]
        policy = RoundRobinPolicy()
        first = policy.choose(transducers, kb, Trace())
        second = policy.choose(transducers, kb, Trace())
        assert {first.name, second.name} == {"a", "b"}

    def test_phase_labels_recorded(self):
        kb = KnowledgeBase()
        kb.register_table(make_table(), Predicates.ROLE_SOURCE)
        orchestrator = Orchestrator(kb, [RecordingTransducer("a")])
        orchestrator.set_phase("bootstrap")
        orchestrator.run()
        assert orchestrator.trace.steps[0].phase == "bootstrap"

    def test_step_budget_enforced(self):
        """Two components that keep feeding each other new facts never quiesce;
        the orchestrator's step budget catches the runaway loop."""
        kb = KnowledgeBase()
        kb.assert_fact("ping", 0)

        class Echo(Transducer):
            activity = Activity.MATCHING

            def __init__(self, name, listens_to, emits):
                self.name = name
                self.input_dependencies = (f"{listens_to}(X)",)
                super().__init__()
                self._emits = emits
                self._counter = 0

            def run(self, kb):
                self._counter += 1
                kb.assert_fact(self._emits, self._counter)
                return TransducerResult(facts_added=1)

        orchestrator = Orchestrator(
            kb, [Echo("a", "ping", "pong"), Echo("b", "pong", "ping")], max_steps=5)
        with pytest.raises(OrchestrationError):
            orchestrator.run()

    def test_stall_raises_with_trace(self):
        """Regression: a session where nothing can ever run must raise (with
        the trace and the unmet dependencies), not silently return an empty
        trace."""
        kb = KnowledgeBase()  # no source registered: dependencies unmet
        orchestrator = Orchestrator(kb, [RecordingTransducer("matcher")])
        with pytest.raises(OrchestrationError) as excinfo:
            orchestrator.run()
        assert "unmet input dependencies" in str(excinfo.value)
        assert "matcher" in str(excinfo.value)
        assert "schema(S, source)" in str(excinfo.value)
        assert excinfo.value.trace is orchestrator.trace
        assert len(excinfo.value.trace) == 0

    def test_quiescence_after_progress_does_not_raise(self):
        """A starved transducer is normal once other work has executed (e.g.
        extraction never runs in a table-only session)."""
        kb = KnowledgeBase()
        kb.register_table(make_table(), Predicates.ROLE_SOURCE)

        class Starved(RecordingTransducer):
            input_dependencies = ("web_source(S)",)

        orchestrator = Orchestrator(
            kb, [RecordingTransducer("matcher"), Starved("extractor")])
        trace = orchestrator.run()
        assert len(trace) == 1
        assert orchestrator.pending_dependencies() == {"extractor": ("web_source(S)",)}
        # A later run call on the quiescent session stays silent too.
        assert orchestrator.run() is trace

    def test_empty_registry_quiesces_quietly(self):
        orchestrator = Orchestrator(KnowledgeBase(), [])
        assert len(orchestrator.run()) == 0

    def test_pending_dependencies_reports_each_unmet_goal(self):
        kb = KnowledgeBase()

        class TwoGoals(RecordingTransducer):
            input_dependencies = ("schema(S, source)", "schema(T, target)")

        transducer = TwoGoals("both")
        orchestrator = Orchestrator(kb, [transducer])
        assert orchestrator.pending_dependencies() == {
            "both": ("schema(S, source)", "schema(T, target)")}
        kb.register_table(make_table(), Predicates.ROLE_SOURCE)
        assert orchestrator.pending_dependencies() == {"both": ("schema(T, target)",)}

    def test_budget_error_carries_trace(self):
        kb = KnowledgeBase()
        kb.assert_fact("ping", 0)

        class Echo(Transducer):
            activity = Activity.MATCHING

            def __init__(self, name, listens_to, emits):
                self.name = name
                self.input_dependencies = (f"{listens_to}(X)",)
                super().__init__()
                self._emits = emits
                self._counter = 0

            def run(self, inner_kb):
                self._counter += 1
                inner_kb.assert_fact(self._emits, self._counter)
                return TransducerResult(facts_added=1)

        orchestrator = Orchestrator(
            kb, [Echo("a", "ping", "pong"), Echo("b", "pong", "ping")], max_steps=3)
        with pytest.raises(OrchestrationError) as excinfo:
            orchestrator.run()
        assert len(excinfo.value.trace) == 3

    def test_reset_clears_history(self):
        kb = KnowledgeBase()
        kb.register_table(make_table(), Predicates.ROLE_SOURCE)
        orchestrator = Orchestrator(kb, [RecordingTransducer("a")])
        orchestrator.run()
        orchestrator.reset()
        assert len(orchestrator.trace) == 0
        assert [t.name for t in orchestrator.runnable()] == ["a"]


class TestSchedulerEquivalence:
    """``can_run`` checks the revision compare before the dependency query;
    the runnable set must be what the query-first order gives."""

    def test_bootstrap_runnable_sets_match_the_reference(self, monkeypatch):
        from repro.scenarios.synth import SynthConfig
        from repro.service.session import WranglingSession

        session = WranglingSession.from_scenario(
            SynthConfig(family="product_catalog", entities=60, seed=3)
        )
        wrangler = session.wrangler
        kb = wrangler.kb
        registry = wrangler.orchestrator.registry.all()
        queries = []
        query = kb.query

        def counting_query(*args, **kwargs):
            queries.append(args)
            return query(*args, **kwargs)

        steps = unchanged_checks = 0
        while True:
            reference = [
                t for t in registry if t.satisfied(kb) and t.inputs_changed_since_last_run(kb)
            ]
            assert wrangler.orchestrator.runnable() == reference
            with monkeypatch.context() as patch:
                patch.setattr(kb, "query", counting_query)
                for transducer in registry:
                    if not transducer.inputs_changed_since_last_run(kb):
                        assert not transducer.can_run(kb)
                        unchanged_checks += 1
            assert queries == []
            if wrangler.step() is None:
                break
            steps += 1
        assert steps > 10
        assert unchanged_checks > steps


class TestTrace:
    def make_step(self, index: int, name: str, phase: str = "") -> TraceStep:
        return TraceStep(index=index, transducer=name, activity="matching", runnable=(name,),
                         revision_before=index, revision_after=index + 1, facts_added=1,
                         tables_written=(), duration_seconds=0.01, phase=phase)

    def test_counters_and_reruns(self):
        trace = Trace()
        trace.record(self.make_step(0, "a", "bootstrap"))
        trace.record(self.make_step(1, "a", "feedback"))
        trace.record(self.make_step(2, "b", "feedback"))
        assert trace.execution_counts() == {"a": 2, "b": 1}
        assert trace.reruns() == {"a": 1}
        assert trace.activity_counts() == {"matching": 3}
        assert trace.phase_counts() == {"bootstrap": 1, "feedback": 2}
        assert trace.total_facts_added() == 3
        assert len(trace.steps_in_phase("feedback")) == 2

    def test_rendering(self):
        trace = Trace()
        assert "empty" in trace.to_text()
        trace.record(self.make_step(0, "a"))
        assert "a (matching)" in trace.to_text()
        summary = trace.summary()
        assert summary["steps"] == 1
