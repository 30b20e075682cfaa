"""Per-layer tracing from outside the program.

The tracer wraps the public entry points of each layer (class or module
attributes of :mod:`repro`) with span recorders, keeps every span in memory
and derives the per-layer metrics from them at the end of a run. Nothing
under ``src/`` is instrumented: :meth:`Tracer.install` swaps the attributes
and :meth:`Tracer.uninstall` restores the originals, so an untraced run
executes exactly the program's own code.

A span is ``(span_id, name, start, end, parent_id, request_id)``. Spans
nest per thread; a layer's *self time* is its spans' durations minus the
time their child spans cover. Each call of ``WranglingSession.handle`` is
one request and gives its spans a fresh request id.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable

#: (module, attribute path, span name). Attributes resolve on the module;
#: a dotted path names a method on a class of that module.
SPANNED = (
    ("repro.scenarios.synth", "generate_synthetic", "scenarios.generate"),
    ("repro.service.session", "WranglingSession.handle", "session.handle"),
    ("repro.core.orchestrator", "Orchestrator.step", "core.schedule"),
    ("repro.core.transducer", "Transducer.execute", "core.transducer"),
    ("repro.datalog.engine", "Engine.run", "datalog.engine"),
    ("repro.matching.schema_matching", "SchemaMatcher.match", "matching.schema"),
    ("repro.matching.instance_matching", "InstanceMatcher.match", "matching.instance"),
    ("repro.mapping.generation", "MappingGenerator.generate", "mapping.generate"),
    ("repro.mapping.selection", "MappingScorer.score_all", "mapping.score"),
    ("repro.mapping.execution", "MappingExecutor.execute", "mapping.execute"),
    ("repro.mapping.execution", "MappingExecutor.execute_rows", "mapping.execute"),
    ("repro.quality.cfd_learning", "CFDLearner.learn", "quality.cfd_learn"),
    ("repro.quality.stats", "build_stats", "quality.stats"),
    ("repro.quality.repair", "CFDRepairer.repair", "quality.repair"),
    ("repro.fusion.duplicates", "DuplicateDetector.detect", "fusion.detect"),
    ("repro.fusion.fusion", "DataFuser.fuse", "fusion.fuse"),
    ("repro.incremental.rewrangle", "IncrementalWrangler.apply", "incremental.apply"),
    ("repro.provenance.feedback", "LineageFeedbackPropagator.collect", "provenance.propagate"),
    ("repro.provenance.feedback", "LineageFeedbackPropagator.emit_deltas",
     "provenance.propagate"),
    ("repro.feedback.annotations", "simulate_feedback", "feedback.simulate"),
    ("repro.wrangler.batch", "table_fingerprint", "wrangler.fingerprint"),
    ("repro.wrangler.pipeline", "Wrangler.evaluate", "wrangler.evaluate"),
    ("repro.service.session", "WranglingSession.query", "wrangler.query"),
    ("repro.cqa.query", "classify", "cqa.classify"),
    ("repro.cqa.rewrite", "compile_certain", "cqa.compile"),
    ("repro.cqa.rewrite", "certain_answers", "cqa.rewrite_eval"),
    ("repro.cqa.enumerate", "enumerate_certain", "cqa.enumerate"),
)

#: Hot entry points that are counted, not spanned (a span per call would
#: cost more than the call). ``None`` counts under the enclosing scope.
COUNTED = (
    ("repro.fusion.duplicates", "DuplicateDetector.pair_similarity", None),
    ("repro.core.knowledge_base", "KnowledgeBase.query", "datalog.query_calls"),
)

#: Spans that scope the scoped counters: a pair scored anywhere inside an
#: incremental application is a rescore, one inside detection a first score.
#: The outermost scope wins.
SCOPE_COUNTERS = {
    "incremental.apply": "incremental.pairs_rescored",
    "fusion.detect": "fusion.pairs_scored",
}


def _result_counts(name: str, result: Any) -> dict[str, int]:
    """Counters read off an entry point's return value."""
    if name == "core.schedule":
        return {"core.steps": int(result is not None)}
    if name == "fusion.detect":
        return {"fusion.duplicate_pairs": len(result)}
    if name == "mapping.execute":
        return {"mapping.rows_out": len(result)}
    if name == "quality.repair":
        return {"quality.cells_repaired": result.repaired_cells}
    if name == "incremental.apply":
        return {
            "incremental.applies": 1,
            "incremental.fallbacks": int(not result.applied),
            "incremental.rows_recomputed": result.rows_recomputed,
        }
    if name == "cqa.enumerate":
        return {"cqa.certain_queries": 1, "cqa.repairs_evaluated": result.repairs_evaluated}
    if name == "cqa.rewrite_eval":
        return {"cqa.certain_queries": 1, "cqa.rewritings": 1}
    if name == "datalog.engine":
        return {"datalog.engine_runs": 1}
    return {}


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric (bench/README.md gives the end-to-end metric and
    workload each should move)."""

    name: str
    unit: str
    better: str
    #: The workload where this layer does most of its work; a traced run of
    #: that workload must record at least one event for the metric.
    home: str
    #: How the value is derived: ``share`` — self time of span ``source`` ÷
    #: the traced window; ``count`` — counter ``source`` per timed request;
    #: ``ratio`` — counter ``source`` ÷ counter ``per``; ``service`` — from
    #: the job records of ``service_mix``.
    kind: str
    source: str
    per: str = ""

    @property
    def evidence(self) -> str:
        """The span or counter whose absence on the home workload means a
        wrapper missed its call sites."""
        return {"ratio": self.per, "service": "service.jobs"}.get(self.kind, self.source)


def _share(layer: str, home: str) -> LayerMetric:
    return LayerMetric(f"{layer}_share", "ratio", "lower", home, "share", layer)


def _count(name: str, home: str) -> LayerMetric:
    return LayerMetric(name, "count", "lower", home, "count", name)


def _ratio(name: str, source: str, per: str, home: str, better: str = "lower") -> LayerMetric:
    return LayerMetric(name, "ratio", better, home, "ratio", source, per)


def _service(name: str) -> LayerMetric:
    return LayerMetric(name, "ratio", "lower", "service_mix", "service", name)


#: Every per-layer metric, in report order.
LAYER_METRICS = (
    _share("scenarios.generate", "catalog_cold"),
    _share("core.schedule", "catalog_cold"),
    _count("core.steps", "catalog_cold"),
    _count("datalog.query_calls", "catalog_cold"),
    _share("core.transducer", "catalog_cold"),
    _share("fusion.detect", "catalog_cold"),
    _count("fusion.pairs_scored", "catalog_cold"),
    _ratio("fusion.pair_yield", "fusion.duplicate_pairs", "fusion.pairs_scored",
           "catalog_cold", better="higher"),
    _share("fusion.fuse", "catalog_cold"),
    _share("matching.schema", "catalog_cold"),
    _share("matching.instance", "catalog_cold"),
    _share("mapping.generate", "catalog_cold"),
    _share("mapping.score", "catalog_cold"),
    _share("quality.cfd_learn", "catalog_cold"),
    _share("quality.stats", "catalog_cold"),
    _share("incremental.apply", "shipment_ingest"),
    _count("incremental.pairs_rescored", "shipment_ingest"),
    _count("incremental.rows_recomputed", "shipment_ingest"),
    _ratio("incremental.fallback_ratio", "incremental.fallbacks", "incremental.applies",
           "shipment_ingest"),
    _share("provenance.propagate", "shipment_ingest"),
    _share("quality.repair", "shipment_ingest"),
    _count("quality.cells_repaired", "shipment_ingest"),
    _share("mapping.execute", "shipment_ingest"),
    _count("mapping.rows_out", "shipment_ingest"),
    _share("feedback.simulate", "shipment_ingest"),
    _share("wrangler.fingerprint", "shipment_ingest"),
    _share("wrangler.evaluate", "shipment_ingest"),
    _share("cqa.classify", "cqa_queries"),
    _share("cqa.compile", "cqa_queries"),
    _share("cqa.rewrite_eval", "cqa_queries"),
    _share("datalog.engine", "cqa_queries"),
    _count("datalog.engine_runs", "cqa_queries"),
    _share("wrangler.query", "cqa_queries"),
    _share("cqa.enumerate", "cqa_queries"),
    _count("cqa.repairs_evaluated", "cqa_queries"),
    _ratio("cqa.rewriting_share", "cqa.rewritings", "cqa.certain_queries", "cqa_queries",
           better="higher"),
    _service("service.queue_wait_share"),
    _service("service.busy_share"),
    _service("service.generator_lag_share"),
)


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class Tracer:
    """Span recorder over the layer entry points.

    ``active`` gates recording: wrappers installed while inactive cost one
    attribute check. ``timed`` additionally gates the per-request counters,
    which count only the work of timed requests.
    """

    def __init__(self) -> None:
        self.active = False
        self.timed = False
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._started = 0.0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point (:meth:`uninstall` undoes it)."""
        for module_name, path, name in SPANNED:
            owner, attribute = _resolve(module_name, path)
            self._patch(owner, attribute, self._span_wrapper(name, getattr(owner, attribute)))
        for module_name, path, counter in COUNTED:
            owner, attribute = _resolve(module_name, path)
            self._patch(owner, attribute, self._count_wrapper(counter, getattr(owner, attribute)))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _patch(self, owner: Any, attribute: str, wrapper: Callable) -> None:
        original = getattr(owner, attribute)
        if isinstance(owner, type):
            targets = [owner]
        else:
            # A module function is also bound by name in every module that
            # imported it; rebind each of those too.
            targets = [
                module for name, module in list(sys.modules.items())
                if name.startswith("repro") and getattr(module, attribute, None) is original
            ]
        for target in targets:
            self._patches.append((target, attribute, original))
            setattr(target, attribute, wrapper)

    # -- recording ------------------------------------------------------------

    def start(self) -> None:
        """Begin recording (the traced window starts here)."""
        self._started = time.perf_counter()
        self.active = True

    def stop(self) -> float:
        """Stop recording; returns the traced window's wall time."""
        self.active = False
        self.timed = False
        return time.perf_counter() - self._started

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = 0
            local.scope = None
        return local

    def _span_wrapper(self, name: str, function: Callable) -> Callable:
        tracer = self
        scoped = SCOPE_COUNTERS.get(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            local = tracer._state()
            span_id = next(tracer._ids)
            parent = local.stack[-1] if local.stack else 0
            outer_request, outer_scope = local.request, local.scope
            if name == "session.handle":
                local.request = next(tracer._requests)
            if scoped is not None and outer_scope is None:
                local.scope = scoped
            local.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                local.stack.pop()
                request = local.request
                local.request, local.scope = outer_request, outer_scope
                tracer.spans.append((span_id, name, start, end, parent, request))
            if tracer.timed:
                with tracer._lock:
                    tracer.counts.update(_result_counts(name, result))
            return result

        return wrapper

    def _count_wrapper(self, counter: str | None, function: Callable) -> Callable:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if tracer.timed:
                key = counter or tracer._state().scope
                if key is not None:
                    with tracer._lock:
                        tracer.counts[key] += 1
            return function(*args, **kwargs)

        return wrapper

    # -- summarising ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-span-name self time (duration minus child-covered time)."""
        children: dict[int, float] = defaultdict(float)
        for _span_id, _name, start, end, parent, _request in self.spans:
            if parent:
                children[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _parent, _request in self.spans:
            totals[name] += (end - start) - children.get(span_id, 0.0)
        return dict(totals)

    def write_spans(self, path: str) -> None:
        """Dump the spans as JSON lines, start/end relative to the window."""
        origin = self._started
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request in sorted(self.spans):
                handle.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent, "request": request,
                    "start": round(start - origin, 9), "end": round(end - origin, 9),
                }) + "\n")


def layer_metrics(tracer: Tracer, window: float, timed_requests: int,
                  service: dict[str, float]) -> dict[str, float]:
    """The per-layer metric values of one traced run."""
    self_times = tracer.self_times()
    counts = tracer.counts
    values: dict[str, float] = {}
    for metric in LAYER_METRICS:
        if metric.kind == "share":
            value = self_times.get(metric.source, 0.0) / window
        elif metric.kind == "count":
            value = counts[metric.source] / max(timed_requests, 1)
        elif metric.kind == "ratio":
            value = counts[metric.source] / max(counts[metric.per], 1)
        else:
            value = service.get(metric.name, 0.0)
        values[metric.name] = value
    return values


def missing_layers(tracer: Tracer, workload: str, service_jobs: int) -> list[str]:
    """Layer metrics homed on ``workload`` that recorded no event at all."""
    seen = Counter(tracer.counts)
    seen["service.jobs"] = service_jobs
    for _span_id, name, *_rest in tracer.spans:
        seen[name] += 1
    return [metric.name for metric in LAYER_METRICS
            if metric.home == workload and not seen[metric.evidence]]
