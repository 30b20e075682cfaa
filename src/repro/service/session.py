"""Persistent wrangling sessions: the session-first public surface.

A :class:`WranglingSession` is one long-lived data context — the unit the
paper's user-in-the-loop architecture actually revolves around: create it,
run it to a best-effort result, then keep feeding it feedback, source
appends, explain and evaluate requests for as long as the data lives. Every
interaction is a typed request from :mod:`repro.service.api`, and the same
session object sits behind the in-process API, the CLI and the HTTP
service, so the three entry points cannot diverge.

Sessions survive process death: :meth:`WranglingSession.checkpoint`
serialises the *entire* live state (knowledge base, catalog, provenance
store, incremental snapshots, transducer watermarks) to disk, and
:meth:`WranglingSession.restore` brings it back bit-identically — a
restored session serves the next feedback round with exactly the tables
and metrics an uninterrupted session would have produced (property-tested
in ``tests/test_service.py`` and enforced by
``repro.incremental.validate.check_restored``).

:class:`SessionStore` manages the set of live sessions (and their
checkpoint files) for the job queue and the HTTP front end.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
import uuid
from typing import Any, Iterable, Mapping

from repro.core.facts import Feedback
from repro.scenarios.base import Scenario
from repro.scenarios.synth import SynthConfig, generate_synthetic
from repro.service.api import (
    AppendRequest,
    CellAnnotation,
    CheckpointRequest,
    EvaluateRequest,
    ExplainRequest,
    ExplainResponse,
    FeedbackRequest,
    QueryRequest,
    QueryResponse,
    RunRequest,
    SessionMetrics,
    SimulateRequest,
    rows_from_table,
)
from repro.wrangler.config import WranglerConfig

__all__ = ["CHECKPOINT_FORMAT", "SessionStore", "WranglingSession"]

#: Version tag of the checkpoint container; bump on incompatible layout.
CHECKPOINT_FORMAT = 2


def _new_session_id() -> str:
    return uuid.uuid4().hex[:12]


class WranglingSession:
    """One persistent data context, driven by typed requests.

    Wraps a :class:`~repro.wrangler.pipeline.Wrangler` (the session is the
    only surface for feedback, append and change-set rounds) and is what
    :meth:`Wrangler.session() <repro.wrangler.pipeline.Wrangler.session>`
    returns.
    """

    def __init__(self, wrangler, *, session_id: str | None = None,
                 name: str | None = None, scenario: Scenario | None = None):
        self._wrangler = wrangler
        self.session_id = session_id or _new_session_id()
        self.name = name or self.session_id
        self.created_at = time.time()
        self.requests_served = 0
        self.last_phase = ""
        #: The generating scenario, when the session is scenario-backed —
        #: carries the ground truth that ``simulate`` annotates against.
        self.scenario = scenario
        self._simulated_rounds = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_scenario(cls, scenario: Scenario | SynthConfig | Mapping[str, Any], *,
                      config: WranglerConfig | None = None,
                      session_id: str | None = None,
                      name: str | None = None) -> "WranglingSession":
        """A fresh session over a (generated) scenario's sources and target.

        Accepts a :class:`Scenario`, a :class:`SynthConfig`, or a mapping of
        ``SynthConfig`` fields (the HTTP create payload). The session is
        installed but not yet run — submit a :class:`RunRequest` (phase
        ``bootstrap``) to materialise the first result.
        """
        from repro.wrangler.pipeline import Wrangler

        if isinstance(scenario, Mapping):
            scenario = SynthConfig(**scenario)
        if isinstance(scenario, SynthConfig):
            scenario = generate_synthetic(scenario)
        wrangler = Wrangler(config=config)
        scenario.install(wrangler)
        if scenario.reference is not None:
            wrangler.add_reference_data(scenario.reference)
        if scenario.master is not None:
            wrangler.add_master_data(scenario.master)
        return cls(wrangler, session_id=session_id,
                   name=name or scenario.name, scenario=scenario)

    # -- accessors ------------------------------------------------------------

    @property
    def wrangler(self):
        """The wrapped wrangler (escape hatch for in-process callers)."""
        return self._wrangler

    def result(self):
        """The current materialised result table (None before the first run)."""
        return self._wrangler.result()

    def result_rows(self, *, limit: int | None = None) -> dict[str, Any]:
        """A JSON rendering of the current result (browse endpoint)."""
        return rows_from_table(self.result(), limit=limit)

    def fingerprint(self) -> str:
        """Order-independent fingerprint of the current result table."""
        from repro.wrangler.batch import table_fingerprint

        return table_fingerprint(self.result())

    def info(self) -> dict[str, Any]:
        """A compact description of the session (list/status endpoints)."""
        table = self.result()
        return {
            "session_id": self.session_id,
            "name": self.name,
            "created_at": self.created_at,
            "requests_served": self.requests_served,
            "last_phase": self.last_phase,
            "rows": len(table) if table is not None else 0,
            "relation": table.name if table is not None else None,
            "scenario": self.scenario.name if self.scenario is not None else None,
        }

    # -- request dispatch -----------------------------------------------------

    def handle(self, request) -> SessionMetrics | ExplainResponse | dict[str, Any]:
        """Serve one typed request (the job queue's single entry point)."""
        handlers = {
            RunRequest: self.run,
            FeedbackRequest: self.feedback,
            AppendRequest: self.append,
            ExplainRequest: self.explain,
            EvaluateRequest: self.evaluate,
            SimulateRequest: self.simulate,
            QueryRequest: self.query,
            CheckpointRequest: self._checkpoint_request,
        }
        try:
            handler = handlers[type(request)]
        except KeyError:
            raise TypeError(f"unsupported request type {type(request).__name__}") from None
        return handler(request)

    def run(self, request: RunRequest | None = None) -> SessionMetrics:
        """Orchestrate to quiescence (bootstrap / data_context / feedback…)."""
        request = request or RunRequest()
        started = time.perf_counter()
        result = self._wrangler.run(request.phase, evaluate=request.evaluate)
        return self._metrics(result, time.perf_counter() - started)

    def feedback(self, request: FeedbackRequest) -> SessionMetrics:
        """Assert the request's annotations and bring the result up to date."""
        started = time.perf_counter()
        self._assert_annotations(request.annotations)
        result = self._wrangler._apply_feedback(
            None, incremental=request.incremental, evaluate=request.evaluate)
        return self._metrics(result, time.perf_counter() - started)

    def append(self, request: AppendRequest) -> SessionMetrics:
        """Append rows to a registered source and update the result."""
        started = time.perf_counter()
        result = self._wrangler._append_source_rows(
            request.relation, request.rows, incremental=request.incremental,
            evaluate=request.evaluate)
        return self._metrics(result, time.perf_counter() - started)

    def apply(self, change_set, *, phase: str = "revision",
              evaluate: bool = True) -> SessionMetrics:
        """Apply an arbitrary typed change set (in-process callers only)."""
        started = time.perf_counter()
        result = self._wrangler._apply_change_set(
            change_set, phase=phase, evaluate=evaluate)
        return self._metrics(result, time.perf_counter() - started)

    def explain(self, request: ExplainRequest) -> ExplainResponse:
        """Why-provenance of one result cell, served from the live store."""
        tree = self._wrangler.explain(request.row, request.column)
        from repro.provenance.explain import render_lineage

        self.requests_served += 1
        return ExplainResponse(
            session_id=self.session_id,
            tree=tree.as_dict(),
            text=render_lineage(tree) if request.render else "",
        )

    def evaluate(self, request: EvaluateRequest | None = None) -> SessionMetrics:
        """Quality of the current result (no re-wrangling)."""
        request = request or EvaluateRequest()
        started = time.perf_counter()
        report = self._wrangler.evaluate(use_stats=request.use_stats)
        table = self.result()
        self.requests_served += 1
        self.last_phase = "evaluate"
        return SessionMetrics(
            session_id=self.session_id,
            phase="evaluate",
            rows=len(table) if table is not None else 0,
            fingerprint=self.fingerprint(),
            quality=dict(report.as_dict()) if report is not None else None,
            overall=report.overall() if report is not None else None,
            kb_facts=self._wrangler.kb.count(),
            kb_revision=self._wrangler.kb.revision,
            seconds=time.perf_counter() - started,
        )

    def simulate(self, request: SimulateRequest) -> SessionMetrics:
        """One simulated feedback round against the scenario's ground truth."""
        if self.scenario is None:
            raise ValueError(
                "session is not scenario-backed: no ground truth to simulate against")
        table = self.result()
        if table is None:
            raise LookupError("no materialised result yet; run bootstrap first")
        from repro.feedback.annotations import simulate_feedback

        seed = request.seed
        if seed is None:
            # Deterministic but fresh per round (the counter is checkpointed,
            # so a restored session simulates exactly what the live one would).
            seed = self._wrangler._config.seed * 7919 + self._simulated_rounds
        annotations = simulate_feedback(
            table,
            self.scenario.ground_truth,
            self.scenario.evaluation_key,
            budget=request.budget,
            seed=seed,
            strategy=request.strategy,
            id_prefix=f"svc{self._simulated_rounds}",
        )
        self._simulated_rounds += 1
        return self.feedback(
            FeedbackRequest(
                annotations=tuple(annotations),
                incremental=request.incremental,
                evaluate=request.evaluate,
            )
        )

    def query(self, request: QueryRequest) -> QueryResponse:
        """Answer a conjunctive query over the session's result.

        Key resolution order: explicit request keys, else keys derived from
        the learned exact CFDs, else — for scenario-backed sessions — the
        scenario's evaluation key on the target relation.
        """
        from repro.cqa import EnumerationConfig

        keys = request.keys
        if keys is None:
            keys = self._default_query_keys()
        enumeration = None
        if request.max_repairs is not None or request.timeout_seconds is not None:
            enumeration = EnumerationConfig(
                max_repairs=request.max_repairs
                if request.max_repairs is not None
                else EnumerationConfig.max_repairs,
                timeout_seconds=request.timeout_seconds,
            )
        outcome = self._wrangler.query(
            request.query, mode=request.mode, keys=keys, enumeration=enumeration)
        self.requests_served += 1
        self.last_phase = "query"
        payload = outcome.as_dict()
        return QueryResponse(session_id=self.session_id, **payload)

    def _default_query_keys(self) -> dict[str, tuple[str, ...]] | None:
        """Scenario evaluation key as the key default, when CFDs offer none.

        Returns None (let the wrangler derive keys from learned CFDs) unless
        no exact CFDs exist, in which case a scenario-backed session falls
        back to its evaluation key on the target relation.
        """
        from repro.quality.transducers import CFD_ARTIFACT_KEY

        learned = self._wrangler.kb.get_artifact(CFD_ARTIFACT_KEY)
        if learned is not None and learned.cfds:
            return None
        if self.scenario is None:
            return None
        target = self._wrangler.target_relation
        if target is None:
            return None
        key = self.scenario.evaluation_key
        key = (key,) if isinstance(key, str) else tuple(key)
        return {target: key} if key else None

    # -- checkpoint / restore -------------------------------------------------

    def checkpoint(self, path: str) -> dict[str, Any]:
        """Serialise the whole session to ``path`` (atomic replace).

        The blob contains everything the next process needs to continue the
        loop exactly where it stopped: knowledge base (facts, catalog,
        artifacts — provenance store, incremental snapshots, quality
        stats), transducer registry watermarks and the orchestration trace.
        """
        payload = pickle.dumps(
            {"format": CHECKPOINT_FORMAT, "session": self},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        digest = hashlib.sha256(payload).hexdigest()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        temporary = f"{path}.tmp.{os.getpid()}"
        with open(temporary, "wb") as handle:
            handle.write(digest.encode("ascii") + b"\n")
            handle.write(payload)
        os.replace(temporary, path)
        return {
            "session_id": self.session_id,
            "path": os.path.abspath(path),
            "bytes": len(payload),
            "sha256": digest,
        }

    @classmethod
    def restore(cls, path: str) -> "WranglingSession":
        """Rebuild a session from a checkpoint file.

        Raises ``ValueError`` on a corrupt or incompatible checkpoint — a
        truncated file must fail loudly, never resurrect partial state. A
        payload this build cannot unpickle (say, one naming a class an older
        build had) is incompatible too.
        """
        with open(path, "rb") as handle:
            header = handle.readline().strip()
            payload = handle.read()
        if hashlib.sha256(payload).hexdigest().encode("ascii") != header:
            raise ValueError(f"checkpoint {path!r} is corrupt (digest mismatch)")
        # The failures the pickle documentation names for unreadable data.
        try:
            container = pickle.loads(payload)
        except (pickle.UnpicklingError, AttributeError, EOFError, ImportError, IndexError) as exc:
            raise ValueError(
                f"checkpoint {path!r} is unreadable by this build "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        if not isinstance(container, dict) or "session" not in container:
            raise ValueError(f"checkpoint {path!r} has no session payload")
        if container.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(
                f"checkpoint {path!r} has format {container.get('format')!r}; "
                f"this build reads format {CHECKPOINT_FORMAT}")
        session = container["session"]
        if not isinstance(session, cls):
            raise ValueError(f"checkpoint {path!r} does not contain a WranglingSession")
        return session

    def _checkpoint_request(self, request: CheckpointRequest) -> dict[str, Any]:
        if request.path is None:
            raise ValueError("CheckpointRequest.path is required outside a SessionStore")
        return self.checkpoint(request.path)

    # -- internals ------------------------------------------------------------

    def _assert_annotations(
        self, annotations: Iterable[CellAnnotation | Feedback]
    ) -> int:
        asserted = 0
        prebuilt = []
        for annotation in annotations:
            if isinstance(annotation, Feedback):
                prebuilt.append(annotation)
                continue
            if annotation.attribute is None:
                self._wrangler.feedback_on_tuple(
                    annotation.row_key, correct=annotation.correct)
            else:
                self._wrangler.feedback_on_attribute(
                    annotation.row_key, annotation.attribute, correct=annotation.correct)
            asserted += 1
        if prebuilt:
            asserted += self._wrangler.add_feedback(prebuilt)
        return asserted

    def _metrics(self, result, seconds: float) -> SessionMetrics:
        self.requests_served += 1
        self.last_phase = result.phase
        quality = result.quality.as_dict() if result.quality is not None else None
        return SessionMetrics(
            session_id=self.session_id,
            phase=result.phase,
            rows=result.row_count,
            fingerprint=self.fingerprint(),
            quality=dict(quality) if quality is not None else None,
            overall=result.quality.overall() if result.quality is not None else None,
            incremental=result.details.get("incremental"),
            kb_facts=self._wrangler.kb.count(),
            kb_revision=self._wrangler.kb.revision,
            steps=result.steps_executed,
            seconds=seconds,
        )

    def __repr__(self) -> str:
        return (f"WranglingSession(id={self.session_id!r}, name={self.name!r}, "
                f"served={self.requests_served})")


class SessionStore:
    """The set of live sessions (and their checkpoints on disk).

    Thread-safe: the job queue executes session work on worker threads and
    the HTTP front end creates/lists sessions from the event loop.
    """

    def __init__(self, directory: str | None = None):
        #: Where checkpoints live; None keeps the store memory-only.
        self.directory = directory
        self._sessions: dict[str, WranglingSession] = {}
        self._lock = threading.RLock()

    def create(self, scenario=None, *, config: WranglerConfig | None = None,
               name: str | None = None,
               session_id: str | None = None) -> WranglingSession:
        """Create (and register) a new session.

        ``scenario`` follows :meth:`WranglingSession.from_scenario`; with
        ``scenario=None`` an empty session is created for callers that
        register sources by hand (in-process use).
        """
        if scenario is None:
            from repro.wrangler.pipeline import Wrangler

            session = WranglingSession(
                Wrangler(config=config), session_id=session_id, name=name)
        else:
            session = WranglingSession.from_scenario(
                scenario, config=config, session_id=session_id, name=name)
        self.add(session)
        return session

    def add(self, session: WranglingSession) -> WranglingSession:
        """Register an externally built session (e.g. ``wrangler.session()``)."""
        with self._lock:
            if session.session_id in self._sessions:
                raise ValueError(f"session {session.session_id!r} already exists")
            self._sessions[session.session_id] = session
        return session

    def get(self, session_id: str) -> WranglingSession:
        """The live session (KeyError names the unknown id)."""
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise KeyError(f"unknown session {session_id!r}") from None

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._sessions

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def list(self) -> list[dict[str, Any]]:
        """Session infos, sorted by creation time."""
        with self._lock:
            sessions = list(self._sessions.values())
        return [s.info() for s in sorted(sessions, key=lambda s: (s.created_at, s.session_id))]

    def checkpoint_path(self, session_id: str) -> str:
        """Default checkpoint location for one session."""
        if self.directory is None:
            raise ValueError("SessionStore has no directory; pass an explicit path")
        return os.path.join(self.directory, f"{session_id}.ckpt")

    def checkpoint(self, session_id: str, path: str | None = None) -> dict[str, Any]:
        """Persist one session (default path: ``<directory>/<id>.ckpt``)."""
        session = self.get(session_id)
        return session.checkpoint(path or self.checkpoint_path(session_id))

    def restore(self, session_id: str, path: str | None = None) -> WranglingSession:
        """Load a checkpoint and make it the live session for its id."""
        session = WranglingSession.restore(path or self.checkpoint_path(session_id))
        with self._lock:
            self._sessions[session.session_id] = session
        return session

    def drop(self, session_id: str) -> None:
        """Forget a live session (its checkpoint files are kept)."""
        with self._lock:
            self._sessions.pop(session_id, None)
