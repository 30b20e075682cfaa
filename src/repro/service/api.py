"""The typed request/response surface shared by every wrangling entry point.

Every round of the pay-as-you-go loop (run, feedback, append, explain,
evaluate, query) is a request or response dataclass here, and these are the
*same objects* whether a round arrives in process
(:class:`~repro.service.session.WranglingSession`), over the CLI
(:mod:`repro.service.cli`) or over HTTP (:mod:`repro.service.server`):

- requests: :class:`RunRequest`, :class:`FeedbackRequest`,
  :class:`AppendRequest`, :class:`ExplainRequest`, :class:`EvaluateRequest`,
  :class:`SimulateRequest`, :class:`CheckpointRequest`;
- responses: :class:`SessionMetrics`, :class:`ExplainResponse`;
- job plumbing: :class:`JobRecord` with :class:`JobStatus` states.

Everything round-trips through ``as_dict`` / ``from_dict`` (plain JSON
types), so the HTTP layer is a codec, not a second API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.facts import Feedback

__all__ = [
    "AppendRequest",
    "CellAnnotation",
    "CheckpointRequest",
    "EvaluateRequest",
    "ExplainRequest",
    "ExplainResponse",
    "FeedbackRequest",
    "JobRecord",
    "JobStatus",
    "QueryRequest",
    "QueryResponse",
    "REQUEST_KINDS",
    "RunRequest",
    "SessionMetrics",
    "SimulateRequest",
    "request_from_dict",
]


@dataclass(frozen=True)
class CellAnnotation:
    """One user verdict on a result cell (or whole tuple when no attribute).

    The service-side counterpart of :class:`repro.core.facts.Feedback`:
    clients do not assign feedback ids — the session's collector does.
    """

    row_key: str
    correct: bool
    attribute: str | None = None

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"row_key": self.row_key, "correct": self.correct}
        if self.attribute is not None:
            payload["attribute"] = self.attribute
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CellAnnotation | Feedback":
        """An annotation; entries carrying a ``feedback_id`` rebuild as
        pre-minted :class:`Feedback` facts (in-process round trips)."""
        if payload.get("feedback_id"):
            return Feedback(
                feedback_id=str(payload["feedback_id"]),
                relation=str(payload.get("relation", "")),
                row_key=str(payload["row_key"]),
                attribute=str(payload.get("attribute", "*")),
                correct=bool(payload["correct"]),
            )
        attribute = payload.get("attribute")
        return cls(
            row_key=str(payload["row_key"]),
            correct=bool(payload["correct"]),
            attribute=None if attribute in (None, "*") else str(attribute),
        )


def _annotation_dict(annotation: "CellAnnotation | Feedback") -> dict[str, Any]:
    if isinstance(annotation, Feedback):
        return {
            "feedback_id": annotation.feedback_id,
            "relation": annotation.relation,
            "row_key": annotation.row_key,
            "attribute": annotation.attribute,
            "correct": annotation.correct,
        }
    return annotation.as_dict()


@dataclass(frozen=True)
class RunRequest:
    """Orchestrate to quiescence (one pay-as-you-go stage)."""

    kind = "run"
    phase: str = ""
    evaluate: bool = True

    def as_dict(self) -> dict[str, Any]:
        return {"phase": self.phase, "evaluate": self.evaluate}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRequest":
        return cls(
            phase=str(payload.get("phase", "")),
            evaluate=bool(payload.get("evaluate", True)),
        )


@dataclass(frozen=True)
class FeedbackRequest:
    """Assert annotations and bring the result up to date.

    ``incremental=None`` defers to the session's configured default; the
    outcome is identical either way (the incremental engine's equality
    contract), only the cost differs.
    """

    kind = "feedback"
    annotations: tuple["CellAnnotation | Feedback", ...] = ()
    incremental: bool | None = None
    evaluate: bool = True

    def as_dict(self) -> dict[str, Any]:
        return {
            "annotations": [_annotation_dict(a) for a in self.annotations],
            "incremental": self.incremental,
            "evaluate": self.evaluate,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FeedbackRequest":
        raw = payload.get("annotations", ())
        annotations = tuple(CellAnnotation.from_dict(entry) for entry in raw)
        return cls(
            annotations=annotations,
            incremental=payload.get("incremental"),
            evaluate=bool(payload.get("evaluate", True)),
        )


@dataclass(frozen=True)
class AppendRequest:
    """Append rows to a registered source and update the result."""

    kind = "append"
    relation: str = ""
    rows: tuple[tuple, ...] = ()
    incremental: bool | None = None
    evaluate: bool = True

    def as_dict(self) -> dict[str, Any]:
        return {
            "relation": self.relation,
            "rows": [list(row) for row in self.rows],
            "incremental": self.incremental,
            "evaluate": self.evaluate,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AppendRequest":
        return cls(
            relation=str(payload["relation"]),
            rows=tuple(tuple(row) for row in payload.get("rows", ())),
            incremental=payload.get("incremental"),
            evaluate=bool(payload.get("evaluate", True)),
        )


@dataclass(frozen=True)
class ExplainRequest:
    """Why-provenance of one result cell (or tuple when ``column`` is None)."""

    kind = "explain"
    row: int | str = 0
    column: str | None = None
    #: Whether the response also carries the human-readable rendering.
    render: bool = True

    def as_dict(self) -> dict[str, Any]:
        return {"row": self.row, "column": self.column, "render": self.render}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExplainRequest":
        row = payload.get("row", 0)
        return cls(
            row=row if isinstance(row, int) else str(row),
            column=payload.get("column"),
            render=bool(payload.get("render", True)),
        )


@dataclass(frozen=True)
class EvaluateRequest:
    """Quality of the current result (maintained stats unless disabled)."""

    kind = "evaluate"
    use_stats: bool | None = None

    def as_dict(self) -> dict[str, Any]:
        return {"use_stats": self.use_stats}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EvaluateRequest":
        return cls(use_stats=payload.get("use_stats"))


@dataclass(frozen=True)
class SimulateRequest:
    """Simulate a user annotating ``budget`` cells against the session's
    ground truth (scenario-backed sessions only) and apply the feedback."""

    kind = "simulate"
    budget: int = 10
    seed: int | None = None
    strategy: str = "targeted"
    incremental: bool | None = None
    evaluate: bool = True

    def as_dict(self) -> dict[str, Any]:
        return {
            "budget": self.budget,
            "seed": self.seed,
            "strategy": self.strategy,
            "incremental": self.incremental,
            "evaluate": self.evaluate,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimulateRequest":
        seed = payload.get("seed")
        return cls(
            budget=int(payload.get("budget", 10)),
            seed=None if seed is None else int(seed),
            strategy=str(payload.get("strategy", "targeted")),
            incremental=payload.get("incremental"),
            evaluate=bool(payload.get("evaluate", True)),
        )


@dataclass(frozen=True)
class QueryRequest:
    """Answer a conjunctive query over the session's result.

    ``mode="certain"`` computes the certain answers over the *unrepaired*
    base tables under the session's primary keys (explicit ``keys``, else
    learned exact CFDs, else the scenario's evaluation key);
    ``mode="repaired"`` answers over the current result; ``mode="both"``
    does both and records their agreement as a quality signal.
    """

    kind = "query"
    query: str = ""
    mode: str = "certain"
    #: Primary keys per relation; None defers to the session's defaults.
    keys: dict[str, tuple[str, ...]] | None = None
    #: Repair-enumeration budget for non-rewritable queries.
    max_repairs: int | None = None
    timeout_seconds: float | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "query": self.query,
            "mode": self.mode,
            "keys": None if self.keys is None
            else {relation: list(attrs) for relation, attrs in self.keys.items()},
            "max_repairs": self.max_repairs,
            "timeout_seconds": self.timeout_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryRequest":
        raw_keys = payload.get("keys")
        keys = None
        if raw_keys is not None:
            keys = {
                str(relation): (attrs,) if isinstance(attrs, str) else tuple(attrs)
                for relation, attrs in raw_keys.items()
            }
        max_repairs = payload.get("max_repairs")
        timeout = payload.get("timeout_seconds")
        return cls(
            query=str(payload.get("query", "")),
            mode=str(payload.get("mode", "certain")),
            keys=keys,
            max_repairs=None if max_repairs is None else int(max_repairs),
            timeout_seconds=None if timeout is None else float(timeout),
        )


@dataclass(frozen=True)
class CheckpointRequest:
    """Persist the session's full state to disk (see ``SessionStore``)."""

    kind = "checkpoint"
    path: str | None = None

    def as_dict(self) -> dict[str, Any]:
        return {"path": self.path}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CheckpointRequest":
        path = payload.get("path")
        return cls(path=None if path is None else str(path))


#: Request kind → request class (the HTTP/CLI codec registry).
REQUEST_KINDS = {
    request_class.kind: request_class
    for request_class in (
        RunRequest,
        FeedbackRequest,
        AppendRequest,
        ExplainRequest,
        EvaluateRequest,
        SimulateRequest,
        QueryRequest,
        CheckpointRequest,
    )
}


def request_from_dict(kind: str, payload: Mapping[str, Any]):
    """Decode one request from its ``kind`` and JSON payload."""
    try:
        request_class = REQUEST_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown request kind {kind!r}; expected one of {', '.join(sorted(REQUEST_KINDS))}"
        ) from None
    return request_class.from_dict(payload)


# -- responses ----------------------------------------------------------------


@dataclass(frozen=True)
class SessionMetrics:
    """What one session round produced — the service's standard response."""

    session_id: str
    phase: str
    rows: int
    #: Order-independent fingerprint of the result table (equality checks).
    fingerprint: str
    #: Quality criteria of the current result (None when not evaluated).
    quality: dict[str, float] | None = None
    overall: float | None = None
    #: The incremental engine's report for this round (None on full runs).
    incremental: dict[str, Any] | None = None
    kb_facts: int = 0
    kb_revision: int = 0
    steps: int = 0
    seconds: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "session_id": self.session_id,
            "phase": self.phase,
            "rows": self.rows,
            "fingerprint": self.fingerprint,
            "quality": dict(self.quality) if self.quality is not None else None,
            "overall": self.overall,
            "incremental": dict(self.incremental) if self.incremental is not None else None,
            "kb_facts": self.kb_facts,
            "kb_revision": self.kb_revision,
            "steps": self.steps,
            "seconds": round(self.seconds, 6),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SessionMetrics":
        quality = payload.get("quality")
        incremental = payload.get("incremental")
        overall = payload.get("overall")
        return cls(
            session_id=str(payload["session_id"]),
            phase=str(payload.get("phase", "")),
            rows=int(payload.get("rows", 0)),
            fingerprint=str(payload.get("fingerprint", "")),
            quality=None if quality is None else {str(k): float(v) for k, v in quality.items()},
            overall=None if overall is None else float(overall),
            incremental=None if incremental is None else dict(incremental),
            kb_facts=int(payload.get("kb_facts", 0)),
            kb_revision=int(payload.get("kb_revision", 0)),
            steps=int(payload.get("steps", 0)),
            seconds=float(payload.get("seconds", 0.0)),
        )


@dataclass(frozen=True)
class ExplainResponse:
    """A lineage explanation, JSON-shaped (tree) and human-shaped (text)."""

    session_id: str
    tree: dict[str, Any]
    text: str = ""

    def as_dict(self) -> dict[str, Any]:
        return {"session_id": self.session_id, "tree": self.tree, "text": self.text}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExplainResponse":
        return cls(
            session_id=str(payload["session_id"]),
            tree=dict(payload.get("tree", {})),
            text=str(payload.get("text", "")),
        )


@dataclass(frozen=True)
class QueryResponse:
    """The answers of one query round, JSON-shaped.

    Mirrors :class:`repro.wrangler.pipeline.QueryOutcome`: ``certain`` and
    ``repaired`` are answer-row lists (None when the mode skipped them),
    boolean queries use ``[[]]`` for *certainly true* and ``[]`` for *not
    certain*.
    """

    session_id: str
    query: str
    mode: str
    certain: list[list] | None = None
    repaired: list[list] | None = None
    method: str | None = None
    rewritable: bool | None = None
    reason: str = ""
    keys: dict[str, list[str]] = field(default_factory=dict)
    agreement: float | None = None
    exact: bool = True
    details: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "session_id": self.session_id,
            "query": self.query,
            "mode": self.mode,
            "certain": self.certain,
            "repaired": self.repaired,
            "method": self.method,
            "rewritable": self.rewritable,
            "reason": self.reason,
            "keys": {relation: list(attrs) for relation, attrs in self.keys.items()},
            "agreement": self.agreement,
            "exact": self.exact,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryResponse":
        certain = payload.get("certain")
        repaired = payload.get("repaired")
        agreement = payload.get("agreement")
        return cls(
            session_id=str(payload["session_id"]),
            query=str(payload.get("query", "")),
            mode=str(payload.get("mode", "certain")),
            certain=None if certain is None else [list(row) for row in certain],
            repaired=None if repaired is None else [list(row) for row in repaired],
            method=payload.get("method"),
            rewritable=payload.get("rewritable"),
            reason=str(payload.get("reason", "")),
            keys={str(k): list(v) for k, v in payload.get("keys", {}).items()},
            agreement=None if agreement is None else float(agreement),
            exact=bool(payload.get("exact", True)),
            details=dict(payload.get("details", {})),
        )


# -- jobs ---------------------------------------------------------------------


class JobStatus:
    """Lifecycle states of an async job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job can never leave.
    TERMINAL = (DONE, FAILED, CANCELLED)


@dataclass
class JobRecord:
    """One enqueued request: identity, lifecycle timestamps and outcome."""

    job_id: str
    session_id: str
    kind: str
    tenant: str = "public"
    status: str = JobStatus.PENDING
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: The response payload (``as_dict`` of the typed response) when done.
    result: dict[str, Any] | None = None
    error: str | None = None
    #: The decoded request (not serialised; server-side bookkeeping).
    request: Any = field(default=None, repr=False, compare=False)

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.status in JobStatus.TERMINAL

    def as_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "session_id": self.session_id,
            "kind": self.kind,
            "tenant": self.tenant,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result": self.result,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobRecord":
        result = payload.get("result")
        return cls(
            job_id=str(payload["job_id"]),
            session_id=str(payload.get("session_id", "")),
            kind=str(payload.get("kind", "")),
            tenant=str(payload.get("tenant", "public")),
            status=str(payload.get("status", JobStatus.PENDING)),
            submitted_at=float(payload.get("submitted_at", 0.0)),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            result=None if result is None else dict(result),
            error=payload.get("error"),
        )


def rows_from_table(table, *, limit: int | None = None) -> dict[str, Any]:
    """A JSON rendering of a result table (keys + rows), for browsing."""
    if table is None:
        return {"relation": None, "attributes": [], "rows": [], "total": 0}
    keys = table.row_keys()
    attributes = list(table.schema.attribute_names)
    count = len(table) if limit is None else min(limit, len(table))
    all_rows = table.tuples()
    rows = []
    for index in range(count):
        values = all_rows[index]
        rows.append(
            {
                "row_key": keys[index],
                "values": {
                    name: value if isinstance(value, (str, int, float, bool)) or value is None
                    else str(value)
                    for name, value in zip(attributes, values)
                },
            }
        )
    return {
        "relation": table.name,
        "attributes": attributes,
        "rows": rows,
        "total": len(table),
    }
