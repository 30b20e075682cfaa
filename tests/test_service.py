"""Tests for the wrangling service layer (`repro.service`).

Covers the typed request/response surface, session lifecycle
(run/feedback/append/explain/evaluate/simulate), checkpoint/restore
equality (a restored session must be indistinguishable from one that never
died — including under hypothesis-generated random request interleavings),
the session store, the async job queue (per-session FIFO, cancellation,
rate limiting) and the deprecation shims on the old ``Wrangler`` surface.
"""

from __future__ import annotations

import pickle
import threading
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.facts import Feedback
from repro.incremental.validate import check_restored
from repro.scenarios.synth import SynthConfig, generate_synthetic
from repro.service import (
    AppendRequest,
    BackgroundService,
    CellAnnotation,
    CheckpointRequest,
    EvaluateRequest,
    ExplainRequest,
    ExplainResponse,
    FeedbackRequest,
    JobRecord,
    JobStatus,
    RateLimiter,
    RateLimitExceeded,
    RunRequest,
    SessionMetrics,
    SessionStore,
    SimulateRequest,
    WranglingSession,
    request_from_dict,
)
from repro.wrangler.config import WranglerConfig
from repro.wrangler.pipeline import Wrangler

TINY = dict(entities=40, sources=2, noise=0.1, missing=0.05)


def tiny_config(seed: int = 11) -> SynthConfig:
    return SynthConfig(family="product_catalog", seed=seed, **TINY)


@pytest.fixture
def session() -> WranglingSession:
    """A bootstrapped, scenario-backed session."""
    sess = WranglingSession.from_scenario(tiny_config())
    sess.run(RunRequest(phase="bootstrap"))
    return sess


# -- the typed surface --------------------------------------------------------


class TestRequestCodec:
    @pytest.mark.parametrize(
        "request_object",
        [
            RunRequest(phase="bootstrap", evaluate=False),
            FeedbackRequest(
                annotations=(CellAnnotation("r1", False, "price"),
                             CellAnnotation("r2", True)),
                incremental=True,
                evaluate=False,
            ),
            AppendRequest(relation="catalog1", rows=(("a", 1), ("b", 2)),
                          incremental=False),
            ExplainRequest(row=3, column="price", render=False),
            ExplainRequest(row="key-7"),
            EvaluateRequest(use_stats=False),
            SimulateRequest(budget=5, seed=9, strategy="random"),
            CheckpointRequest(path="/tmp/x.ckpt"),
        ],
    )
    def test_round_trips_through_kind_and_dict(self, request_object):
        rebuilt = request_from_dict(request_object.kind, request_object.as_dict())
        assert rebuilt == request_object

    def test_unknown_kind_is_an_error(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            request_from_dict("frobnicate", {})

    def test_prebuilt_feedback_round_trips_with_identity(self):
        fact = Feedback(feedback_id="f1", relation="product_result",
                        row_key="r9", attribute="price", correct=False)
        request = FeedbackRequest(annotations=(fact,))
        rebuilt = request_from_dict("feedback", request.as_dict())
        assert rebuilt.annotations == (fact,)

    def test_metric_and_job_responses_round_trip(self):
        metrics = SessionMetrics(session_id="s", phase="feedback", rows=10,
                                 fingerprint="abc", quality={"accuracy": 0.5},
                                 overall=0.5, incremental={"applied": True},
                                 kb_facts=100, kb_revision=7, steps=3, seconds=0.25)
        assert SessionMetrics.from_dict(metrics.as_dict()) == metrics
        job = JobRecord(job_id="j", session_id="s", kind="run",
                        status=JobStatus.DONE, submitted_at=1.0,
                        result=metrics.as_dict())
        assert JobRecord.from_dict(job.as_dict()) == job
        explain = ExplainResponse(session_id="s", tree={"value": 1}, text="t")
        assert ExplainResponse.from_dict(explain.as_dict()) == explain


# -- session lifecycle --------------------------------------------------------


class TestWranglingSession:
    def test_run_produces_metrics_with_fingerprint(self, session):
        metrics = session.run(RunRequest(phase="bootstrap"))
        assert metrics.rows > 0
        assert metrics.fingerprint == session.fingerprint()
        assert metrics.quality is not None and metrics.overall is not None
        assert metrics.session_id == session.session_id

    def test_feedback_via_cell_annotations(self, session):
        table = session.result()
        key = table.row_keys()[0]
        attribute = table.schema.attribute_names[-1]
        metrics = session.feedback(FeedbackRequest(
            annotations=(CellAnnotation(key, False, attribute),
                         CellAnnotation(key, True))))
        assert metrics.phase.startswith("feedback")
        assert session.requests_served >= 2

    def test_simulate_round_uses_scenario_ground_truth(self, session):
        metrics = session.simulate(SimulateRequest(budget=5))
        assert metrics.phase.startswith("feedback")
        assert session._simulated_rounds == 1

    def test_simulate_without_scenario_is_an_error(self):
        scenario = generate_synthetic(tiny_config())
        wrangler = Wrangler()
        scenario.install(wrangler)
        bare = wrangler.session(name="bare")
        with pytest.raises(ValueError, match="not scenario-backed"):
            bare.simulate(SimulateRequest(budget=3))

    def test_append_extends_a_source(self, session):
        source = session.scenario.sources[0]
        template = source.tuples()[0]
        before = len(session.wrangler.kb.get_table(source.name))
        metrics = session.append(AppendRequest(relation=source.name,
                                               rows=(tuple(template),)))
        assert len(session.wrangler.kb.get_table(source.name)) == before + 1
        assert metrics.rows >= 0

    def test_explain_returns_tree_and_text(self, session):
        response = session.explain(ExplainRequest(row=0))
        assert response.tree["kind"] and response.tree["label"]
        assert response.tree.get("children"), "expected lineage branches"
        assert response.text

    def test_evaluate_matches_wrangler_evaluate(self, session):
        metrics = session.evaluate(EvaluateRequest())
        report = session.wrangler.evaluate()
        assert metrics.overall == pytest.approx(report.overall())
        assert metrics.quality == pytest.approx(report.as_dict())

    def test_handle_dispatches_by_request_type(self, session):
        metrics = session.handle(EvaluateRequest())
        assert isinstance(metrics, SessionMetrics)
        with pytest.raises(TypeError, match="unsupported request"):
            session.handle(object())

    def test_info_describes_the_session(self, session):
        info = session.info()
        assert info["session_id"] == session.session_id
        assert info["rows"] == len(session.result())
        assert info["scenario"] == session.scenario.name

    def test_wrangler_session_method_links_back(self):
        wrangler = Wrangler()
        sess = wrangler.session(session_id="abc", name="mine")
        assert sess.wrangler is wrangler
        assert (sess.session_id, sess.name) == ("abc", "mine")


# -- checkpoint / restore -----------------------------------------------------


class TestCheckpointRestore:
    def test_checkpoint_file_round_trips(self, session, tmp_path):
        path = str(tmp_path / "s.ckpt")
        info = session.checkpoint(path)
        assert info["bytes"] > 0 and info["session_id"] == session.session_id
        restored = WranglingSession.restore(path)
        assert restored.session_id == session.session_id
        assert restored.fingerprint() == session.fingerprint()

    def test_corrupt_checkpoint_fails_loudly(self, session, tmp_path):
        path = str(tmp_path / "s.ckpt")
        session.checkpoint(path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-10])
        with pytest.raises(ValueError, match="corrupt"):
            WranglingSession.restore(path)

    def test_foreign_pickle_is_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        payload = pickle.dumps({"format": 999, "session": None})
        import hashlib

        digest = hashlib.sha256(payload).hexdigest()
        path.write_bytes(digest.encode() + b"\n" + payload)
        with pytest.raises(ValueError, match="format"):
            WranglingSession.restore(str(path))

    def test_restored_session_serves_identical_feedback(self):
        """The tentpole acceptance criterion: checkpoint → kill → restore →
        feedback must be bit-identical to an uninterrupted session."""
        report = check_restored(tiny_config(seed=5), rounds=2, budget=6, seed=5)
        assert report.ok, report.describe()

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(st.sampled_from(["simulate", "append", "evaluate", "run"]),
                        min_size=1, max_size=4),
           cut=st.integers(min_value=0, max_value=3))
    def test_restore_is_invisible_under_random_interleavings(self, tmp_path_factory,
                                                             ops, cut):
        """Whatever the request mix, killing and restoring the session at a
        random point must not change any subsequent response."""
        path = str(tmp_path_factory.mktemp("ckpt") / "s.ckpt")
        live = WranglingSession.from_scenario(tiny_config(seed=13))
        live.run(RunRequest(phase="bootstrap"))
        source = live.scenario.sources[0]
        template = tuple(source.tuples()[0])

        def requests():
            for name in ops:
                if name == "simulate":
                    yield SimulateRequest(budget=3)
                elif name == "append":
                    yield AppendRequest(relation=source.name, rows=(template,))
                elif name == "evaluate":
                    yield EvaluateRequest()
                else:
                    yield RunRequest(phase="touch")

        def comparable(answer):
            payload = answer.as_dict()
            payload.pop("seconds", None)  # wall clock is the one legal difference
            if payload.get("incremental"):
                payload["incremental"].pop("metrics_seconds", None)
            return payload

        survivor = None
        for position, request in enumerate(requests()):
            if position == min(cut, len(ops) - 1):
                live.checkpoint(path)
                survivor = WranglingSession.restore(path)
            live_answer = live.handle(request)
            if survivor is not None:
                restored_answer = survivor.handle(request)
                assert comparable(restored_answer) == comparable(live_answer)
        assert survivor.fingerprint() == live.fingerprint()


# -- session store ------------------------------------------------------------


class TestSessionStore:
    def test_create_get_list_drop(self):
        store = SessionStore()
        sess = store.create(tiny_config(), name="one")
        assert store.get(sess.session_id) is sess
        assert sess.session_id in store and len(store) == 1
        assert [info["name"] for info in store.list()] == ["one"]
        store.drop(sess.session_id)
        with pytest.raises(KeyError, match="unknown session"):
            store.get(sess.session_id)

    def test_duplicate_registration_is_an_error(self):
        store = SessionStore()
        sess = store.create(tiny_config())
        with pytest.raises(ValueError, match="already exists"):
            store.add(sess)

    def test_empty_session_for_manual_sources(self):
        store = SessionStore()
        sess = store.create(config=WranglerConfig(track_provenance=False))
        assert sess.result() is None
        assert sess.scenario is None

    def test_checkpoint_uses_store_directory(self, tmp_path):
        store = SessionStore(str(tmp_path))
        sess = store.create(tiny_config())
        sess.run(RunRequest(phase="bootstrap"))
        info = store.checkpoint(sess.session_id)
        assert info["path"].startswith(str(tmp_path))
        fingerprint = sess.fingerprint()
        restored = store.restore(sess.session_id)
        assert store.get(sess.session_id) is restored
        assert restored.fingerprint() == fingerprint

    def test_memory_only_store_requires_explicit_paths(self):
        store = SessionStore()
        with pytest.raises(ValueError, match="no directory"):
            store.checkpoint_path("s1")


# -- rate limiting ------------------------------------------------------------


class TestRateLimiter:
    def test_burst_then_refill(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=2, clock=lambda: clock[0])
        assert limiter.try_acquire("t") == 0.0
        assert limiter.try_acquire("t") == 0.0
        assert limiter.try_acquire("t") > 0.0  # bucket empty
        clock[0] += 1.0  # one token refilled
        assert limiter.try_acquire("t") == 0.0

    def test_tenants_are_independent(self):
        limiter = RateLimiter(rate=1.0, burst=1, clock=lambda: 0.0)
        assert limiter.try_acquire("a") == 0.0
        assert limiter.try_acquire("b") == 0.0
        assert limiter.try_acquire("a") > 0.0

    def test_check_raises_with_retry_hint(self):
        limiter = RateLimiter(rate=2.0, burst=1, clock=lambda: 0.0)
        limiter.check("t")
        with pytest.raises(RateLimitExceeded) as excinfo:
            limiter.check("t")
        assert excinfo.value.retry_after == pytest.approx(0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RateLimiter(rate=0)


# -- the job queue ------------------------------------------------------------


@pytest.fixture(scope="class")
def service():
    svc = BackgroundService(SessionStore(), workers=2)
    yield svc
    svc.close()


class TestJobQueue:
    def test_submit_wait_returns_metrics_payload(self, service):
        sess = service.store.create(tiny_config(seed=21))
        job = service.submit(sess.session_id, RunRequest(phase="bootstrap"))
        assert not job.finished  # submission returns before the round runs
        finished = service.wait(job.job_id, timeout=60)
        assert finished.status == JobStatus.DONE
        assert finished.result["rows"] > 0
        assert finished.finished and finished.started_at is not None

    def test_jobs_of_one_session_run_in_submission_order(self, service):
        sess = service.store.create(tiny_config(seed=22))
        jobs = [service.submit(sess.session_id, RunRequest(phase="bootstrap"))]
        jobs += [service.submit(sess.session_id, SimulateRequest(budget=2))
                 for _ in range(3)]
        finished = [service.wait(job.job_id, timeout=120) for job in jobs]
        assert all(job.status == JobStatus.DONE for job in finished)
        starts = [job.started_at for job in finished]
        assert starts == sorted(starts)
        # KB revision strictly grows across the ordered rounds.
        revisions = [job.result["kb_revision"] for job in finished]
        assert revisions == sorted(revisions)

    def test_failed_job_carries_the_error(self, service):
        sess = service.store.create(tiny_config(seed=23))
        payload = service.submit(
            sess.session_id, AppendRequest(relation="nope", rows=(("x",),)))
        finished = service.wait(payload.job_id, timeout=60)
        assert finished.status == JobStatus.FAILED
        assert "nope" in finished.error
        with pytest.raises(RuntimeError, match="failed"):
            service.perform(sess.session_id,
                            AppendRequest(relation="nope", rows=(("x",),)))

    def test_unknown_session_fails_fast(self, service):
        with pytest.raises(KeyError, match="unknown session"):
            service.submit("ghost", RunRequest())

    def test_cancel_only_pending_jobs(self, service, monkeypatch):
        sess = service.store.create(tiny_config(seed=24))
        # The first job waits at a gate until the cancels are sent, so the
        # queued jobs are still pending however fast a round runs.
        gate = threading.Event()
        handle = sess.handle

        def gated_handle(request):
            gate.wait(timeout=60)
            return handle(request)

        monkeypatch.setattr(sess, "handle", gated_handle)
        first = service.submit(sess.session_id, RunRequest(phase="bootstrap"))
        queued = [service.submit(sess.session_id, SimulateRequest(budget=2))
                  for _ in range(4)]
        cancelled = [job for job in queued if service.cancel(job.job_id)]
        gate.set()
        assert cancelled, "expected at least one still-pending job to cancel"
        for job in cancelled:
            record = service.wait(job.job_id, timeout=60)
            assert record.status == JobStatus.CANCELLED
            assert record.result is None
        done = service.wait(first.job_id, timeout=60)
        assert done.status == JobStatus.DONE
        assert not service.cancel(first.job_id)  # terminal jobs cannot cancel

    def test_rate_limited_tenant_is_rejected(self):
        clock = [0.0]
        svc = BackgroundService(
            SessionStore(), workers=1,
            rate_limiter=RateLimiter(rate=1.0, burst=2, clock=lambda: clock[0]))
        try:
            sess = svc.store.create(tiny_config(seed=25))
            svc.submit(sess.session_id, EvaluateRequest(), tenant="greedy")
            svc.submit(sess.session_id, EvaluateRequest(), tenant="greedy")
            with pytest.raises(RateLimitExceeded):
                svc.submit(sess.session_id, EvaluateRequest(), tenant="greedy")
            # Another tenant (and a refilled bucket) still get through.
            svc.submit(sess.session_id, EvaluateRequest(), tenant="patient")
            clock[0] += 1.0
            svc.submit(sess.session_id, EvaluateRequest(), tenant="greedy")
        finally:
            svc.close()

    def test_jobs_listing_filters_by_session(self, service):
        sess = service.store.create(tiny_config(seed=26))
        job = service.submit(sess.session_id, RunRequest(phase="bootstrap"))
        service.wait(job.job_id, timeout=60)
        mine = service.jobs(sess.session_id)
        assert [record.job_id for record in mine] == [job.job_id]
        assert job.job_id in {record.job_id for record in service.jobs()}


# -- the deprecated Wrangler surface ------------------------------------------


class TestDeprecatedSurface:
    def test_old_methods_warn_but_still_work(self, session):
        wrangler = session.wrangler
        table = session.result()
        key = table.row_keys()[0]
        annotation = wrangler.feedback_on_tuple(key, correct=True)
        with pytest.warns(DeprecationWarning, match="session API"):
            result = wrangler.apply_feedback([annotation], evaluate=False)
        assert result.table is not None
        source = session.scenario.sources[0]
        with pytest.warns(DeprecationWarning, match="session API"):
            wrangler.append_source_rows(source.name, [source.tuples()[0]])

    def test_result_explain_equals_wrangler_explain(self, session):
        wrangler = session.wrangler
        result = wrangler.run("touch", evaluate=False)
        assert result.explain(0).as_dict() == wrangler.explain(0).as_dict()

    def test_result_explain_catalog_kwarg_is_deprecated(self, session):
        wrangler = session.wrangler
        result = wrangler.run("touch", evaluate=False)
        with pytest.warns(DeprecationWarning, match="catalog"):
            result.explain(0, catalog=wrangler.kb.catalog)

    def test_session_surface_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sess = WranglingSession.from_scenario(tiny_config(seed=31))
            sess.run(RunRequest(phase="bootstrap"))
            sess.simulate(SimulateRequest(budget=3))
            source = sess.scenario.sources[0]
            sess.append(AppendRequest(relation=source.name,
                                      rows=(tuple(source.tuples()[0]),)))
            sess.evaluate(EvaluateRequest())
            sess.explain(ExplainRequest(row=0))
