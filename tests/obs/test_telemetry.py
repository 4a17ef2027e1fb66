"""Engine telemetry: events, worker summaries, and the cross-process relay."""

from collections import Counter

import pytest

from repro.core.techniques import Technique
from repro.engine import JobRequest, ParallelEngine
from repro.engine.jobs import execute_job
from tests.engine.faults import square
from repro.obs.telemetry import (
    ENGINE_EVENT_TYPES,
    CacheHit,
    CacheMiss,
    EngineTelemetry,
    JobFinished,
    JobQueued,
    JobRetry,
    JobStarted,
    JobTelemetry,
    WorkerEventSummary,
    WorkerTelemetry,
    current_worker,
    inline_worker,
    job_label,
    result_event_counts,
)


def _job(benchmark="hotspot", technique=Technique.BASELINE, seed=0):
    return JobRequest(benchmark=benchmark,
                      technique=technique, scale=0.2,
                      seed=seed)


class TestEngineEvents:
    def test_now_stamps_wall_clock(self):
        event = JobStarted.now(label="a/b/s0", worker="w")
        assert event.cycle == 0
        assert event.ts > 0
        assert event.label == "a/b/s0"

    def test_to_record_is_jsonl_compatible(self):
        record = JobFinished.now(label="x", index=3, status="ok",
                                 attempts=1, seconds=0.5).to_record()
        assert record["event"] == "JobFinished"
        assert record["index"] == 3
        assert record["status"] == "ok"

    def test_every_type_constructs_via_now(self):
        for event_type in ENGINE_EVENT_TYPES:
            event = event_type.now()
            assert event.ts > 0
            assert event.to_record()["event"] == event_type.__name__

    def test_job_label_for_sim_jobs(self):
        assert job_label(_job()) == "hotspot/baseline/s0"
        assert job_label(_job("bfs", Technique.WARPED_GATES, seed=3)) \
            == "bfs/warped_gates/s3"

    def test_job_label_fallback_for_plain_items(self):
        assert job_label(17, index=4) == "item4"
        assert job_label(object()) == "object"


@pytest.fixture(scope="module")
def gated_result():
    """One small warped_gates run, simulated without any telemetry."""
    return execute_job(_job(technique=Technique.WARPED_GATES)).result


class TestJobTelemetry:
    def test_emits_started_then_summary(self, gated_result):
        sent = []
        session = JobTelemetry(sent.append, "hotspot/warped_gates/s0")
        assert isinstance(sent[0], JobStarted)
        assert sent[0].label == "hotspot/warped_gates/s0"

        session.finish(gated_result)
        summary = sent[-1]
        assert isinstance(summary, WorkerEventSummary)
        assert summary.cycles == gated_result.cycles
        assert not summary.cache_hit
        assert summary.counts == result_event_counts(gated_result)
        assert summary.counts["GateOn"] > 0
        assert summary.finished_at >= summary.started_at

    def test_cache_hit_summary_has_no_counts(self, gated_result):
        sent = []
        JobTelemetry(sent.append, "x").finish(gated_result, cache_hit=True)
        assert sent[-1].cache_hit
        assert sent[-1].cycles == gated_result.cycles
        assert sent[-1].counts == {}

    def test_finish_is_idempotent(self, gated_result):
        sent = []
        session = JobTelemetry(sent.append, "x")
        session.finish(gated_result)
        session.finish(gated_result, cache_hit=True)
        summaries = [e for e in sent
                     if isinstance(e, WorkerEventSummary)]
        assert len(summaries) == 1
        assert not summaries[0].cache_hit

    def test_worker_without_send_has_no_session(self):
        worker = WorkerTelemetry(None)
        assert worker.job_session("anything") is None


class TestInlineRelay:
    def test_inline_batch_publishes_on_parent_bus(self, tmp_path):
        with EngineTelemetry() as telemetry:
            seen = []
            telemetry.bus.subscribe(seen.append)
            engine = ParallelEngine(jobs=1, cache_dir=str(tmp_path),
                                    telemetry=telemetry)
            outcomes = engine.run_sim_jobs([_job()])
            assert outcomes[0].status.value == "ok"
            kinds = Counter(type(e).__name__ for e in seen)
        assert kinds["JobQueued"] == 1
        assert kinds["JobStarted"] == 1
        assert kinds["JobFinished"] == 1
        assert kinds["WorkerEventSummary"] == 1
        assert kinds["CacheMiss"] >= 1  # cold trace + result lookups
        summary = next(e for e in seen
                       if isinstance(e, WorkerEventSummary))
        assert summary.label == "hotspot/baseline/s0"
        assert sum(summary.counts.values()) > 0  # real sim events

    def test_inline_worker_restores_previous_state(self):
        with EngineTelemetry() as telemetry:
            assert current_worker() is None
            with inline_worker(telemetry):
                assert current_worker() is not None
            assert current_worker() is None

    def test_disabled_telemetry_installs_no_session(self):
        with EngineTelemetry(enabled=False) as telemetry:
            assert not telemetry.enabled
            assert telemetry.pool_init() is None
            with inline_worker(telemetry):
                worker = current_worker()
                assert worker is not None
                assert worker.job_session("x") is None
            telemetry.emit(JobQueued.now(label="x"))  # no-op, no crash
            assert telemetry.bus.events_published == 0


class TestPooledRelay:
    def test_generic_map_emits_parent_side_events(self):
        with EngineTelemetry() as telemetry:
            seen = []
            telemetry.bus.subscribe(seen.append)
            with ParallelEngine(jobs=2, cache_dir=None,
                                telemetry=telemetry) as engine:
                reports = engine.map_outcomes(square, [1, 2, 3])
            assert [r.value for r in reports] == [1, 4, 9]
            kinds = Counter(type(e).__name__ for e in seen)
        assert kinds["JobQueued"] == 3
        assert kinds["JobFinished"] == 3
        queued = [e for e in seen if isinstance(e, JobQueued)]
        assert [e.label for e in queued] == ["item0", "item1", "item2"]

    def test_sim_jobs_relay_worker_summaries(self, tmp_path):
        jobs = [_job(seed=0), _job(seed=1)]
        with EngineTelemetry() as telemetry:
            seen = []
            telemetry.bus.subscribe(seen.append)
            with ParallelEngine(jobs=2, cache_dir=str(tmp_path),
                                telemetry=telemetry) as engine:
                outcomes = engine.run_sim_jobs(jobs)
            # map_outcomes flushed the relay: the summaries are already
            # on the parent bus, deterministically, with no sleeping.
            summaries = [e for e in seen
                         if isinstance(e, WorkerEventSummary)]
        assert all(o.status.value == "ok" for o in outcomes)
        assert len(summaries) == 2
        for summary in summaries:
            assert summary.worker not in ("", "MainProcess")
            assert sum(summary.counts.values()) > 0  # real sim events
        labels = {s.label for s in summaries}
        assert labels == {"hotspot/baseline/s0", "hotspot/baseline/s1"}
        started = [e for e in seen if isinstance(e, JobStarted)]
        assert {s.worker for s in started} \
            == {s.worker for s in summaries}

    def test_retry_events_stream_from_failures(self, tmp_path):
        from repro.engine import FaultPolicy
        from tests.engine.faults import FaultPlan, FaultyWorker

        plan = FaultPlan(crash=("boom",))
        worker = FaultyWorker(square, plan)
        with EngineTelemetry() as telemetry:
            seen = []
            telemetry.bus.subscribe(seen.append)
            engine = ParallelEngine(
                jobs=1, cache_dir=None, telemetry=telemetry,
                policy=FaultPolicy(max_retries=1, backoff_base=0.0))
            reports = engine.map_outcomes(worker, ["boom", 5])
        assert reports[0].status.value == "failed"
        assert reports[1].value == 25
        retries = [e for e in seen if isinstance(e, JobRetry)]
        assert len(retries) == 1
        assert retries[0].reason == "failed"
        assert retries[0].attempt == 1
        finished = {e.index: e for e in seen
                    if isinstance(e, JobFinished)}
        assert finished[0].status == "failed"
        assert finished[0].attempts == 2
        assert finished[1].status == "ok"


class TestMetricsAggregation:
    def test_stream_lands_in_labelled_registry(self):
        with EngineTelemetry() as telemetry:
            telemetry.emit(JobQueued.now(label="j", index=0))
            telemetry.emit(JobStarted.now(label="j", worker="w"))
            telemetry.emit(JobFinished.now(label="j", index=0,
                                           status="ok", attempts=1,
                                           seconds=0.25))
            telemetry.emit(JobRetry.now(label="k", index=1, attempt=1,
                                        reason="timed_out"))
            telemetry.emit(CacheHit.now(group="results", key="a",
                                        worker="w"))
            telemetry.emit(CacheMiss.now(group="results", key="b",
                                         worker="w"))
            telemetry.emit(CacheMiss.now(group="results", key="c",
                                         worker="w", corrupt=True))
            metrics = telemetry.metrics
            assert metrics.counter("engine_jobs_queued").value == 1
            assert metrics.counter("engine_jobs_total",
                                   status="ok").value == 1
            assert metrics.counter("engine_retries_total",
                                   reason="timed_out").value == 1
            assert metrics.counter("engine_cache_requests_total",
                                   disposition="hit").value == 1
            assert metrics.counter("engine_cache_requests_total",
                                   disposition="corrupt").value == 1
            assert telemetry.cache_hit_ratio() == pytest.approx(1 / 3)

    def test_queue_wait_measured_per_started_job(self):
        with EngineTelemetry() as telemetry:
            telemetry.emit(JobQueued.now(label="j", index=0))
            telemetry.emit(JobStarted.now(label="j", worker="w"))
            histogram = telemetry.metrics.histogram(
                "engine_queue_wait_ms")
            assert histogram.total == 1

    def test_cache_hit_ratio_none_without_io(self):
        with EngineTelemetry() as telemetry:
            assert telemetry.cache_hit_ratio() is None

    def test_engine_batch_populates_registry(self, tmp_path):
        with EngineTelemetry() as telemetry:
            with ParallelEngine(jobs=2, cache_dir=str(tmp_path),
                                telemetry=telemetry) as engine:
                engine.run_sim_jobs([_job(seed=0), _job(seed=1)])
            flat = telemetry.metrics.as_flat_dict()
        assert flat["engine_jobs_queued"] == 2
        assert flat['engine_jobs_total{status="ok"}'] == 2
        assert flat["engine_worker_events_total"] > 0


class TestZeroCost:
    def test_engine_without_telemetry_has_no_hooks(self, tmp_path):
        engine = ParallelEngine(jobs=1, cache_dir=str(tmp_path))
        outcomes = engine.run_sim_jobs([_job()])
        assert outcomes[0].status.value == "ok"
        assert current_worker() is None  # nothing was installed

    def test_null_relay_never_creates_queue(self):
        with EngineTelemetry(enabled=False) as telemetry:
            assert telemetry.pool_init() is None
            assert telemetry._queue is None
            assert telemetry.flush()  # trivially drained

    def test_worker_bus_stays_disabled_without_session(self, tmp_path):
        # execute_job without an installed worker builds the SM on a
        # disabled bus: publications must cost one flag check, not a
        # dispatch (the overhead budget is pinned in benchmarks).
        outcome = execute_job(_job(), cache_dir=None)
        assert outcome.result.cycles > 0


class TestRelayLifecycle:
    def test_flush_and_close_are_idempotent(self):
        telemetry = EngineTelemetry()
        queue = telemetry.ensure_relay()
        assert queue is telemetry.ensure_relay()  # one queue, reused
        assert telemetry.flush()
        telemetry.close()
        telemetry.close()
        assert telemetry._queue is None

    def test_events_drain_through_the_relay_thread(self):
        telemetry = EngineTelemetry()
        seen = []
        telemetry.bus.subscribe(seen.append, WorkerEventSummary)
        queue = telemetry.ensure_relay()
        queue.put(WorkerEventSummary.now(label="x", worker="w"))
        assert telemetry.flush(timeout=5.0)
        telemetry.close()
        assert len(seen) == 1
        assert seen[0].label == "x"


class TestWorkerProfiling:
    def test_pooled_workers_dump_and_aggregate(self, tmp_path):
        # The --profile seam: a telemetry with a profile_dir makes each
        # pool worker cProfile its job and dump a pstats file; the
        # parent merges every dump into one report.
        import pstats

        from repro.obs.profiling import (
            aggregate_profiles,
            profile_summary,
            write_profile_report,
        )

        profile_dir = tmp_path / "prof"
        jobs = [_job(seed=0), _job(seed=1)]
        with EngineTelemetry(profile_dir=str(profile_dir)) as telemetry:
            with ParallelEngine(jobs=2,
                                cache_dir=str(tmp_path / "cache"),
                                telemetry=telemetry) as engine:
                outcomes = engine.run_sim_jobs(jobs)
        assert all(o.status.value == "ok" for o in outcomes)

        dumps = sorted(profile_dir.glob("worker-*.pstats"))
        assert dumps  # real worker-side profiles landed on disk

        stats, count = aggregate_profiles(profile_dir)
        assert count == len(dumps)
        assert stats is not None
        report = write_profile_report(stats, tmp_path / "merged.pstats")
        merged = pstats.Stats(str(report))
        assert merged.total_calls > 0
        # The merged profile saw actual simulation work, and the text
        # summary renders the cumulative top functions.
        assert "run" in profile_summary(stats, top=20)

    def test_aggregate_skips_torn_dumps(self, tmp_path):
        from repro.obs.profiling import aggregate_profiles

        (tmp_path / "worker-dead.pstats").write_bytes(b"not a profile")
        stats, count = aggregate_profiles(tmp_path)
        assert stats is None
        assert count == 0
