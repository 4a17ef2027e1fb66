"""SimulationService core: dedupe, lifecycle, parity, wire format.

The headline guarantees pinned here:

* **Single-flight**: N concurrent submissions of one spec-addressed
  request share one ticket and one engine execution — proven with an
  on-disk execution counter that survives the process pool.
* **Golden parity**: a service-run result digests identically to the
  classic serial :class:`ExperimentRunner` path (the same canonical
  sha256 the golden identity suite pins).
* **Lifecycle**: tickets move queued → running → terminal, feeds
  replay-then-close, and a failed cell is memoised and raises
  :class:`JobFailedError`, with or without an explicit engine.
"""

import threading
from functools import partial

import pytest

from repro.core.digest import result_digest
from repro.engine import FaultPolicy, ParallelEngine
from repro.engine.cache import RunCache
from repro.engine.faults import JobFailedError
from repro.engine.jobs import JobRequest, execute_job
from repro.harness.experiment import ExperimentRunner, ExperimentSettings
from repro.obs.ledger import ledger_dir_for, load_run
from repro.obs.telemetry import EngineTelemetry
from repro.service.core import JobState, SimulationService

from tests.engine.faults import (
    CountingWorker,
    FaultPlan,
    FaultyEngine,
    count_executions,
    sim_job_key,
)

SCALE = 0.1


def request(benchmark="bfs", technique="warped_gates", **kwargs):
    kwargs.setdefault("scale", SCALE)
    return JobRequest(benchmark=benchmark, technique=technique, **kwargs)


class TestSingleFlight:
    def test_concurrent_same_spec_submits_execute_once(self, tmp_path):
        """Four racing submitters; the pool runs the cell exactly once."""
        cache_dir = str(tmp_path / "cache")
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        engine = ParallelEngine(jobs=2, cache_dir=cache_dir)
        service = SimulationService(
            engine=engine,
            worker=CountingWorker(partial(execute_job,
                                          cache_dir=cache_dir),
                                  str(marker_dir), key=sim_job_key))
        results = [None] * 4
        barrier = threading.Barrier(4)

        def submit(i):
            barrier.wait()
            results[i] = service.run(request())

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # One execution (cross-process counter), one manifest, one
        # ticket with four recorded submissions — and every caller got
        # the *same* settled result object.
        assert count_executions(marker_dir, "bfs/warped_gates/s0") == 1
        assert len(service.manifests) == 1
        (ticket,) = service.tickets()
        assert ticket.submissions == 4
        assert ticket.snapshot()["deduped"] is True
        assert all(r is results[0] for r in results)

    def test_spec_addressing_aliases_equivalent_techniques(self):
        from repro.core.spec import technique_spec
        from repro.core.techniques import Technique

        service = SimulationService()
        a, created_a = service.submit(request(technique="warped_gates"))
        b, created_b = service.submit(
            request(technique=Technique.WARPED_GATES))
        c, created_c = service.submit(
            request(technique=technique_spec("warped_gates")))
        assert created_a and not created_b and not created_c
        assert a is b is c and a.submissions == 3

    def test_distinct_settings_never_alias(self):
        service = SimulationService()
        base, _ = service.submit(request())
        for other in (request(seed=1), request(scale=0.2),
                      request(technique="conv_pg"),
                      request(fast_forward=True)):
            ticket, created = service.submit(other)
            assert created and ticket is not base


class TestGoldenParity:
    def test_service_digest_matches_serial_runner(self, tmp_path):
        """Engine-served result == classic serial path, bit for bit."""
        engine = ParallelEngine(jobs=1, cache_dir=str(tmp_path / "cache"))
        with SimulationService(engine=engine) as service:
            served = service.run(request())
        runner = ExperimentRunner(ExperimentSettings(
            scale=SCALE, benchmarks=("bfs",)))
        serial = runner.run("bfs", "warped_gates")
        assert result_digest(served) == result_digest(serial)

    def test_inline_service_digest_matches_serial_runner(self):
        with SimulationService() as service:
            inline = service.run(request())
        runner = ExperimentRunner(ExperimentSettings(
            scale=SCALE, benchmarks=("bfs",)))
        serial = runner.run("bfs", "warped_gates")
        assert result_digest(inline) == result_digest(serial)


class TestLifecycle:
    def test_states_and_feed_replay(self):
        service = SimulationService()
        ticket, created = service.submit(request())
        assert created and ticket.state is JobState.QUEUED
        service.execute(ticket)
        assert ticket.state is JobState.OK and ticket.done
        records = []
        unsubscribe = ticket.feed.subscribe(records.append)
        unsubscribe()
        records = [r for r in records if isinstance(r, dict)]
        states = [r["state"] for r in records if r["record"] == "state"]
        assert states == ["queued", "running", "ok"]
        done = [r for r in records if r["record"] == "done"]
        assert len(done) == 1 and done[0]["cycles"] > 0

    def test_engine_failure_is_memoised_and_raises(self, tmp_path):
        plan = FaultPlan(crash=("bfs/warped_gates/s0",))
        engine = FaultyEngine(plan, jobs=1,
                              cache_dir=str(tmp_path / "cache"),
                              policy=FaultPolicy(max_retries=0))
        service = SimulationService(engine=engine)
        ticket, _ = service.submit(request())
        service.execute(ticket)
        assert ticket.state is JobState.FAILED
        with pytest.raises(JobFailedError, match="bfs/warped_gates"):
            ticket.result()
        # Memoised: resubmitting dedupes onto the failed ticket, and
        # no second execution happens.
        again, created = service.submit(request())
        assert again is ticket and not created
        assert len(service.manifests) == 1

    def test_default_service_failure_is_memoised_and_raises(self):
        """The engine-less service fails a cell like any engine does."""
        def raising_worker(job):
            raise RuntimeError("injected failure")

        service = SimulationService(worker=raising_worker)
        ticket, _ = service.submit(request())
        service.execute(ticket)
        assert ticket.state is JobState.FAILED
        with pytest.raises(JobFailedError, match="injected failure"):
            ticket.result()
        again, created = service.submit(request())
        assert again is ticket and not created
        assert len(service.manifests) == 1

    def test_engine_exception_settles_the_batch(self, monkeypatch):
        """An error out of the engine itself leaves no ticket running."""
        service = SimulationService()

        def broken(jobs, worker=None):
            raise RuntimeError("engine broke")

        monkeypatch.setattr(service.engine, "run_sim_jobs", broken)
        ticket, _ = service.submit(request())
        with pytest.raises(RuntimeError, match="engine broke"):
            service.execute(ticket)
        assert ticket.done and ticket.state is JobState.FAILED
        with pytest.raises(JobFailedError, match="engine broke"):
            ticket.result()
        assert service.drain(timeout=1.0)

    def test_prefetch_is_one_batch_and_skips_settled(self, tmp_path):
        engine = ParallelEngine(jobs=1, cache_dir=str(tmp_path / "cache"))
        service = SimulationService(engine=engine)
        service.run(request())  # settle one cell up front
        tickets = service.prefetch([
            request(), request(technique="conv_pg"),
            request(technique="baseline"), request()])  # dup collapses
        assert len(tickets) == 3
        assert all(t.done for t in tickets)
        assert len(service.manifests) == 3  # 1 direct + 2 batched
        assert service.drain(timeout=1.0)


def _engine_events(ticket):
    """The engine events routed into one ticket's feed, by type."""
    events = {}
    for record in ticket.feed.history():
        if record.get("record") == "engine_event":
            events.setdefault(record["event"], []).append(record)
    return events


JOB_EVENTS = ("JobQueued", "JobStarted", "WorkerEventSummary", "JobFinished")


class TestFeedRouting:
    """Engine events reach the ticket of their run, by run key.

    Labels (``bench/tech/sSEED``) name cells for display only: two runs
    that differ in scale or gating share one, and must still keep their
    own feeds.
    """

    def _service(self, tmp_path):
        telemetry = EngineTelemetry()
        engine = ParallelEngine(jobs=1, cache_dir=str(tmp_path / "cache"),
                                telemetry=telemetry)
        return telemetry, SimulationService(engine=engine)

    def _assert_own_events(self, ticket):
        events = _engine_events(ticket)
        for name in JOB_EVENTS:
            assert len(events.get(name, ())) == 1, (ticket.job_id, name)
            assert events[name][0]["run_key"] == ticket.job_id

    def test_same_label_other_scale_keeps_its_own_feed(self, tmp_path):
        telemetry, service = self._service(tmp_path)
        with telemetry, service:
            a, _ = service.submit(request("hotspot", scale=0.1))
            b, _ = service.submit(request("hotspot", scale=0.2))
            assert a.label == b.label and a.job_id != b.job_id
            service.execute(a)
            service.execute(b)
        self._assert_own_events(a)
        self._assert_own_events(b)
        assert _engine_events(a)["WorkerEventSummary"][0]["cycles"] == \
            a.outcome.manifest.cycles
        assert _engine_events(b)["WorkerEventSummary"][0]["cycles"] == \
            b.outcome.manifest.cycles

    def test_same_named_specs_in_one_prefetch(self, tmp_path):
        from dataclasses import replace

        from repro.core.spec import technique_spec
        from repro.power.params import GatingParams

        spec = technique_spec("warped_gates")
        other = replace(spec, gating=GatingParams(bet=19))
        telemetry, service = self._service(tmp_path)
        with telemetry, service:
            tickets = service.prefetch([request(technique=spec),
                                        request(technique=other)])
        assert len({t.label for t in tickets}) == 1
        assert len({t.job_id for t in tickets}) == 2
        for ticket in tickets:
            self._assert_own_events(ticket)


class TestOneRunKey:
    def test_every_layer_names_the_run_by_its_key(self, tmp_path):
        """Ticket table, cache file, manifest, ledger and engine events
        all carry ``JobRequest.key``."""
        cache_dir = tmp_path / "cache"
        telemetry = EngineTelemetry()
        seen = []
        telemetry.bus.subscribe(seen.append)
        engine = ParallelEngine(jobs=1, cache_dir=str(cache_dir),
                                telemetry=telemetry)
        with telemetry, SimulationService(engine=engine) as service:
            submitted = request()
            ticket, _ = service.submit(submitted)
            service.execute(ticket)
        key = submitted.key(engine.fast_forward)
        assert ticket.job_id == key and service.get(key) is ticket
        assert RunCache(str(cache_dir)).path("results", key).exists()
        assert ticket.outcome.manifest.run_key == key
        jobs = [r for r in load_run(ledger_dir_for(str(cache_dir)),
                                    engine.last_run_id)
                if r.get("record") == "job"]
        assert [r["run_key"] for r in jobs] == [key]
        keyed = [e for e in seen if type(e).__name__ in JOB_EVENTS]
        assert sorted(type(e).__name__ for e in keyed) == sorted(JOB_EVENTS)
        assert {e.run_key for e in keyed} == {key}


class TestWireFormat:
    def test_round_trip(self):
        original = request(seed=3, fast_forward=False)
        parsed = JobRequest.from_dict(original.to_dict())
        assert parsed.key(False) == original.key(False)

    def test_validation_errors_name_the_offence(self):
        with pytest.raises(ValueError, match="unknown key"):
            JobRequest.from_dict({"benchmark": "bfs",
                                  "technique": "conv_pg", "bogus": 1})
        with pytest.raises(ValueError, match="exactly one of"):
            JobRequest.from_dict({"benchmark": "bfs"})
        with pytest.raises(ValueError, match="exactly one of"):
            JobRequest.from_dict({"benchmark": "bfs",
                                  "technique": "conv_pg",
                                  "spec": {"name": "x"}})
        with pytest.raises(ValueError, match="did you mean"):
            JobRequest.from_dict({"benchmark": "bsf",
                                  "technique": "conv_pg"})
        with pytest.raises(ValueError, match="'seed'"):
            JobRequest.from_dict({"benchmark": "bfs",
                                  "technique": "conv_pg", "seed": "0"})
        with pytest.raises(ValueError, match="JSON object"):
            JobRequest.from_dict(["not", "a", "dict"])
