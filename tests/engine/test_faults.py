"""Fault tolerance: crash isolation, retry/timeout, partial grids.

The contract under test (the tentpole of this PR):

* one bad job never strands its siblings — the rest of the batch
  completes and every job gets a structured outcome;
* a hard worker death (``BrokenProcessPool``) and a hung worker
  (per-job timeout) are contained to the jobs that caused them;
* retries are deterministic: a retried job's result is bit-identical
  to a first-try result, and a crashed-then-retried grid matches a
  fully-serial reference run exactly;
* the harness layers (runner, sweeps, replication) complete partial
  grids around failed cells and record the failures in manifests.
"""

import pytest

from repro.core.techniques import Technique
from repro.engine import FaultPolicy, JobRequest, JobStatus, ParallelEngine
from repro.engine.faults import JobFailedError

from tests.engine.faults import (
    FaultPlan,
    FaultyEngine,
    FaultyWorker,
    InjectedCrash,
    sim_job_key,
    square,
)

#: No-sleep retries: tests never wait out a real backoff.
FAST = dict(backoff_base=0.0)


class _SubmitCounter:
    """Executor proxy that counts this wave's submissions."""

    def __init__(self, pool, sizes):
        self._pool = pool
        self._sizes = sizes

    def submit(self, fn, *args, **kwargs):
        self._sizes[-1] += 1
        return self._pool.submit(fn, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._pool, name)


class _WaveSpyEngine(ParallelEngine):
    """Records how many jobs each wave submitted (``_pool`` is called
    exactly once per wave)."""

    def __init__(self, sizes, **kwargs):
        super().__init__(**kwargs)
        self.wave_sizes = sizes

    def _pool(self):
        pool = super()._pool()
        self.wave_sizes.append(0)
        return _SubmitCounter(pool, self.wave_sizes)


class TestInlineOutcomes:
    def test_crash_is_contained_to_its_job(self):
        engine = ParallelEngine(jobs=1, cache_dir=None)
        worker = FaultyWorker(square, FaultPlan(crash=(2,)))
        reports = engine.map_outcomes(worker, range(5))
        assert [r.status for r in reports] == [
            JobStatus.OK, JobStatus.OK, JobStatus.FAILED,
            JobStatus.OK, JobStatus.OK]
        assert [r.value for r in reports if r.ok] == [0, 1, 9, 16]
        assert "InjectedCrash" in reports[2].error

    def test_retry_recovers_flaky_job(self, tmp_path):
        engine = ParallelEngine(jobs=1, cache_dir=None)
        worker = FaultyWorker(square, FaultPlan(
            crash_once=(3,), marker_dir=str(tmp_path)))
        reports = engine.map_outcomes(
            worker, range(5), policy=FaultPolicy(max_retries=1, **FAST))
        assert all(r.ok for r in reports)
        assert [r.attempts for r in reports] == [1, 1, 1, 2, 1]
        assert reports[3].value == 9  # bit-identical to a first try
        assert reports[3].retried

    def test_fail_fast_cancels_the_tail(self):
        engine = ParallelEngine(jobs=1, cache_dir=None)
        worker = FaultyWorker(square, FaultPlan(crash=(1,)))
        reports = engine.map_outcomes(
            worker, range(4), policy=FaultPolicy(fail_fast=True, **FAST))
        assert [r.status for r in reports] == [
            JobStatus.OK, JobStatus.FAILED, JobStatus.CANCELLED,
            JobStatus.CANCELLED]
        assert reports[2].attempts == 0  # never executed

    def test_map_raises_original_exception(self):
        engine = ParallelEngine(jobs=1, cache_dir=None)
        worker = FaultyWorker(square, FaultPlan(crash=(0,)))
        with pytest.raises(InjectedCrash):
            engine.map(worker, range(3))


class TestPooledOutcomes:
    def test_worker_exception_mid_batch_completes(self):
        with ParallelEngine(jobs=2, cache_dir=None) as engine:
            worker = FaultyWorker(square, FaultPlan(crash=(3,)))
            reports = engine.map_outcomes(worker, range(8))
        assert len(reports) == 8
        assert reports[3].status is JobStatus.FAILED
        assert "InjectedCrash" in reports[3].error
        for i in (0, 1, 2, 4, 5, 6, 7):
            assert reports[i].ok and reports[i].value == i * i

    def test_map_raises_and_engine_stays_usable(self):
        with ParallelEngine(jobs=2, cache_dir=None) as engine:
            worker = FaultyWorker(square, FaultPlan(crash=(5,)))
            with pytest.raises(InjectedCrash):
                engine.map(worker, range(8))
            # No future was left running detached: the engine can run
            # the next batch immediately on the same pool.
            assert engine.map(square, range(6)) == \
                [i * i for i in range(6)]

    def test_broken_pool_is_rebuilt_and_attributed(self):
        with ParallelEngine(jobs=2, cache_dir=None) as engine:
            worker = FaultyWorker(square, FaultPlan(exit=(2,)))
            reports = engine.map_outcomes(
                worker, range(6),
                policy=FaultPolicy(max_retries=1, **FAST))
            assert reports[2].status is JobStatus.FAILED
            assert reports[2].attempts == 2  # retried once, died again
            for i in (0, 1, 3, 4, 5):
                assert reports[i].ok and reports[i].value == i * i, i
            # The pool was rebuilt: the engine still works.
            assert engine.map(square, [7]) == [49]

    def test_parallel_waves_resume_after_culprit_charged(self):
        # An unattributable crash serialises into one-job waves only
        # until the culprit crashes alone and is charged; the rest of
        # the batch must then run in parallel again, not one per wave.
        sizes = []
        with _WaveSpyEngine(sizes, jobs=2, cache_dir=None) as engine:
            worker = FaultyWorker(square, FaultPlan(
                exit=(0,), hang=tuple(range(1, 10)), hang_seconds=0.2))
            reports = engine.map_outcomes(worker, range(10))
        assert reports[0].status is JobStatus.FAILED
        for i in range(1, 10):
            assert reports[i].ok and reports[i].value == i * i, i
        assert sizes[0] == 10          # first wave fans the whole batch
        assert 1 in sizes              # the culprit ran alone once
        assert sizes[-1] > 1           # parallelism restored afterwards

    def test_timeout_kills_hung_worker_and_charges_it(self):
        with ParallelEngine(jobs=2, cache_dir=None) as engine:
            worker = FaultyWorker(square, FaultPlan(hang=(1,)))
            reports = engine.map_outcomes(
                worker, range(4),
                policy=FaultPolicy(job_timeout=0.75, **FAST))
        assert reports[1].status is JobStatus.TIMED_OUT
        assert "timed out" in reports[1].error
        for i in (0, 2, 3):
            assert reports[i].ok and reports[i].value == i * i, i

    def test_queued_jobs_are_not_charged_by_siblings_time(self):
        # 8 x 0.4s jobs on 2 workers: the wave takes ~1.6s wall, well
        # past the 1.5s budget — but each job's own runtime is far
        # under it.  The budget is per job, anchored to when the job
        # starts running, so nothing may time out.
        with ParallelEngine(jobs=2, cache_dir=None) as engine:
            worker = FaultyWorker(square, FaultPlan(
                hang=tuple(range(8)), hang_seconds=0.4))
            reports = engine.map_outcomes(
                worker, range(8),
                policy=FaultPolicy(job_timeout=1.5, **FAST))
        assert [r.status for r in reports] == [JobStatus.OK] * 8
        assert [r.value for r in reports] == [i * i for i in range(8)]
        assert all(r.attempts == 1 for r in reports)

    def test_retried_job_is_bit_identical(self, tmp_path):
        with ParallelEngine(jobs=2, cache_dir=None) as engine:
            worker = FaultyWorker(square, FaultPlan(
                crash_once=(4,), marker_dir=str(tmp_path)))
            reports = engine.map_outcomes(
                worker, range(6),
                policy=FaultPolicy(max_retries=1, **FAST))
        assert all(r.ok for r in reports)
        assert [r.value for r in reports] == [i * i for i in range(6)]
        assert reports[4].attempts == 2
        assert sum(r.attempts for r in reports) == 7  # only job 4 retried


class TestSimJobGrid:
    """The ISSUE's acceptance scenario: a crashed worker in a >=20-job
    grid must not cost the grid — and retried cells must match a
    fully-serial reference bit for bit."""

    SCALE = 0.15
    VICTIM = "bfs/warped_gates/s0"

    def _grid(self):
        jobs = [JobRequest(benchmark=name, technique=technique,
                           scale=self.SCALE)
                for name in ("hotspot", "bfs", "nw")
                for technique in Technique]
        assert len(jobs) >= 20
        return jobs

    def test_crashed_worker_grid_matches_serial_reference(self, tmp_path):
        jobs = self._grid()
        with ParallelEngine(jobs=1, cache_dir=None) as inline:
            reference = inline.run_sim_jobs(jobs)
        plan = FaultPlan(crash_once=(self.VICTIM,),
                         marker_dir=str(tmp_path))
        with ParallelEngine(jobs=2, cache_dir=None) as engine:
            outcomes = engine.run_sim_jobs(
                jobs, policy=FaultPolicy(max_retries=1, **FAST),
                worker=FaultyWorker(_execute_no_cache, plan,
                                    key=sim_job_key))
        assert len(outcomes) == len(jobs)
        retried = [o for o in outcomes if o.attempts > 1]
        assert [sim_job_key(j) for j, o in zip(jobs, outcomes)
                if o.attempts > 1] == [self.VICTIM]
        assert retried[0].manifest.attempts == 2
        for job, ref, got in zip(jobs, reference, outcomes):
            label = sim_job_key(job)
            assert got.ok, label
            assert got.result.cycles == ref.result.cycles, label
            assert got.result.metrics == ref.result.metrics, label

    def test_permanent_failure_leaves_survivors_intact(self):
        jobs = [JobRequest(benchmark="hotspot",
                           technique=technique, scale=self.SCALE)
                for technique in (Technique.BASELINE, Technique.CONV_PG,
                                  Technique.WARPED_GATES)]
        victim = sim_job_key(jobs[1])
        with ParallelEngine(jobs=1, cache_dir=None) as inline:
            reference = inline.run_sim_jobs(jobs)
        plan = FaultPlan(crash=(victim,))
        with ParallelEngine(jobs=2, cache_dir=None) as engine:
            outcomes = engine.run_sim_jobs(
                jobs, worker=FaultyWorker(_execute_no_cache, plan,
                                          key=sim_job_key))
        assert outcomes[1].status is JobStatus.FAILED
        assert outcomes[1].result is None
        assert "InjectedCrash" in outcomes[1].error
        manifest = outcomes[1].manifest
        assert manifest.status == "failed" and not manifest.ok
        assert manifest.benchmark == "hotspot"
        assert manifest.technique == Technique.CONV_PG.value
        for i in (0, 2):
            assert outcomes[i].ok
            assert outcomes[i].result.metrics == \
                reference[i].result.metrics


def _execute_no_cache(job):
    """Top-level (picklable) cacheless sim-job worker."""
    from repro.engine.jobs import execute_job
    return execute_job(job, cache_dir=None)


class TestHarnessIntegration:
    def _settings(self):
        from repro.harness.experiment import ExperimentSettings
        return ExperimentSettings(scale=0.15,
                                  benchmarks=("hotspot", "bfs"))

    def test_runner_memoises_failures_and_raises(self):
        from repro.harness.experiment import ExperimentRunner
        plan = FaultPlan(crash=("bfs/warped_gates/s0",))
        with FaultyEngine(plan, jobs=1, cache_dir=None) as engine:
            runner = ExperimentRunner(self._settings(), engine=engine)
            runner.prefetch([("hotspot", Technique.WARPED_GATES),
                             ("bfs", Technique.WARPED_GATES)])
            # Surviving cell is served; the failed one raises on read.
            assert runner.run("hotspot",
                              Technique.WARPED_GATES).cycles > 0
            with pytest.raises(JobFailedError, match="bfs/warped_gates"):
                runner.run("bfs", Technique.WARPED_GATES)
            # Memoised: the second read raises without re-simulating.
            manifests_before = len(runner.manifests)
            with pytest.raises(JobFailedError):
                runner.run("bfs", Technique.WARPED_GATES)
            assert len(runner.manifests) == manifests_before
            assert [m.benchmark for m in runner.failures] == ["bfs"]
            assert runner.failures[0].status == "failed"

    def test_sweep_point_averages_surviving_benchmarks(self):
        from repro.harness.sweeps import bet_sweep
        from repro.harness.experiment import ExperimentRunner
        plan = FaultPlan(crash=("bfs/conv_pg/s0",))
        with FaultyEngine(plan, jobs=1, cache_dir=None) as engine:
            runner = ExperimentRunner(self._settings(), engine=engine)
            points = bet_sweep(runner, values=(14,),
                               techniques=(Technique.CONV_PG,))
        assert len(points) == 1
        assert points[0].performance > 0  # hotspot survived
        assert points[0].benchmarks == 1  # ... and is flagged as alone
        assert len(runner.failures) == 1

    def test_sweep_point_all_failed_is_nan_not_zero(self):
        import math
        from repro.harness.sweeps import bet_sweep, sweep_rows
        from repro.harness.experiment import ExperimentRunner
        plan = FaultPlan(crash=("hotspot/conv_pg/s0", "bfs/conv_pg/s0"))
        with FaultyEngine(plan, jobs=1, cache_dir=None) as engine:
            runner = ExperimentRunner(self._settings(), engine=engine)
            points = bet_sweep(runner, values=(14,),
                               techniques=(Technique.CONV_PG,))
        assert len(points) == 1
        point = points[0]
        assert point.failed and point.benchmarks == 0
        # NaN, not a measured-looking 0.0 ...
        assert math.isnan(point.int_savings)
        assert math.isnan(point.performance)
        # ... and rows render the metrics as None (CSV empty, JSON
        # null), never as numbers.
        row = sweep_rows(points)[0]
        assert row[2:5] == [None, None, None]
        assert row[5] == 0

    def test_replicate_drops_failed_benchmark_and_logs_it(self):
        from repro.harness.replication import replicate
        plan = FaultPlan(crash=("bfs/warped_gates/s0",))
        failure_log = []
        with FaultyEngine(plan, jobs=1, cache_dir=None) as engine:
            results = replicate(self._settings(), seeds=(0,),
                                techniques=(Technique.WARPED_GATES,),
                                engine=engine, failure_log=failure_log)
        assert len(results) == 1
        assert results[0].performance.n == 1  # hotspot carried the seed
        assert results[0].performance.mean > 0
        assert results[0].benchmarks == (1,)  # coverage is visible
        assert [m.benchmark for m in failure_log] == ["bfs"]
