"""ParallelEngine mechanics: inline path, pool path, ordering, lifecycle."""

import pytest

from repro.core.techniques import Technique
from repro.engine import JobRequest, ParallelEngine


def _double(x: int) -> int:  # top-level so the pool can pickle it
    return 2 * x


class TestMap:
    def test_single_job_engine_runs_inline(self):
        engine = ParallelEngine(jobs=1, cache_dir=None)
        assert engine.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert engine._executor is None  # no pool was spun up

    def test_single_item_batch_stays_inline(self):
        with ParallelEngine(jobs=4, cache_dir=None) as engine:
            assert engine.map(_double, [21]) == [42]
            assert engine._executor is None

    def test_pool_preserves_submission_order(self):
        with ParallelEngine(jobs=2, cache_dir=None) as engine:
            assert engine.map(_double, range(16)) == \
                [2 * i for i in range(16)]
            assert engine._executor is not None

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ParallelEngine(jobs=0)

    def test_close_is_idempotent(self):
        engine = ParallelEngine(jobs=2, cache_dir=None)
        engine.map(_double, [1, 2])
        engine.close()
        assert engine._executor is None
        engine.close()


class TestSimJobs:
    def test_pool_attributes_worker_processes(self):
        jobs = [JobRequest(benchmark="hotspot",
                           technique=technique, scale=0.2)
                for technique in (Technique.BASELINE, Technique.CONV_PG)]
        with ParallelEngine(jobs=2, cache_dir=None) as engine:
            outcomes = engine.run_sim_jobs(jobs)
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome.manifest.worker != "MainProcess"
            assert not outcome.manifest.cache_hit

    def test_inline_job_named_main_process(self):
        engine = ParallelEngine(jobs=1, cache_dir=None)
        outcome = engine.run_sim_job(
            JobRequest(benchmark="hotspot",
                       technique=Technique.BASELINE, scale=0.2))
        assert outcome.manifest.worker == "MainProcess"

    def test_open_cache_follows_cache_dir(self, tmp_path):
        assert ParallelEngine(cache_dir=None).open_cache() is None
        cache = ParallelEngine(cache_dir=str(tmp_path)).open_cache()
        assert cache is not None and str(cache.root) == str(tmp_path)
