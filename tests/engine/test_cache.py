"""Persistent run-cache behaviour: round trips, corruption, atomicity."""

import hashlib
import logging
import os
import pickle

import pytest

from repro.core.techniques import Technique
from repro.engine.cache import MAGIC, RunCache
from repro.obs.telemetry import (
    CacheEvicted,
    CacheHit,
    CacheMiss,
    CacheSwept,
)
from repro.engine.jobs import (
    JobRequest,
    execute_job,
    load_or_build_kernel,
    trace_cache_key,
)
from repro.workloads.registry import build_kernel

from tests.engine.faults import corrupt_cache_entry, plant_stale_tmp


class TestRunCache:
    def test_round_trip(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("results", "key", {"cycles": 42})
        assert cache.get("results", "key") == {"cycles": 42}
        assert cache.hits == 1 and cache.misses == 0

    def test_missing_entry_is_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.get("results", "absent") is None
        assert cache.misses == 1

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("results", "key", [1, 2, 3])
        cache.path("results", "key").write_bytes(b"not a pickle")
        assert cache.get("results", "key") is None
        assert cache.misses == 1

    def test_truncated_entry_is_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("results", "key", list(range(1000)))
        path = cache.path("results", "key")
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get("results", "key") is None

    def test_writes_leave_no_temp_files(self, tmp_path):
        cache = RunCache(tmp_path)
        for i in range(5):
            cache.put("results", f"k{i}", i)
        names = sorted(p.name for p in (tmp_path / "results").iterdir())
        assert names == [f"k{i}.pkl" for i in range(5)]

    def test_groups_are_disjoint(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("traces", "key", "a trace")
        assert cache.get("results", "key") is None


class TestChecksums:
    def test_flipped_payload_byte_is_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("results", "key", list(range(100)))
        corrupt_cache_entry(cache, "results", "key", mode="flip")
        assert cache.get("results", "key") is None
        assert cache.misses == 1

    def test_legacy_raw_pickle_is_miss(self, tmp_path):
        # Pre-checksum entries were bare pickles; they must read as
        # misses (and never be unpickled) rather than crash or poison.
        cache = RunCache(tmp_path)
        path = cache.path("results", "legacy")
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"cycles": 42}))
        assert cache.get("results", "legacy") is None

    def test_checksummed_payload_raising_type_error_is_miss(self, tmp_path):
        # A class whose constructor signature changed fails to unpickle
        # with TypeError; the entry reads as a corrupt miss, not a crash.
        cache = RunCache(tmp_path)
        payload = b"cbuiltins\nint\n(K\x01K\x02K\x03tR."  # int(1, 2, 3)
        with pytest.raises(TypeError):
            pickle.loads(payload)
        path = cache.path("results", "changed")
        path.parent.mkdir(parents=True)
        path.write_bytes(MAGIC + hashlib.sha256(payload).digest() + payload)
        assert cache.get("results", "changed") is None
        assert cache.corrupt_misses == 1
        assert cache.misses == 1

    def test_hit_survives_verification(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put("results", "key", {"cycles": 42})
        assert cache.get("results", "key") == {"cycles": 42}


class TestJanitor:
    def test_stale_tmp_swept_on_open(self, tmp_path):
        RunCache(tmp_path).put("results", "live", 1)
        orphan = plant_stale_tmp(tmp_path, age_seconds=7200.0)
        cache = RunCache(tmp_path)  # opening sweeps
        assert not orphan.exists()
        assert cache.swept_tmp == 1
        assert cache.get("results", "live") == 1  # entries untouched

    def test_fresh_tmp_left_alone(self, tmp_path):
        RunCache(tmp_path).put("results", "live", 1)
        fresh = plant_stale_tmp(tmp_path, age_seconds=0.0)
        cache = RunCache(tmp_path)
        assert fresh.exists()  # may belong to a live writer
        assert cache.swept_tmp == 0

    def test_janitor_can_be_disabled(self, tmp_path):
        RunCache(tmp_path).put("results", "live", 1)
        orphan = plant_stale_tmp(tmp_path, age_seconds=7200.0)
        RunCache(tmp_path, janitor=False)
        assert orphan.exists()

    def test_execute_job_leaves_sweeping_to_the_engine(self, tmp_path):
        # Workers open their per-job caches without the janitor: a
        # per-job directory scan would grow with cache size.
        orphan = plant_stale_tmp(tmp_path, age_seconds=7200.0)
        job = JobRequest(benchmark="hotspot",
                         technique=Technique.BASELINE,
                         scale=0.2)
        execute_job(job, cache_dir=str(tmp_path))
        assert orphan.exists()

    def test_engine_sweeps_once_per_batch(self, tmp_path):
        from repro.engine import ParallelEngine
        orphan = plant_stale_tmp(tmp_path, age_seconds=7200.0)
        job = JobRequest(benchmark="hotspot",
                         technique=Technique.BASELINE,
                         scale=0.2)
        with ParallelEngine(jobs=1, cache_dir=str(tmp_path)) as engine:
            engine.run_sim_jobs([job])
        assert not orphan.exists()


class TestSizeCap:
    def _put(self, cache, key, stamp):
        cache.put("results", key, bytes(1000))
        os.utime(cache.path("results", key), (stamp, stamp))

    def test_lru_eviction_past_cap(self, tmp_path):
        cache = RunCache(tmp_path, max_bytes=3500)
        for i, key in enumerate(("a", "b", "c")):
            self._put(cache, key, 1000.0 + i)
        # A hit refreshes "a": it is no longer the eviction candidate.
        assert cache.get("results", "a") is not None
        os.utime(cache.path("results", "a"), (2000.0, 2000.0))
        self._put(cache, "d", 3000.0)  # pushes total past the cap
        assert cache.evictions == 1
        assert cache.get("results", "b") is None  # oldest went
        for key in ("a", "c", "d"):
            assert cache.get("results", key) is not None, key

    def test_no_cap_never_evicts(self, tmp_path):
        cache = RunCache(tmp_path)
        for i in range(5):
            cache.put("results", f"k{i}", bytes(1000))
        assert cache.evictions == 0
        assert cache.total_bytes() > 5000

    def test_puts_under_cap_do_not_rescan(self, tmp_path, monkeypatch):
        cache = RunCache(tmp_path, max_bytes=1_000_000)
        cache.put("results", "seed", bytes(1000))  # one initial scan
        scans = []
        monkeypatch.setattr(
            cache, "total_bytes",
            lambda: scans.append(1) or 0)
        for i in range(10):
            cache.put("results", f"k{i}", bytes(1000))
        assert scans == []  # size tracked incrementally, O(1) per put
        assert cache.evictions == 0


class TestCacheTelemetry:
    """The listener seam: every cache disposition becomes an event."""

    def test_hit_and_plain_miss_events(self, tmp_path):
        seen = []
        cache = RunCache(tmp_path, listener=seen.append)
        cache.put("results", "key", 1)
        cache.get("results", "key")
        cache.get("results", "absent")
        assert [type(e).__name__ for e in seen] \
            == ["CacheHit", "CacheMiss"]
        hit, miss = seen
        assert isinstance(hit, CacheHit)
        assert (hit.group, hit.key) == ("results", "key")
        assert hit.worker  # stamped with the process name
        assert isinstance(miss, CacheMiss)
        assert miss.key == "absent"
        assert not miss.corrupt

    def test_corrupt_entry_event_and_counter(self, tmp_path):
        seen = []
        cache = RunCache(tmp_path, listener=seen.append)
        cache.put("results", "key", list(range(100)))
        corrupt_cache_entry(cache, "results", "key", mode="flip")
        assert cache.get("results", "key") is None
        assert cache.corrupt_misses == 1
        assert isinstance(seen[-1], CacheMiss)
        assert seen[-1].corrupt

    def test_eviction_event_counts_entries_and_bytes(self, tmp_path):
        seen = []
        cache = RunCache(tmp_path, max_bytes=2500,
                         listener=seen.append)
        for i, key in enumerate(("a", "b", "c")):
            cache.put("results", key, bytes(1000))
            stamp = 1000.0 + i
            os.utime(cache.path("results", key), (stamp, stamp))
        evicted = [e for e in seen if isinstance(e, CacheEvicted)]
        assert evicted
        assert sum(e.entries for e in evicted) == cache.evictions >= 1
        assert all(e.bytes > 0 for e in evicted)

    def test_sweep_event_reports_removed_orphans(self, tmp_path):
        RunCache(tmp_path).put("results", "live", 1)
        plant_stale_tmp(tmp_path, age_seconds=7200.0)
        seen = []
        RunCache(tmp_path, listener=seen.append)  # opening sweeps
        swept = [e for e in seen if isinstance(e, CacheSwept)]
        assert len(swept) == 1
        assert swept[0].removed == 1

    def test_janitor_sweep_logs_a_summary(self, tmp_path, caplog):
        RunCache(tmp_path).put("results", "live", 1)
        plant_stale_tmp(tmp_path, age_seconds=7200.0)
        with caplog.at_level(logging.INFO, logger="repro.engine.cache"):
            RunCache(tmp_path)
        messages = [r.getMessage() for r in caplog.records]
        assert any("swept 1 stale tmp file(s)" in m for m in messages)

    def test_eviction_logs_a_summary(self, tmp_path, caplog):
        cache = RunCache(tmp_path, max_bytes=1500)
        with caplog.at_level(logging.INFO, logger="repro.engine.cache"):
            cache.put("results", "a", bytes(1000))
            cache.put("results", "b", bytes(1000))
        messages = [r.getMessage() for r in caplog.records]
        assert any("cache LRU cap: evicted" in m for m in messages)

    def test_raising_listener_never_breaks_the_cache(self, tmp_path):
        def explode(event):
            raise RuntimeError("subscriber bug")

        cache = RunCache(tmp_path, listener=explode)
        cache.put("results", "key", {"cycles": 42})
        assert cache.get("results", "key") == {"cycles": 42}
        assert cache.get("results", "absent") is None
        assert cache.hits == 1 and cache.misses == 1

    def test_no_listener_is_the_default(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.listener is None  # zero-cost: one None check


class TestTraceMemoisation:
    def test_trace_round_trip(self, tmp_path):
        cache = RunCache(tmp_path)
        first = load_or_build_kernel("hotspot", 0, 0.2, cache=cache)
        assert cache.path("traces",
                          trace_cache_key("hotspot", 0, 0.2)).exists()
        second = load_or_build_kernel("hotspot", 0, 0.2, cache=cache)
        assert cache.hits == 1
        assert second.n_warps == first.n_warps
        assert second.total_instructions == first.total_instructions
        assert pickle.dumps(second) == pickle.dumps(first)

    def test_key_distinguishes_seed_and_scale(self):
        base = trace_cache_key("hotspot", 0, 0.2)
        assert trace_cache_key("hotspot", 1, 0.2) != base
        assert trace_cache_key("hotspot", 0, 0.25) != base
        assert trace_cache_key("bfs", 0, 0.2) != base

    def test_no_cache_builds_directly(self):
        kernel = load_or_build_kernel("hotspot", 0, 0.2, cache=None)
        assert kernel.n_warps > 0

    def test_no_cache_shares_build_kernels_memo(self):
        # Every technique of one benchmark replays the same trace
        # object instead of regenerating it per cell.
        assert load_or_build_kernel("hotspot", 0, 0.1) is \
            build_kernel("hotspot", seed=0, scale=0.1)


class TestResultCache:
    JOB = JobRequest(benchmark="hotspot",
                     technique=Technique.CONV_PG, scale=0.2)

    def test_execute_job_round_trip(self, tmp_path):
        cold = execute_job(self.JOB, cache_dir=str(tmp_path))
        assert not cold.manifest.cache_hit
        assert set(cold.manifest.wall_seconds) == {"build_trace",
                                                   "simulate"}
        warm = execute_job(self.JOB, cache_dir=str(tmp_path))
        assert warm.manifest.cache_hit
        assert set(warm.manifest.wall_seconds) == {"cache_load"}
        assert warm.result.cycles == cold.result.cycles
        assert warm.result.metrics == cold.result.metrics
        assert warm.manifest.cycles == cold.manifest.cycles

    def test_corrupt_result_falls_back_to_simulation(self, tmp_path):
        cold = execute_job(self.JOB, cache_dir=str(tmp_path))
        path = RunCache(tmp_path).path("results", self.JOB.key(True))
        path.write_bytes(b"garbage")
        redo = execute_job(self.JOB, cache_dir=str(tmp_path))
        assert not redo.manifest.cache_hit
        assert redo.result.cycles == cold.result.cycles

    def test_key_isolates_fast_forward_and_config(self):
        base = self.JOB.key(True)
        assert self.JOB.key(False) != base
        assert JobRequest(benchmark="hotspot",
                          technique=Technique.WARPED_GATES,
                          scale=0.2).key(True) != base
        assert JobRequest(benchmark="hotspot",
                          technique=Technique.CONV_PG,
                          scale=0.2, seed=7).key(True) != base

    def test_no_cache_dir_runs_fresh(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        outcome = execute_job(self.JOB, cache_dir=None)
        assert not outcome.manifest.cache_hit
        assert list(tmp_path.iterdir()) == []  # nothing written to CWD
