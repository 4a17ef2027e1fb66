"""Tests for the CCWS scheduler and lost-locality monitor."""

import pytest

from repro.core.techniques import Technique, TechniqueConfig, run_benchmark
from repro.isa.optypes import OpClass
from repro.sim.locality import LostLocalityMonitor
from repro.sim.memory import L1Cache
from repro.sim.sched.ccws import CCWSScheduler, MonitorDecayHook
from tests.sim.views import make_view, ready_ints


class TestMonitor:
    def test_validation(self):
        with pytest.raises(ValueError):
            LostLocalityMonitor(vta_entries=0)
        with pytest.raises(ValueError):
            LostLocalityMonitor(score_per_event=0)
        with pytest.raises(ValueError):
            LostLocalityMonitor(decay_per_cycle=-1)

    def test_miss_without_prior_eviction_is_cold(self):
        monitor = LostLocalityMonitor()
        assert not monitor.record_miss(warp=0, line=5)
        assert monitor.total_score() == 0.0

    def test_lost_locality_detected(self):
        monitor = LostLocalityMonitor(score_per_event=32.0)
        monitor.record_eviction(owner_warp=0, line=5)
        assert monitor.record_miss(warp=0, line=5)
        assert monitor.score_of(0) == pytest.approx(32.0)
        assert monitor.lost_locality_events == 1

    def test_other_warps_miss_is_not_lost_locality(self):
        monitor = LostLocalityMonitor()
        monitor.record_eviction(owner_warp=0, line=5)
        assert not monitor.record_miss(warp=1, line=5)

    def test_vta_entry_consumed_on_hit(self):
        monitor = LostLocalityMonitor()
        monitor.record_eviction(0, 5)
        assert monitor.record_miss(0, 5)
        assert not monitor.record_miss(0, 5)  # tag consumed

    def test_vta_capacity_fifo(self):
        monitor = LostLocalityMonitor(vta_entries=2)
        for line in (1, 2, 3):
            monitor.record_eviction(0, line)
        assert not monitor.record_miss(0, 1)  # displaced
        assert monitor.record_miss(0, 2)
        assert monitor.record_miss(0, 3)

    def test_decay_drains_scores(self):
        monitor = LostLocalityMonitor(score_per_event=1.0,
                                      decay_per_cycle=0.5)
        monitor.record_eviction(0, 5)
        monitor.record_miss(0, 5)
        monitor.on_cycle(0)
        assert monitor.total_score() == pytest.approx(0.5)
        monitor.on_cycle(1)
        assert monitor.total_score() == 0.0

    def test_clear_warp(self):
        monitor = LostLocalityMonitor()
        monitor.record_eviction(0, 5)
        monitor.record_miss(0, 5)
        monitor.clear_warp(0)
        assert monitor.total_score() == 0.0


class TestCacheEvictionReporting:
    def test_last_evicted_set_on_overflow(self):
        cache = L1Cache(sets=1, ways=2)
        cache.lookup(1, allocate=True)
        cache.lookup(2, allocate=True)
        assert cache.last_evicted is None
        cache.lookup(3, allocate=True)
        assert cache.last_evicted == 1

    def test_last_evicted_cleared_on_hit(self):
        cache = L1Cache(sets=1, ways=1)
        cache.lookup(1, allocate=True)
        cache.lookup(2, allocate=True)
        assert cache.last_evicted == 1
        cache.lookup(2, allocate=False)
        assert cache.last_evicted is None


class TestScheduler:
    def test_no_throttle_without_score(self):
        sched = CCWSScheduler(n_slots=8)
        ordered = sched.order(0, ready_ints(range(4)))
        assert len(ordered) == 4
        assert sched.throttled_cycles == 0

    def test_throttles_youngest_warps_under_pressure(self):
        monitor = LostLocalityMonitor(score_per_event=100.0,
                                      decay_per_cycle=0.0)
        sched = CCWSScheduler(n_slots=8, monitor=monitor,
                              score_per_excluded_warp=64.0,
                              min_active_warps=2)
        monitor.record_eviction(0, 1)
        monitor.record_miss(0, 1)  # score 100 -> exclude 1 warp
        ordered = sched.order(0, ready_ints(range(3)))
        assert set(ordered) == {0, 1}  # youngest (age 2) loses privileges
        assert sched.throttled_cycles == 1

    def test_privilege_follows_age_not_slot(self):
        monitor = LostLocalityMonitor(score_per_event=100.0,
                                      decay_per_cycle=0.0)
        sched = CCWSScheduler(n_slots=8, monitor=monitor,
                              score_per_excluded_warp=64.0,
                              min_active_warps=1)
        monitor.record_eviction(0, 1)
        monitor.record_miss(0, 1)  # score 100 -> exclude 1 warp
        # Slot 0 was relaunched last, so it is the youngest.
        view = make_view([(0, OpClass.INT, True, 9),
                          (1, OpClass.INT, True, 1),
                          (2, OpClass.INT, True, 2)])
        assert set(sched.order(0, view)) == {1, 2}

    def test_stalled_active_warps_count_toward_the_window(self):
        monitor = LostLocalityMonitor(score_per_event=100.0,
                                      decay_per_cycle=0.0)
        sched = CCWSScheduler(n_slots=8, monitor=monitor,
                              score_per_excluded_warp=64.0,
                              min_active_warps=1)
        monitor.record_eviction(0, 1)
        monitor.record_miss(0, 1)  # score 100 -> exclude 1 of 3 warps
        view = make_view([(0, OpClass.INT, False), (1, OpClass.INT, True),
                          (2, OpClass.INT, True)])
        assert list(sched.order(0, view)) == [1]

    def test_min_active_warps_floor(self):
        monitor = LostLocalityMonitor(score_per_event=1e6,
                                      decay_per_cycle=0.0)
        sched = CCWSScheduler(n_slots=8, monitor=monitor,
                              min_active_warps=2)
        monitor.record_eviction(0, 1)
        monitor.record_miss(0, 1)
        ordered = sched.order(0, ready_ints(range(6)))
        assert set(ordered) == {0, 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            CCWSScheduler(n_slots=0)
        with pytest.raises(ValueError):
            CCWSScheduler(n_slots=8, score_per_excluded_warp=0)
        with pytest.raises(ValueError):
            CCWSScheduler(n_slots=8, min_active_warps=0)

    def test_decay_hook(self):
        monitor = LostLocalityMonitor(score_per_event=1.0,
                                      decay_per_cycle=1.0)
        hook = MonitorDecayHook(monitor)
        monitor.record_eviction(0, 1)
        monitor.record_miss(0, 1)
        hook.on_cycle(0)
        assert monitor.total_score() == 0.0


class TestEndToEnd:
    def test_runs_thrashing_benchmark(self):
        # MUM has a large footprint and low locality: the thrash case.
        result = run_benchmark("MUM",
                               TechniqueConfig(Technique.CCWS_CONV_PG),
                               scale=0.25)
        assert result.technique == "ccws_conv_pg"
        assert result.stats.instructions_retired > 0
        # Conventional gating is attached alongside.
        assert set(result.domain_stats) == {"INT0", "INT1", "FP0", "FP1"}

    def test_monitor_sees_traffic_on_thrashing_workload(self):
        from repro.core.techniques import build_sm
        from repro.workloads.registry import build_kernel
        from repro.workloads.specs import get_profile
        kernel = build_kernel("MUM", scale=0.25)
        sm = build_sm(kernel, TechniqueConfig(Technique.CCWS_CONV_PG),
                      dram_latency=get_profile("MUM").dram_latency)
        sm.run()
        monitor = sm.scheduler.monitor
        assert monitor.evictions_recorded > 0
