"""Tests for the technique registry and SM wiring."""

from dataclasses import replace

import pytest

from repro.core.adaptive import AdaptiveIdleDetect
from repro.core.blackout import (
    CoordinatedBlackoutPolicy,
    NaiveBlackoutPolicy,
)
from repro.core.gates import GatesScheduler
from repro.core.techniques import (
    PAPER_TECHNIQUES,
    Technique,
    build_sm,
    run_benchmark,
)
from repro.power.gating import ConventionalPolicy
from repro.sim.sched.two_level import TwoLevelScheduler

from tests.conftest import SMALL_SM, TEST_SCALE


class TestWiring:
    def test_baseline_has_no_domains(self, tiny_kernel):
        sm = build_sm(tiny_kernel, Technique.BASELINE, sm_config=SMALL_SM)
        assert sm.domains == {}
        assert isinstance(sm.scheduler, TwoLevelScheduler)

    def test_conv_pg_wiring(self, tiny_kernel):
        sm = build_sm(tiny_kernel, Technique.CONV_PG, sm_config=SMALL_SM)
        assert set(sm.domains) == {"INT0", "INT1", "FP0", "FP1"}
        assert all(isinstance(d.policy, ConventionalPolicy)
                   for d in sm.domains.values())
        assert isinstance(sm.scheduler, TwoLevelScheduler)

    def test_gates_uses_gates_scheduler(self, tiny_kernel):
        sm = build_sm(tiny_kernel, Technique.GATES, sm_config=SMALL_SM)
        assert isinstance(sm.scheduler, GatesScheduler)
        assert not sm.scheduler.blackout_aware
        assert all(isinstance(d.policy, ConventionalPolicy)
                   for d in sm.domains.values())

    def test_naive_blackout_policy(self, tiny_kernel):
        sm = build_sm(tiny_kernel,
                      Technique.NAIVE_BLACKOUT,
                      sm_config=SMALL_SM)
        assert all(isinstance(d.policy, NaiveBlackoutPolicy)
                   for d in sm.domains.values())

    def test_coordinated_pairs_share_policy_per_type(self, tiny_kernel):
        sm = build_sm(tiny_kernel,
                      Technique.COORD_BLACKOUT,
                      sm_config=SMALL_SM)
        assert sm.domains["INT0"].policy is sm.domains["INT1"].policy
        assert sm.domains["FP0"].policy is sm.domains["FP1"].policy
        assert sm.domains["INT0"].policy is not sm.domains["FP0"].policy
        assert isinstance(sm.domains["INT0"].policy,
                          CoordinatedBlackoutPolicy)
        assert sm.scheduler.blackout_aware

    def test_warped_gates_adds_adaptive_hooks(self, tiny_kernel):
        sm = build_sm(tiny_kernel,
                      Technique.WARPED_GATES,
                      sm_config=SMALL_SM)
        adaptive = [h for h in sm.hooks
                    if isinstance(h, AdaptiveIdleDetect)]
        assert len(adaptive) == 2  # one per unit type

    def test_blackout_no_gates_keeps_baseline_scheduler(self, tiny_kernel):
        sm = build_sm(tiny_kernel,
                      Technique.BLACKOUT_NO_GATES,
                      sm_config=SMALL_SM)
        assert isinstance(sm.scheduler, TwoLevelScheduler)
        assert all(isinstance(d.policy, NaiveBlackoutPolicy)
                   for d in sm.domains.values())

    def test_gates_no_pg_has_no_domains(self, tiny_kernel):
        sm = build_sm(tiny_kernel, Technique.GATES_NO_PG, sm_config=SMALL_SM)
        assert isinstance(sm.scheduler, GatesScheduler)
        assert sm.domains == {}

    def test_sfu_gating_optional(self, tiny_kernel):
        sm = build_sm(tiny_kernel,
                      replace(Technique.CONV_PG.spec, gate_sfu=True),
                      sm_config=SMALL_SM)
        assert "SFU" in sm.domains

    def test_paper_techniques_tuple(self):
        assert PAPER_TECHNIQUES == (
            Technique.CONV_PG, Technique.GATES, Technique.NAIVE_BLACKOUT,
            Technique.COORD_BLACKOUT, Technique.WARPED_GATES)


class TestRunBenchmark:
    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            run_benchmark("nonexistent",
                          Technique.BASELINE)

    def test_runs_and_labels(self):
        result = run_benchmark("hotspot",
                               Technique.WARPED_GATES,
                               scale=TEST_SCALE)
        assert result.technique == "warped_gates"
        assert result.kernel_name == "hotspot"
        assert result.cycles > 0

    def test_trace_identical_across_techniques(self):
        a = run_benchmark("hotspot", Technique.BASELINE, scale=TEST_SCALE)
        b = run_benchmark("hotspot",
                          Technique.WARPED_GATES,
                          scale=TEST_SCALE)
        assert a.stats.instructions_retired == b.stats.instructions_retired
