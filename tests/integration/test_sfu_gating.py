"""SFU gating coverage (paper section 3).

The paper leaves SFUs to conventional power gating: "SFU instructions
are relatively rare and hence, conventional power gating scheme will be
sufficient to recover most of the wasted leakage energy in SFUs" (they
are 2.5% of execution-unit static power).  The `gate_sfu` flag enables
exactly that; these tests check it behaves as the paper expects.
"""
from dataclasses import replace

from repro.core.techniques import Technique, run_benchmark
from repro.isa.optypes import ExecUnitKind

from tests.conftest import TEST_SCALE


def run(technique, gate_sfu, benchmark="hotspot", scale=TEST_SCALE):
    return run_benchmark(benchmark,
                         replace(technique.spec, gate_sfu=gate_sfu),
                         scale=scale)


class TestSFUGating:
    def test_sfu_domain_attached_and_active(self):
        result = run(Technique.CONV_PG, gate_sfu=True)
        assert "SFU" in result.domain_stats
        # SFU instructions are rare -> the unit gates a lot.
        stats = result.domain_stats["SFU"]
        assert stats.gating_events > 0
        assert stats.gated_cycles > 0

    def test_sfu_not_gated_by_default(self):
        result = run(Technique.CONV_PG, gate_sfu=False)
        assert "SFU" not in result.domain_stats

    def test_sfu_recovers_most_leakage_conventionally(self):
        # The paper's claim: conventional gating is *sufficient* for
        # SFUs.  With long SFU idle stretches, most static energy is
        # recoverable without Blackout.
        result = run(Technique.CONV_PG, gate_sfu=True)
        activity = result.unit_activity(ExecUnitKind.SFU)
        bet = 14
        savings = (activity.gated_cycles
                   - activity.gating_events * bet) / activity.cycles
        sfu_busy = result.stats.idle_trackers["SFU"].busy_cycles
        idle_frac = 1.0 - sfu_busy / result.cycles
        # Most of the idle time converts to net savings.
        assert savings > 0.5 * idle_frac

    def test_sfu_gating_keeps_results_for_other_units(self):
        with_sfu = run(Technique.WARPED_GATES, gate_sfu=True)
        without = run(Technique.WARPED_GATES, gate_sfu=False)
        # CUDA-core gating statistics are driven by the same scheduler
        # stream; SFU gating may shift timing slightly but must not
        # change what work executed.
        assert with_sfu.stats.instructions_retired == \
            without.stats.instructions_retired
        assert with_sfu.stats.issued_by_class == \
            without.stats.issued_by_class

    def test_sfu_gating_small_performance_effect(self):
        base = run_benchmark("hotspot",
                             Technique.BASELINE,
                             scale=TEST_SCALE)
        gated = run(Technique.CONV_PG, gate_sfu=True)
        assert base.cycles / gated.cycles > 0.9

    def test_blackout_never_applied_to_sfu(self):
        # Even under full Warped Gates, the SFU uses the conventional
        # policy (wakeups always granted).
        result = run(Technique.WARPED_GATES, gate_sfu=True)
        assert result.domain_stats["SFU"].denied_wakeups == 0
