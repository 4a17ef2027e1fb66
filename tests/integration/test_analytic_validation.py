"""Analytic cross-validation: hand-computable workloads vs the simulator.

Each test constructs a workload whose cycle-level behaviour can be
worked out on paper, then checks the simulator's counters against the
closed-form numbers.  These pin the exact semantics of idle-detect,
break-even accounting and wakeup timing — a regression here means the
timing conventions in docs/architecture.md changed.
"""

from dataclasses import replace

import pytest

from repro.core.techniques import Technique, build_sm
from repro.isa.instructions import fp_op, int_op
from repro.isa.optypes import ExecUnitKind
from repro.isa.trace import KernelTrace, WarpTrace
from repro.power.params import GatingParams
from repro.sim.config import MemoryConfig, SMConfig

CONFIG = SMConfig(max_resident_warps=2, fetch_width=8,
                  memory=MemoryConfig(dram_jitter=0.0))
GATING = GatingParams(idle_detect=3, bet=6, wakeup_delay=2)


def run(kernel, technique):
    sm = build_sm(kernel, replace(technique.spec, gating=GATING),
                  sm_config=CONFIG)
    return sm.run()


def chain(op, n, latency=4):
    """n chained single-dest ops: issues exactly every `latency` cycles."""
    insts = [op(dest=0)]
    insts += [op(dest=(i % 8) + 1, srcs=((i - 1) % 8 + 1 if i else 0,))
              for i in range(1, n)]
    # Make it a strict chain: each reads the previous dest.
    insts = [op(dest=i % 8, srcs=(((i - 1) % 8),) if i else ())
             for i in range(n)]
    return insts


class TestPureComputeTiming:
    def test_dependent_chain_cycle_count(self):
        # 5 chained INT adds, latency 4: issue at 0,4,8,12,16; the last
        # drains at 20; the run ends during cycle 20 -> 21 cycles.
        kernel = KernelTrace(
            name="chain", warps=(WarpTrace(0, tuple(chain(int_op, 5))),),
            max_resident_warps=2)
        result = run(kernel, Technique.BASELINE)
        assert result.cycles == 21

    def test_int_unit_busy_cycles_exact(self):
        # The chain keeps INT0 busy for exactly 5 x 4 = 20 cycles.
        kernel = KernelTrace(
            name="chain", warps=(WarpTrace(0, tuple(chain(int_op, 5))),),
            max_resident_warps=2)
        result = run(kernel, Technique.BASELINE)
        assert result.stats.idle_trackers["INT0"].busy_cycles == 20


class TestConventionalGatingArithmetic:
    def test_single_idle_window_accounting(self):
        # Warp 0: one INT op (busy cycles 0-3), then warp 0's FP ops
        # keep the run alive while INT0 idles.  idle_detect=3: INT0 is
        # idle from cycle 4; counter hits 3 during cycle 6's update, so
        # the gate closes at cycle 7 and stays closed to the end.
        insts = tuple(chain(int_op, 1)) + tuple(
            fp_op(dest=(i % 8), srcs=((i - 1) % 8,) if i else ())
            for i in range(8))
        kernel = KernelTrace(name="k", warps=(WarpTrace(0, insts),),
                             max_resident_warps=2)
        result = run(kernel, Technique.CONV_PG)
        stats = result.domain_stats["INT0"]
        assert stats.gating_events == 1
        assert stats.wakeups == 0  # nothing ever wants INT0 again
        # Gated from cycle 7 until the final cycle.
        assert stats.gated_cycles == result.cycles - 7

    def test_wakeup_delay_costs_cycles(self):
        # INT op, long FP phase, then an INT op depending on the FP
        # chain.  TWO wakeups land on the critical path: FP0 gated
        # during the initial INT work (its first FP instruction must
        # wake it), and INT0 gated during the FP phase (the final INT
        # instruction must wake it).  Serialised, they cost exactly
        # 2 x wakeup_delay versus the no-gating run.
        insts = [int_op(dest=0)]
        insts += [fp_op(dest=(i % 4) + 1, srcs=((i - 1) % 4 + 1,)
                        if i else (0,)) for i in range(10)]
        insts += [int_op(dest=6, srcs=((9 % 4) + 1,))]
        kernel = KernelTrace(name="k",
                             warps=(WarpTrace(0, tuple(insts)),),
                             max_resident_warps=2)
        base = run(kernel, Technique.BASELINE)
        conv = run(kernel, Technique.CONV_PG)
        assert conv.cycles == base.cycles + 2 * GATING.wakeup_delay
        assert conv.domain_stats["INT0"].wakeups == 1
        assert conv.domain_stats["FP0"].wakeups == 1


class TestBlackoutArithmetic:
    def test_blackout_holds_exactly_bet(self):
        # FP0 gates while the opening INT op runs (it idles from cycle
        # 0; idle_detect=3 closes the gate at cycle 3).  Its first FP
        # instruction becomes ready at cycle 4 — deep inside the
        # blackout — so the wakeup is denied until gated_length == BET,
        # which makes it *critical* by definition.
        insts = [int_op(dest=0)]
        insts += [fp_op(dest=(i % 4) + 1, srcs=((i - 1) % 4 + 1,)
                        if i else (0,)) for i in range(3)]
        insts += [int_op(dest=6, srcs=(3,))]
        kernel = KernelTrace(name="k",
                             warps=(WarpTrace(0, tuple(insts)),),
                             max_resident_warps=2)
        result = run(kernel, Technique.NAIVE_BLACKOUT)
        fp0 = result.domain_stats["FP0"]
        assert fp0.wakeups == 1
        assert fp0.critical_wakeups == 1
        assert fp0.denied_wakeups > 0
        # Every woken blackout window contributes exactly BET
        # uncompensated cycles — on the INT cluster too, whose wakeup
        # (the trailing INT dependant) lands well past break-even.
        int0 = result.domain_stats["INT0"]
        assert int0.wakeups == 1
        assert int0.critical_wakeups == 0
        assert int0.uncompensated_cycles == GATING.bet

    def test_blackout_slower_than_conventional_here(self):
        insts = [int_op(dest=0)]
        insts += [fp_op(dest=(i % 4) + 1, srcs=((i - 1) % 4 + 1,)
                        if i else (0,)) for i in range(3)]
        insts += [int_op(dest=6, srcs=(3,))]
        kernel = KernelTrace(name="k",
                             warps=(WarpTrace(0, tuple(insts)),),
                             max_resident_warps=2)
        conv = run(kernel, Technique.CONV_PG)
        blackout = run(kernel, Technique.NAIVE_BLACKOUT)
        # Blackout forces the dependant to wait out the BET window.
        assert blackout.cycles > conv.cycles


class TestSavingsFormula:
    def test_fig9_metric_matches_counters(self):
        # For any run: savings == (gated - events*BET) / domain-cycles.
        from repro.power.energy import domain_energy
        from repro.power.params import EnergyParams
        insts = tuple(chain(int_op, 1)) + tuple(
            fp_op(dest=(i % 8), srcs=((i - 1) % 8,) if i else ())
            for i in range(8))
        kernel = KernelTrace(name="k", warps=(WarpTrace(0, insts),),
                             max_resident_warps=2)
        result = run(kernel, Technique.CONV_PG)
        activity = result.unit_activity(ExecUnitKind.INT)
        params = EnergyParams.for_unit(dyn_per_issue=2.0, bet=GATING.bet)
        expected = (activity.gated_cycles
                    - activity.gating_events * GATING.bet) / activity.cycles
        assert domain_energy(activity, params).static_savings == \
            pytest.approx(expected)
