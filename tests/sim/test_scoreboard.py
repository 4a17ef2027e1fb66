"""Tests for the per-warp register scoreboard."""

import pytest

from repro.isa.instructions import fp_op, int_op, load_op
from repro.sim.scoreboard import Scoreboard


class TestReadyBit:
    def test_fresh_scoreboard_everything_ready(self):
        sb = Scoreboard()
        assert sb.is_ready(int_op(dest=0, srcs=(1, 2)), cycle=0)

    def test_raw_hazard_blocks_until_latency(self):
        sb = Scoreboard()
        producer = int_op(dest=3, latency=4)
        sb.record_issue(producer, cycle=10)
        consumer = int_op(dest=4, srcs=(3,))
        assert not sb.is_ready(consumer, cycle=11)
        assert not sb.is_ready(consumer, cycle=13)
        assert sb.is_ready(consumer, cycle=14)

    def test_waw_hazard_blocks(self):
        sb = Scoreboard()
        sb.record_issue(int_op(dest=3, latency=4), cycle=0)
        assert not sb.is_ready(fp_op(dest=3), cycle=1)
        assert sb.is_ready(fp_op(dest=3), cycle=4)

    def test_independent_instruction_unaffected(self):
        sb = Scoreboard()
        sb.record_issue(int_op(dest=3, latency=4), cycle=0)
        assert sb.is_ready(int_op(dest=5, srcs=(6,)), cycle=1)

    def test_store_has_no_destination_to_track(self):
        sb = Scoreboard()
        from repro.isa.instructions import store_op
        sb.record_issue(store_op(line_addr=0, srcs=(1,)), cycle=0)
        assert sb.busy_registers() == ()


class TestMemoryProducers:
    def test_load_starts_unresolved(self):
        sb = Scoreboard()
        sb.record_issue(load_op(dest=2, line_addr=0), cycle=0)
        assert sb.outstanding_memory_registers() == (2,)
        # Unresolved producers block readiness at any cycle.
        assert not sb.is_ready(int_op(dest=9, srcs=(2,)), cycle=10_000)

    def test_blocking_memory_unresolved(self):
        sb = Scoreboard()
        sb.record_issue(load_op(dest=2, line_addr=0), cycle=0)
        dependent = int_op(dest=9, srcs=(2,))
        assert sb.blocking_memory(dependent, cycle=0, pending_threshold=28)

    def test_resolution_sets_completion(self):
        sb = Scoreboard()
        sb.record_issue(load_op(dest=2, line_addr=0), cycle=0)
        sb.resolve_memory(2, ready_cycle=50)
        dependent = int_op(dest=9, srcs=(2,))
        # More than threshold away -> still a long-latency block.
        assert sb.blocking_memory(dependent, cycle=10, pending_threshold=28)
        # Within threshold -> short wait, warp stays active.
        assert not sb.blocking_memory(dependent, cycle=30,
                                      pending_threshold=28)
        assert not sb.is_ready(dependent, cycle=49)
        assert sb.is_ready(dependent, cycle=50)

    def test_resolve_unknown_register_raises(self):
        sb = Scoreboard()
        with pytest.raises(KeyError):
            sb.resolve_memory(5, ready_cycle=10)

    def test_alu_producer_never_blocks_as_memory(self):
        sb = Scoreboard()
        sb.record_issue(int_op(dest=1, latency=400), cycle=0)
        dependent = int_op(dest=2, srcs=(1,))
        assert not sb.blocking_memory(dependent, cycle=0,
                                      pending_threshold=28)


class TestRelease:
    def test_reset_clears_everything(self):
        sb = Scoreboard()
        sb.record_issue(int_op(dest=1), cycle=0)
        sb.record_issue(load_op(dest=2, line_addr=0), cycle=0)
        sb.reset()
        assert sb.busy_registers() == ()
