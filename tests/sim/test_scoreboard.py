"""Tests for the per-warp register scoreboard.

Every check goes through :meth:`Scoreboard.head_status`, the summary
the SM classifies warps with: a head is *ready* at ``c`` iff
``not unresolved and c >= ready_at`` and *pending* (long-latency
memory wait) iff ``unresolved or c < mem_until``.
"""

import pytest

from repro.isa.instructions import fp_op, int_op, load_op, store_op
from repro.sim.scoreboard import Scoreboard

THRESHOLD = 28


def is_ready(sb, inst, cycle):
    ready_at, _, unresolved = sb.head_status(inst, THRESHOLD)
    return not unresolved and cycle >= ready_at


def is_pending(sb, inst, cycle, threshold=THRESHOLD):
    _, mem_until, unresolved = sb.head_status(inst, threshold)
    return unresolved or cycle < mem_until


class TestReadyBit:
    def test_fresh_scoreboard_everything_ready(self):
        sb = Scoreboard()
        assert is_ready(sb, int_op(dest=0, srcs=(1, 2)), cycle=0)

    def test_raw_hazard_blocks_until_latency(self):
        sb = Scoreboard()
        producer = int_op(dest=3, latency=4)
        sb.record_issue(producer, cycle=10)
        consumer = int_op(dest=4, srcs=(3,))
        assert not is_ready(sb, consumer, cycle=11)
        assert not is_ready(sb, consumer, cycle=13)
        assert is_ready(sb, consumer, cycle=14)

    def test_waw_hazard_blocks(self):
        sb = Scoreboard()
        sb.record_issue(int_op(dest=3, latency=4), cycle=0)
        assert not is_ready(sb, fp_op(dest=3), cycle=1)
        assert is_ready(sb, fp_op(dest=3), cycle=4)

    def test_independent_instruction_unaffected(self):
        sb = Scoreboard()
        sb.record_issue(int_op(dest=3, latency=4), cycle=0)
        assert is_ready(sb, int_op(dest=5, srcs=(6,)), cycle=1)

    def test_store_has_no_destination_to_track(self):
        sb = Scoreboard()
        sb.record_issue(store_op(line_addr=0, srcs=(1,)), cycle=0)
        # Nothing recorded: the summary (and its version) is untouched.
        assert sb.version == 0
        assert sb.head_status(int_op(dest=1, srcs=(1,)),
                              THRESHOLD) == (0, 0, False)


class TestMemoryProducers:
    def test_load_starts_unresolved(self):
        sb = Scoreboard()
        sb.record_issue(load_op(dest=2, line_addr=0), cycle=0)
        dependent = int_op(dest=9, srcs=(2,))
        assert sb.head_status(dependent, THRESHOLD)[2]
        # Unresolved producers block readiness at any cycle.
        assert not is_ready(sb, dependent, cycle=10_000)
        # A write to the load's destination waits on it too (WAW).
        assert not is_ready(sb, int_op(dest=2), cycle=10_000)

    def test_unresolved_load_pends(self):
        sb = Scoreboard()
        sb.record_issue(load_op(dest=2, line_addr=0), cycle=0)
        dependent = int_op(dest=9, srcs=(2,))
        assert is_pending(sb, dependent, cycle=0)
        assert is_pending(sb, dependent, cycle=10_000)

    def test_resolution_sets_completion(self):
        sb = Scoreboard()
        sb.record_issue(load_op(dest=2, line_addr=0), cycle=0)
        version = sb.version
        sb.resolve_memory(2, ready_cycle=50)
        assert sb.version > version
        dependent = int_op(dest=9, srcs=(2,))
        assert sb.head_status(dependent, THRESHOLD) == (50, 22, False)
        # More than threshold away -> still a long-latency block.
        assert is_pending(sb, dependent, cycle=10)
        assert is_pending(sb, dependent, cycle=21)
        # Within threshold -> short wait, warp stays active.
        assert not is_pending(sb, dependent, cycle=22)
        assert not is_pending(sb, dependent, cycle=30)
        assert not is_ready(sb, dependent, cycle=49)
        assert is_ready(sb, dependent, cycle=50)

    def test_resolve_unknown_register_raises(self):
        sb = Scoreboard()
        with pytest.raises(KeyError):
            sb.resolve_memory(5, ready_cycle=10)

    def test_resolve_alu_register_raises(self):
        sb = Scoreboard()
        sb.record_issue(int_op(dest=5, latency=4), cycle=0)
        with pytest.raises(KeyError):
            sb.resolve_memory(5, ready_cycle=10)

    def test_alu_producer_never_blocks_as_memory(self):
        sb = Scoreboard()
        sb.record_issue(int_op(dest=1, latency=400), cycle=0)
        dependent = int_op(dest=2, srcs=(1,))
        assert not is_pending(sb, dependent, cycle=0)
        assert not is_ready(sb, dependent, cycle=399)

    def test_alu_overwrite_stops_memory_classification(self):
        sb = Scoreboard()
        sb.record_issue(load_op(dest=1, line_addr=0), cycle=0)
        sb.resolve_memory(1, ready_cycle=500)
        sb.record_issue(int_op(dest=1, latency=4), cycle=600)
        dependent = int_op(dest=2, srcs=(1,))
        assert sb.head_status(dependent, THRESHOLD) == (604, 0, False)
        assert not is_pending(sb, dependent, cycle=600)

    def test_latest_operand_bounds_the_summary(self):
        sb = Scoreboard()
        sb.record_issue(int_op(dest=1, latency=4), cycle=0)
        sb.record_issue(load_op(dest=2, line_addr=0), cycle=0)
        sb.resolve_memory(2, ready_cycle=100)
        sb.record_issue(load_op(dest=3, line_addr=0), cycle=0)
        sb.resolve_memory(3, ready_cycle=60)
        consumer = int_op(dest=4, srcs=(1, 2, 3))
        assert sb.head_status(consumer, THRESHOLD) == (100, 72, False)


class TestRelease:
    def test_reset_clears_everything(self):
        sb = Scoreboard()
        sb.record_issue(int_op(dest=1), cycle=0)
        sb.record_issue(load_op(dest=2, line_addr=0), cycle=0)
        version = sb.version
        sb.reset()
        assert sb.version > version
        consumer = int_op(dest=2, srcs=(1, 2))
        assert sb.head_status(consumer, THRESHOLD) == (0, 0, False)
