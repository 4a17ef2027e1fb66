"""Tests for warp contexts, instruction buffers and fetch."""

import pytest

from repro.isa.instructions import int_op
from repro.isa.trace import WarpTrace
from repro.sim.frontend import FetchEngine, WarpContext


def make_trace(warp_id: int, n: int = 4) -> WarpTrace:
    return WarpTrace(warp_id=warp_id,
                     instructions=tuple(int_op(dest=i % 8) for i in range(n)))


def finished(ctx: WarpContext) -> bool:
    """The SM's release test: every instruction issued and completed."""
    return (ctx.fetch_pc >= ctx.trace_len and not ctx.ibuffer
            and ctx.outstanding == 0)


class TestWarpContext:
    def test_empty_slot(self):
        ctx = WarpContext(0)
        assert ctx.trace is None
        assert not ctx.ibuffer

    def test_assign_and_finish_lifecycle(self):
        ctx = WarpContext(0)
        ctx.assign(make_trace(0, n=1))
        assert ctx.trace is not None and not finished(ctx)
        ctx.ibuffer.append(ctx.trace_insts[0])
        ctx.fetch_pc = 1
        ctx.pop_head()
        ctx.outstanding += 1
        assert not finished(ctx)  # still one in flight
        ctx.outstanding -= 1
        assert finished(ctx)
        ctx.release()
        assert ctx.trace is None

    def test_assign_resets_state(self):
        ctx = WarpContext(0)
        ctx.assign(make_trace(0))
        ctx.fetch_pc = 3
        ctx.outstanding = 2
        ctx.assign(make_trace(1))
        assert ctx.fetch_pc == 0
        assert ctx.outstanding == 0


class TestFetchEngine:
    def test_fills_up_to_width(self):
        warps = [WarpContext(i) for i in range(4)]
        for i, w in enumerate(warps):
            w.assign(make_trace(i, n=8))
        fetch = FetchEngine(fetch_width=4, ibuffer_entries=2)
        assert fetch.tick(warps) == 4

    def test_respects_buffer_capacity(self):
        warps = [WarpContext(0)]
        warps[0].assign(make_trace(0, n=8))
        fetch = FetchEngine(fetch_width=8, ibuffer_entries=2)
        assert fetch.tick(warps) == 2
        assert len(warps[0].ibuffer) == 2

    def test_stops_at_trace_end(self):
        warps = [WarpContext(0)]
        warps[0].assign(make_trace(0, n=1))
        fetch = FetchEngine(fetch_width=4, ibuffer_entries=4)
        assert fetch.tick(warps) == 1
        assert warps[0].fetch_pc == warps[0].trace_len

    def test_round_robin_rotates(self):
        warps = [WarpContext(i) for i in range(3)]
        for i, w in enumerate(warps):
            w.assign(make_trace(i, n=10))
        fetch = FetchEngine(fetch_width=1, ibuffer_entries=8)
        fetch.tick(warps)
        fetch.tick(warps)
        fetch.tick(warps)
        fed = [len(w.ibuffer) for w in warps]
        assert sum(fed) == 3
        assert max(fed) == 1  # spread across warps, not one hog

    def test_skips_empty_slots(self):
        warps = [WarpContext(0), WarpContext(1)]
        warps[1].assign(make_trace(1, n=4))
        fetch = FetchEngine(fetch_width=2, ibuffer_entries=2)
        assert fetch.tick(warps) == 2
        assert len(warps[1].ibuffer) == 2

    def test_refill_set_holds_only_popped_slots(self):
        warps = [WarpContext(i) for i in range(48)]
        for i, w in enumerate(warps):
            w.assign(make_trace(i, n=8))
        fetch = FetchEngine(fetch_width=2, ibuffer_entries=2)
        while fetch.tick(warps):
            pass
        assert all(len(w.ibuffer) == 2 for w in warps)
        assert fetch.tick(warps) == 0
        assert not fetch._refill
        warps[17].pop_head()
        assert fetch._refill == {17}
        before = [w.fetch_pc for w in warps]
        assert fetch.tick(warps) == 1
        assert [w.fetch_pc - pc for w, pc in zip(warps, before)] \
            == [1 if i == 17 else 0 for i in range(48)]
        assert len(warps[17].ibuffer) == 2
        assert not fetch._refill

    def test_validation(self):
        with pytest.raises(ValueError):
            FetchEngine(fetch_width=0, ibuffer_entries=1)
        with pytest.raises(ValueError):
            FetchEngine(fetch_width=1, ibuffer_entries=0)

