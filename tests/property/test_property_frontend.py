"""Property tests: the fetch engine."""

from hypothesis import given, settings, strategies as st

from repro.isa.instructions import int_op
from repro.isa.trace import KernelTrace, WarpTrace
from repro.sim.frontend import FetchEngine, WarpContext


def make_kernel(name: str, lengths):
    warps = tuple(
        WarpTrace(i, tuple(int_op(dest=j % 8) for j in range(n)))
        for i, n in enumerate(lengths))
    return KernelTrace(name=name, warps=warps, max_resident_warps=48)


def launch(queue, warps):
    """Assign queued warp traces to the free slots, in slot order."""
    for warp in warps:
        if queue and warp.trace is None:
            warp.assign(queue.pop(0))


warp_lengths = st.lists(st.integers(min_value=1, max_value=12),
                        min_size=1, max_size=10)


@given(lengths=warp_lengths,
       fetch_width=st.integers(min_value=1, max_value=8),
       buffer_size=st.integers(min_value=1, max_value=4),
       n_slots=st.integers(min_value=1, max_value=10))
@settings(max_examples=150, deadline=None)
def test_fetch_delivers_every_instruction_exactly_once(
        lengths, fetch_width, buffer_size, n_slots):
    kernel = make_kernel("k", lengths)
    warps = [WarpContext(i) for i in range(n_slots)]
    queue = list(kernel.warps)
    fetch = FetchEngine(fetch_width, buffer_size)
    delivered = 0
    for _ in range(5000):
        # Consume buffered heads (simulating perfect issue) and recycle
        # finished warps.
        for warp in warps:
            while warp.ibuffer:
                warp.pop_head()
                delivered += 1
            if warp.trace is not None and warp.fetch_pc >= warp.trace_len:
                warp.release()
        launch(queue, warps)
        fetched = fetch.tick(warps)
        if (not queue and fetched == 0
                and all(not w.ibuffer for w in warps)
                and all(w.fetch_pc >= w.trace_len
                        for w in warps)):
            for warp in warps:
                while warp.ibuffer:
                    warp.pop_head()
                    delivered += 1
            break
    assert delivered == kernel.total_instructions


@given(lengths=warp_lengths,
       fetch_width=st.integers(min_value=1, max_value=8),
       buffer_size=st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_buffers_never_exceed_capacity(lengths, fetch_width, buffer_size):
    kernel = make_kernel("k", lengths)
    warps = [WarpContext(i) for i in range(len(lengths))]
    launch(list(kernel.warps), warps)
    fetch = FetchEngine(fetch_width, buffer_size)
    for _ in range(50):
        fetched = fetch.tick(warps)
        assert fetched <= fetch_width
        for warp in warps:
            assert len(warp.ibuffer) <= buffer_size


def reference_tick(rr, warps, fetch_width, buffer_size):
    """Full-scan fetch: every slot visited in round-robin order from
    ``rr``.  Returns (fetched, next round-robin pointer)."""
    n = len(warps)
    fetched = 0
    for step in range(n):
        warp = warps[(rr + step) % n]
        take = min(fetch_width - fetched, buffer_size - len(warp.ibuffer),
                   warp.trace_len - warp.fetch_pc)
        if take <= 0:
            continue
        pc = warp.fetch_pc
        warp.ibuffer.extend(warp.trace_insts[pc:pc + take])
        warp.fetch_pc = pc + take
        fetched += take
        if fetched >= fetch_width:
            break
    return fetched, (rr + 1) % n


fetch_steps = st.lists(
    st.tuples(st.sampled_from(["assign", "pop", "pop", "release", "idle"]),
              st.integers(min_value=0, max_value=47),
              st.integers(min_value=0, max_value=12)),
    max_size=200)


def run_against_full_scan(steps, n_slots, fetch_width, buffer_size):
    """Drive the refill-set fetch and the full-scan reference through
    ``steps`` (assign, issue pops, release; every step ends with a
    tick) and assert they fetch the same.  A pop must queue its slot
    for refill exactly while the slot's trace has instructions left.
    Returns how many ticks took the fill-every-slot path and how many
    the round-robin path."""
    warps = [WarpContext(i) for i in range(n_slots)]
    ref = [WarpContext(i) for i in range(n_slots)]
    fetch = FetchEngine(fetch_width, buffer_size)
    rr = 0
    paths = [0, 0]
    for op, index, length in steps:
        slot = index % n_slots
        if op == "assign":
            trace = WarpTrace(index, tuple(int_op(dest=j % 8)
                                           for j in range(length)))
            warps[slot].assign(trace)
            ref[slot].assign(trace)
        elif op == "pop":
            # Pop from a buffered slot, so pops and refills interleave
            # even when most of the 48 slots are empty.
            buffered = [w.slot for w in ref if w.ibuffer]
            if buffered:
                slot = buffered[index % len(buffered)]
                warp = warps[slot]
                queued = slot in fetch._refill
                popped = warp.pop_head()
                assert popped is ref[slot].pop_head()
                assert (slot in fetch._refill) == (
                    queued or warp.fetch_pc < warp.trace_len)
        elif op == "release":
            warps[slot].release()
            ref[slot].release()
        if fetch._gen != WarpContext.assign_generation:
            fetch._rebuild(warps)  # as the tick would, to see its set
        if fetch._refill:
            paths[len(fetch._refill) * buffer_size > fetch_width] += 1
        expected, rr = reference_tick(rr, ref, fetch_width, buffer_size)
        assert fetch.tick(warps) == expected
        assert fetch._rr_start == rr
        for warp, want in zip(warps, ref):
            assert warp.fetch_pc == want.fetch_pc
            assert list(warp.ibuffer) == list(want.ibuffer)
    return tuple(paths)


@given(steps=fetch_steps,
       n_slots=st.integers(min_value=1, max_value=48),
       fetch_width=st.integers(min_value=1, max_value=8),
       buffer_size=st.integers(min_value=1, max_value=4))
@settings(max_examples=400, deadline=None)
def test_refill_set_matches_full_scan(steps, n_slots, fetch_width,
                                      buffer_size):
    """The refill-set fetch fetches exactly what a scan of every slot
    fetches, under any interleaving of assign, issue pops and release."""
    run_against_full_scan(steps, n_slots, fetch_width, buffer_size)


def test_both_fetch_paths_match_full_scan():
    """A one-wide fetch queues more than it can fill (round-robin
    path); a four-wide one refills the popped slots in full
    (fill-every-slot path).  Both run until the traces run out, so
    slots whose last instruction was fetched stop being queued."""
    steps = [("assign", slot, 12) for slot in range(6)]
    steps += [("pop", k, 0) for k in range(80)]
    fast, slow = run_against_full_scan(steps, 6, 1, 2)
    assert slow and not fast
    fast, slow = run_against_full_scan(steps, 6, 4, 2)
    assert fast

