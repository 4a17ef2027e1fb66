"""Property tests: scoreboard dependence tracking via ``head_status``.

A head is ready at ``c`` iff ``not unresolved and c >= ready_at`` and
pending iff ``unresolved or c < mem_until`` — the per-cycle
classification the SM derives from the summary.
"""

from hypothesis import given, strategies as st

from repro.isa.instructions import int_op, load_op
from repro.sim.scoreboard import Scoreboard

regs = st.integers(min_value=0, max_value=15)
cycles = st.integers(min_value=0, max_value=200)
latencies = st.integers(min_value=1, max_value=32)


def is_ready(sb, inst, cycle, threshold=0):
    ready_at, _, unresolved = sb.head_status(inst, threshold)
    return not unresolved and cycle >= ready_at


def is_pending(sb, inst, cycle, threshold):
    _, mem_until, unresolved = sb.head_status(inst, threshold)
    return unresolved or cycle < mem_until


@given(dest=regs, latency=latencies, issue=cycles)
def test_alu_producer_frees_exactly_at_latency(dest, latency, issue):
    sb = Scoreboard()
    sb.record_issue(int_op(dest=dest, latency=latency), cycle=issue)
    consumer = int_op(dest=(dest + 1) % 16, srcs=(dest,))
    assert not is_ready(sb, consumer, issue + latency - 1)
    assert is_ready(sb, consumer, issue + latency)


@given(dest=regs, ready=st.integers(min_value=1, max_value=500),
       threshold=st.integers(min_value=0, max_value=100))
def test_pending_classification_consistent_with_threshold(dest, ready,
                                                          threshold):
    sb = Scoreboard()
    sb.record_issue(load_op(dest=dest, line_addr=0), cycle=0)
    sb.resolve_memory(dest, ready_cycle=ready)
    consumer = int_op(dest=(dest + 1) % 16, srcs=(dest,))
    for cycle in range(0, ready + 2, max(1, ready // 7)):
        pending = is_pending(sb, consumer, cycle, threshold)
        assert pending == (ready - cycle > threshold)


@given(st.data())
def test_ready_is_monotonic_in_time(data):
    """Once ready (with no new issues), an instruction stays ready."""
    sb = Scoreboard()
    n = data.draw(st.integers(min_value=1, max_value=10))
    for i in range(n):
        dest = data.draw(regs)
        latency = data.draw(latencies)
        sb.record_issue(int_op(dest=dest, latency=latency), cycle=i)
    consumer = int_op(dest=0, srcs=(data.draw(regs),))
    became_ready_at = None
    for cycle in range(0, 60):
        if is_ready(sb, consumer, cycle):
            became_ready_at = cycle
            break
    assert became_ready_at is not None  # all latencies bounded
    for cycle in range(became_ready_at, became_ready_at + 10):
        assert is_ready(sb, consumer, cycle)
