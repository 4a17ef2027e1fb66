"""Property tests: kernel splitting invariants for the multi-SM device.

The work distributor is the one piece of the device layer that touches
every warp, so its invariants are pinned over arbitrary shapes: for any
warp count and any SM count, round-robin assignment must be a
*deterministic*, *warp-conserving* partition — no warp lost, none
duplicated, none reordered within its SM, and the same input always
yielding the same split (the device golden digests depend on it).
"""

from hypothesis import given, settings, strategies as st

from repro.isa.instructions import int_op
from repro.isa.trace import KernelTrace, WarpTrace
from repro.sim.gpu import split_kernel


def make_kernel(n_warps: int) -> KernelTrace:
    # Give warp i a trace of i+1 instructions: the instruction count
    # acts as a fingerprint that survives the splitter's warp_id
    # renumbering, so conservation checks can track each warp.
    warps = tuple(
        WarpTrace(i, tuple(int_op(j % 8) for j in range(i + 1)))
        for i in range(n_warps))
    return KernelTrace(name="k", warps=warps, max_resident_warps=48)


N_WARPS = st.integers(min_value=1, max_value=200)
N_SMS = st.integers(min_value=1, max_value=32)


@given(n_warps=N_WARPS, n_sms=N_SMS)
@settings(max_examples=60, deadline=None)
def test_split_conserves_warps(n_warps, n_sms):
    """Every warp lands in exactly one part, in round-robin order."""
    kernel = make_kernel(n_warps)
    parts = split_kernel(kernel, n_sms)
    assert sum(p.n_warps for p in parts) == n_warps
    assert sum(p.total_instructions for p in parts) \
        == kernel.total_instructions
    # Recover each original warp by its instruction-count fingerprint:
    # the multiset over all parts must be exactly {1, ..., n_warps}.
    fingerprints = sorted(len(w) for p in parts for w in p.warps)
    assert fingerprints == list(range(1, n_warps + 1))


@given(n_warps=N_WARPS, n_sms=N_SMS)
@settings(max_examples=60, deadline=None)
def test_split_round_robin_assignment(n_warps, n_sms):
    """Warp i goes to SM ``i % n_sms``, keeping its launch order."""
    kernel = make_kernel(n_warps)
    parts = split_kernel(kernel, n_sms)
    by_sm = {int(p.name.rsplit("#sm", 1)[1]): p for p in parts}
    for sm_id, part in by_sm.items():
        expected = [i for i in range(n_warps) if i % n_sms == sm_id]
        assert [len(w) - 1 for w in part.warps] == expected
        # Local slots are renumbered densely from zero.
        assert [w.warp_id for w in part.warps] \
            == list(range(len(part.warps)))
    # Empty buckets are dropped, never padded.
    assert all(p.n_warps > 0 for p in parts)


@given(n_warps=N_WARPS, n_sms=N_SMS)
@settings(max_examples=60, deadline=None)
def test_split_is_deterministic(n_warps, n_sms):
    """Splitting the same kernel twice yields the identical partition."""
    kernel = make_kernel(n_warps)
    first = split_kernel(kernel, n_sms)
    second = split_kernel(kernel, n_sms)
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert [(w.warp_id, w.decode()) for w in a.warps] \
            == [(w.warp_id, w.decode()) for w in b.warps]
