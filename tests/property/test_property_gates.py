"""Property tests: the GATES issue-priority ordering."""

from hypothesis import given, settings, strategies as st

from repro.core.gates import GatesScheduler
from repro.isa.instructions import fp_op, int_op, load_op, sfu_op
from repro.isa.optypes import OpClass
from repro.sim.sched.base import IssueCandidate, SchedulerView

_BUILDERS = {
    OpClass.INT: lambda: int_op(dest=0),
    OpClass.FP: lambda: fp_op(dest=0),
    OpClass.SFU: lambda: sfu_op(dest=0),
    OpClass.LDST: lambda: load_op(dest=0, line_addr=0),
}

candidate_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=15),
              st.sampled_from(sorted(OpClass, key=lambda c: c.value)),
              st.booleans()),
    min_size=0, max_size=24, unique_by=lambda t: t[0])


def build_candidates(raw):
    return [IssueCandidate(slot=slot, age=slot,
                           inst=_BUILDERS[cls](), ready=ready)
            for slot, cls, ready in raw]


def build_view(candidates):
    view = SchedulerView()
    for candidate in candidates:
        view.actv_counts[candidate.op_class] += 1
    return view


@given(raw=candidate_lists, cycle=st.integers(min_value=0, max_value=100))
@settings(max_examples=200, deadline=None)
def test_order_is_a_permutation_of_ready_candidates(raw, cycle):
    sched = GatesScheduler(n_slots=16)
    candidates = build_candidates(raw)
    ordered = sched.order(cycle, candidates, build_view(candidates))
    ready = [c for c in candidates if c.ready]
    assert sorted(c.slot for c in ordered) == sorted(c.slot for c in ready)


@given(raw=candidate_lists)
@settings(max_examples=200, deadline=None)
def test_int_and_fp_always_at_opposite_ends(raw):
    """The ordering [hi, LDST, SFU, lo] never interleaves INT and FP."""
    sched = GatesScheduler(n_slots=16)
    candidates = build_candidates(raw)
    ordered = sched.order(0, candidates, build_view(candidates))
    classes = [c.op_class for c in ordered]
    if OpClass.INT in classes and OpClass.FP in classes:
        # Whichever CUDA-core type appears first, every one of its
        # instructions precedes every instruction of the other type.
        int_positions = [i for i, c in enumerate(classes)
                         if c is OpClass.INT]
        fp_positions = [i for i, c in enumerate(classes)
                        if c is OpClass.FP]
        assert (max(int_positions) < min(fp_positions)
                or max(fp_positions) < min(int_positions))


@given(raw=candidate_lists)
@settings(max_examples=200, deadline=None)
def test_ldst_precedes_sfu_within_the_middle(raw):
    sched = GatesScheduler(n_slots=16)
    candidates = build_candidates(raw)
    ordered = sched.order(0, candidates, build_view(candidates))
    classes = [c.op_class for c in ordered]
    if OpClass.LDST in classes and OpClass.SFU in classes:
        assert max(i for i, c in enumerate(classes)
                   if c is OpClass.LDST) < \
            min(i for i, c in enumerate(classes) if c is OpClass.SFU)


@given(raw=candidate_lists, steps=st.integers(min_value=1, max_value=20))
@settings(max_examples=100, deadline=None)
def test_priority_is_always_a_cuda_core_type(raw, steps):
    sched = GatesScheduler(n_slots=16)
    candidates = build_candidates(raw)
    view = build_view(candidates)
    for cycle in range(steps):
        sched.order(cycle, candidates, view)
        assert sched.highest_priority in (OpClass.INT, OpClass.FP)


@given(raw=candidate_lists)
@settings(max_examples=100, deadline=None)
def test_switch_only_when_high_subset_empty(raw):
    """With both ACTV counters non-zero, the priority must not move."""
    sched = GatesScheduler(n_slots=16)
    candidates = build_candidates(raw)
    view = build_view(candidates)
    if view.actv_counts[OpClass.INT] > 0 and \
            view.actv_counts[OpClass.FP] > 0:
        before = sched.highest_priority
        sched.order(0, candidates, view)
        assert sched.highest_priority is before
