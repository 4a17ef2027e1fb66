"""Property tests: scheduler issue orderings, GATES' ladder above all."""

import copy

from hypothesis import given, settings, strategies as st

from repro.core.gates import GatesScheduler
from repro.isa.optypes import OpClass
from repro.sim.sched.two_level import TwoLevelScheduler
from tests.sim.views import make_view

#: Active warps as (slot, head type, ready) rows, unique slots.
candidate_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=15),
              st.sampled_from(sorted(OpClass, key=lambda c: c.value)),
              st.booleans()),
    min_size=0, max_size=24, unique_by=lambda t: t[0])


#: Every built-in scheduler over 16 slots.
SCHEDULERS = {
    "two_level": lambda: TwoLevelScheduler(n_slots=16),
    "gates": lambda: GatesScheduler(n_slots=16),
}


def _lists(view):
    return (list(view.ready), [list(b) for b in view.ready_by_class])


@given(name=st.sampled_from(sorted(SCHEDULERS)),
       views=st.lists(candidate_lists, min_size=1, max_size=4),
       issued=st.lists(st.integers(min_value=0, max_value=15), max_size=4))
@settings(max_examples=300, deadline=None)
def test_order_is_a_permutation_of_ready_candidates(name, views, issued):
    """Over a run of cycles, each scheduler's order is a permutation of
    ``view.ready`` and leaves the view's lists intact — the dense
    kernel hands a scheduler its live lists."""
    sched = SCHEDULERS[name]()
    for cycle, raw in enumerate(views):
        view = make_view(raw)
        before = _lists(view)
        ordered = list(sched.order(cycle, view))
        assert _lists(view) == before, f"{name} mutated the view"
        assert sorted(ordered) == before[0]
        for slot in issued[cycle:cycle + 1]:
            sched.on_issue(cycle, slot)


def _gates_order(raw, cycle=0):
    view = make_view(raw)
    classes = {row[0]: row[1] for row in raw}
    ordered = GatesScheduler(n_slots=16).order(cycle, view)
    return [classes[slot] for slot in ordered]


@given(raw=candidate_lists)
@settings(max_examples=200, deadline=None)
def test_int_and_fp_always_at_opposite_ends(raw):
    """The ordering [hi, LDST, SFU, lo] never interleaves INT and FP."""
    classes = _gates_order(raw)
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
    classes = _gates_order(raw)
    if OpClass.LDST in classes and OpClass.SFU in classes:
        assert max(i for i, c in enumerate(classes)
                   if c is OpClass.LDST) < \
            min(i for i, c in enumerate(classes) if c is OpClass.SFU)


@given(raw=candidate_lists, steps=st.integers(min_value=1, max_value=20))
@settings(max_examples=100, deadline=None)
def test_priority_is_always_a_cuda_core_type(raw, steps):
    sched = GatesScheduler(n_slots=16)
    view = make_view(raw)
    for cycle in range(steps):
        sched.order(cycle, view)
        assert sched.highest_priority in (OpClass.INT, OpClass.FP)


@given(raw=candidate_lists)
@settings(max_examples=100, deadline=None)
def test_switch_only_when_high_subset_empty(raw):
    """With both ACTV counters non-zero, the priority must not move."""
    sched = GatesScheduler(n_slots=16)
    view = make_view(raw)
    if view.actv_counts[OpClass.INT] > 0 and \
            view.actv_counts[OpClass.FP] > 0:
        before = sched.highest_priority
        sched.order(0, view)
        assert sched.highest_priority is before


#: Active warps whose ready heads are all LDST instructions: with an MSHR
#: retry latched, the issue walk holds every one of them, so nothing
#: issues on such a view.
blocked_lists = candidate_lists.map(lambda rows: [
    (slot, OpClass.LDST if ready else op_class, ready)
    for slot, op_class, ready in rows])

blackout_flags = st.tuples(st.booleans(), st.booleans())


def _blocked_view(raw, blackout):
    view = make_view(raw)
    (view.type_in_blackout[OpClass.INT],
     view.type_in_blackout[OpClass.FP]) = blackout
    return view


@given(name=st.sampled_from(sorted(SCHEDULERS)),
       raw=blocked_lists, blackout=blackout_flags,
       history=st.lists(st.tuples(candidate_lists,
                                  st.integers(min_value=0, max_value=15)),
                        max_size=3),
       span=st.integers(min_value=1, max_value=40))
@settings(max_examples=300, deadline=None)
def test_no_issue_cycles_replay_in_bulk(name, raw, blackout, history, span):
    """``span`` ``order`` calls on a view that issues nothing, with no
    ``on_issue`` between them, leave the scheduler's state as it was,
    and each returns all of ``view.ready`` — once ``idle_flip_pending``
    reports nothing (the span planner steps the cycles on which it
    does).  This is what lets a skipped span replay no scheduler
    state."""
    sched = SCHEDULERS[name]()
    for cycle, (earlier, slot) in enumerate(history):
        sched.order(cycle, make_view(earlier))
        sched.on_issue(cycle, slot)
    view = _blocked_view(raw, blackout)
    start = len(history)
    while sched.idle_flip_pending(start, view):
        if start > len(history) + 2:
            return  # a flip every cycle: no span can start
        sched.order(start, view)
        start += 1
    stepped = copy.deepcopy(sched)
    for cycle in range(start, start + span):
        assert sorted(stepped.order(cycle, view)) == list(view.ready)
    assert vars(stepped) == vars(sched)


@given(raw=blocked_lists, blackout=blackout_flags,
       aware=st.booleans(),
       highest=st.sampled_from((OpClass.INT, OpClass.FP)))
@settings(max_examples=200, deadline=None)
def test_gates_flip_pending_agrees_with_update(raw, blackout, aware,
                                               highest):
    """On views that issue nothing, GATES reports a pending flip exactly
    when ``_update_priority`` flips."""
    sched = GatesScheduler(n_slots=16, blackout_aware=aware)
    if highest is OpClass.FP:
        sched._highest, sched._lowest = OpClass.FP, OpClass.INT
    view = _blocked_view(raw, blackout)
    pending = sched.idle_flip_pending(5, view)
    sched._update_priority(5, view)
    assert pending == (sched.highest_priority is not highest)
