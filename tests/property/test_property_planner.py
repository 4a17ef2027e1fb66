"""Property tests: the span planner never skips past a per-warp scan.

The planner reads the dense kernel's incremental classification
instead of scanning warps.  :func:`reference_plan` is that scan — every
resident warp's cached head summary, the fetch buffers, finished warps
— with the same MSHR rule: while a retry is latched, a ready LDST head
is held by back-pressure and an unresolved head waits on the memory
event that frees an MSHR.  Driving random small kernels one cycle at a
time, the kernel-state plan must never return a bound past the
reference's, and the run must still equal the serial one.
"""

from hypothesis import given, settings, strategies as st

from repro.core.techniques import build_sm
from repro.isa.optypes import ExecUnitKind, OpClass
from repro.isa.tracegen import generate_kernel
from repro.sim.config import MemoryConfig, SMConfig
from repro.sim.fastforward import SpanFastForwarder
from repro.sim.kernel import DenseStepKernel
from repro.sim.sched.base import SchedulerView
from tests.property.test_property_kernel import TECHNIQUES, small_specs
from tests.sim.identity import canonical_result


def reference_plan(sm, cycle: int) -> int:
    """The earliest interesting cycle >= ``cycle``, from a warp scan.

    Any return <= ``cycle`` means "step".  Reads each warp's head cache
    and requires it current: the kernel refreshes every head it
    invalidates within the cycle that invalidates it.
    """
    retry = sm._retry
    bound = sm.config.max_cycles
    ldst_flight = False
    for pipe in sm.pipelines:
        nxt = pipe.next_state_change(cycle)
        if nxt is not None:
            if nxt <= cycle:
                return cycle
            bound = min(bound, nxt)
            if pipe.kind is ExecUnitKind.LDST:
                ldst_flight = True
    mem_event = sm.memory.next_completion_cycle()
    if mem_event <= cycle:
        return cycle
    bound = min(bound, mem_event)

    view = SchedulerView()
    ready, active = [], []
    ready_by_class = ([], [], [], [])
    unresolved_any = False
    resident = 0
    free_slot = False
    for warp in sm.warps:
        if warp.trace is None:
            free_slot = True
            continue
        resident += 1
        if warp.finished():
            return cycle
        buffered = len(warp.ibuffer)
        if buffered < sm.fetch.ibuffer_entries \
                and warp.fetch_pc < warp.trace_len:
            return cycle
        if not buffered:
            continue
        assert warp.cache_popped == warp.fetch_pc - buffered
        assert warp.cache_version == warp.scoreboard.version
        if warp.head_unresolved:
            unresolved_any = True
        elif cycle < warp.head_mem_until:
            bound = min(bound, warp.head_mem_until)
        else:
            active.append(warp.slot)
            view.actv_counts[warp.head_inst.op_class] += 1
            if cycle >= warp.head_ready_at:
                if not retry or warp.head_inst.op_class is not OpClass.LDST:
                    return cycle
                ready.append(warp.slot)
                ready_by_class[warp.head_opx].append(warp.slot)
            else:
                bound = min(bound, warp.head_ready_at)
    if unresolved_any and not ldst_flight and not retry:
        return cycle

    for pipe, domain in sm._gated_pipes:
        if cycle < pipe.busy_until:
            event = domain.next_busy_event(cycle)
            if event is not None:
                if event <= cycle:
                    return cycle
                bound = min(bound, event)
            bound = min(bound, pipe.busy_until)
        else:
            event = domain.next_idle_event(cycle)
            if event is None or event <= cycle:
                return cycle
            bound = min(bound, event)
    for hook in sm.hooks:
        event = hook.idle_next_event(cycle)
        if event <= cycle:
            return cycle
        bound = min(bound, event)
    if sm.launcher.remaining and free_slot:
        event = sm.launcher.launch_blocked_until(cycle, resident)
        if event <= cycle:
            return cycle
        bound = min(bound, event)
    if bound <= cycle:
        return cycle

    sm._blackout_flags(cycle, view.type_in_blackout)
    view.ready, view.ready_by_class, view.active = ready, ready_by_class, \
        active
    view.ages = sm._ages
    if sm.scheduler.idle_flip_pending(cycle, view):
        return cycle
    return int(bound)


@given(spec=small_specs(), technique=TECHNIQUES,
       seed=st.integers(min_value=0, max_value=50),
       mshr_entries=st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_plan_never_passes_the_warp_scan(spec, technique, seed,
                                         mshr_entries):
    config = SMConfig(max_resident_warps=10, max_cycles=100_000,
                      memory=MemoryConfig(mshr_entries=mshr_entries,
                                          dram_latency=120))
    kernel = generate_kernel(spec, seed=seed)

    def build():
        return build_sm(kernel, technique, sm_config=config)

    serial = canonical_result(build().run())
    sm = build()
    sm._ran = True
    sm.scheduler.reset()
    sm._prepare()
    core = DenseStepKernel(sm)
    forwarder = SpanFastForwarder(sm, core)
    cycle = 0
    while not sm._drained():
        target = cycle
        if forwarder.supported:
            reference = reference_plan(sm, cycle)
            target = forwarder._plan(cycle)
            assert target <= max(reference, cycle)
        if target > cycle:
            forwarder._apply(cycle, target)
            cycle = target
        else:
            core._cycle(cycle)
            cycle += 1
    assert canonical_result(sm._collect(cycle)) == serial
