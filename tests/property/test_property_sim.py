"""Property tests: full-SM invariants over random small workloads.

Each example builds a random workload, runs it under a random technique,
and checks the conservation laws the simulator must satisfy regardless
of scheduling or gating policy.
"""

from hypothesis import given, settings, strategies as st

from repro.core.techniques import Technique, build_sm
from repro.isa.optypes import ALL_OP_CLASSES
from repro.isa.tracegen import TraceSpec, generate_kernel
from repro.sim.config import MemoryConfig, SMConfig
from tests.sim.test_stats import histogram_mass


@st.composite
def small_specs(draw):
    raw = [draw(st.floats(min_value=0.05, max_value=1.0))
           for _ in range(4)]
    total = sum(raw)
    mix = {cls: raw[i] / total for i, cls in enumerate(ALL_OP_CLASSES)}
    return TraceSpec(
        name="prop",
        mix=mix,
        n_warps=draw(st.integers(min_value=1, max_value=10)),
        instructions_per_warp=draw(st.integers(min_value=1, max_value=40)),
        max_resident_warps=draw(st.integers(min_value=1, max_value=10)),
        dep_prob=draw(st.floats(min_value=0.0, max_value=0.8)),
        load_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        footprint_lines=draw(st.integers(min_value=8, max_value=256)),
        locality=draw(st.floats(min_value=0.0, max_value=1.0)),
        shared_fraction=draw(st.floats(min_value=0.0, max_value=1.0)))


TECHNIQUES = st.sampled_from([
    Technique.BASELINE, Technique.CONV_PG, Technique.GATES,
    Technique.NAIVE_BLACKOUT, Technique.COORD_BLACKOUT,
    Technique.WARPED_GATES])

CONFIG = SMConfig(max_resident_warps=10, max_cycles=100_000,
                  memory=MemoryConfig(mshr_entries=4, dram_latency=120))


def run_random(spec, technique, seed):
    kernel = generate_kernel(spec, seed=seed)
    sm = build_sm(kernel, technique, sm_config=CONFIG)
    return kernel, sm.run()


@given(spec=small_specs(), technique=TECHNIQUES,
       seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=60, deadline=None)
def test_every_instruction_issues_and_retires(spec, technique, seed):
    kernel, result = run_random(spec, technique, seed)
    assert result.stats.instructions_issued == kernel.total_instructions
    assert result.stats.instructions_retired == kernel.total_instructions


@given(spec=small_specs(), technique=TECHNIQUES,
       seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=60, deadline=None)
def test_issue_counts_match_kernel_mix(spec, technique, seed):
    kernel, result = run_random(spec, technique, seed)
    assert result.stats.issued_by_class == kernel.op_class_counts()


@given(spec=small_specs(), technique=TECHNIQUES,
       seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=40, deadline=None)
def test_domain_and_tracker_invariants(spec, technique, seed):
    _, result = run_random(spec, technique, seed)
    for name, tracker in result.stats.idle_trackers.items():
        assert tracker.busy_cycles + tracker.idle_cycles == result.cycles
        assert histogram_mass(tracker) == tracker.idle_cycles
        stats = result.domain_stats.get(name)
        if stats is not None:
            assert stats.gated_cycles <= tracker.idle_cycles
            assert stats.compensated_cycles + \
                stats.uncompensated_cycles == stats.gated_cycles


@given(spec=small_specs(), seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=40, deadline=None)
def test_blackout_guarantee_holds_on_random_workloads(spec, seed):
    _, result = run_random(spec, Technique.NAIVE_BLACKOUT, seed)
    for stats in result.domain_stats.values():
        assert stats.wakeups_uncompensated == 0


@given(spec=small_specs(), technique=TECHNIQUES,
       seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=30, deadline=None)
def test_memory_requests_all_drain(spec, technique, seed):
    _, result = run_random(spec, technique, seed)
    # loads + stores == LDST issues; all accepted eventually.
    ldst_issues = result.pipeline_issues["LDST"]
    assert result.memory.loads + result.memory.stores == ldst_issues
