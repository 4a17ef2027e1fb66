"""Property tests: memory-subsystem conservation laws."""

from hypothesis import given, settings, strategies as st

from repro.isa.instructions import MemorySpace, load_op, store_op
from repro.sim.config import MemoryConfig
from repro.sim.memory import MemorySubsystem

# One access request: (delta cycles, warp slot, line, is_load, shared)
requests = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5),
              st.integers(min_value=0, max_value=7),
              st.integers(min_value=0, max_value=63),
              st.booleans(),
              st.booleans()),
    min_size=1, max_size=120)

configs = st.builds(
    MemoryConfig,
    l1_sets=st.sampled_from([2, 4, 8]),
    l1_ways=st.integers(min_value=1, max_value=4),
    mshr_entries=st.integers(min_value=1, max_value=8),
    l1_hit_latency=st.integers(min_value=1, max_value=20),
    shared_latency=st.integers(min_value=1, max_value=10),
    dram_latency=st.integers(min_value=20, max_value=200),
    dram_jitter=st.floats(min_value=0.0, max_value=0.5))


def drive(config: MemoryConfig, stream):
    """Replay a request stream with retries, then drain completely."""
    mem = MemorySubsystem(config)
    cycle = 0
    expected_loads = 0
    deliveries = 0
    pending_retries = []
    for delta, slot, line, is_load, shared in stream:
        cycle += delta
        deliveries += len(mem.tick(cycle))
        # Retry anything the MSHR rejected earlier.
        still = []
        for inst_slot, inst in pending_retries:
            if mem.access(cycle, inst_slot, inst) is None:
                still.append((inst_slot, inst))
        pending_retries = still
        space = MemorySpace.SHARED if shared else MemorySpace.GLOBAL
        if is_load:
            inst = load_op(dest=1, line_addr=line, mem_space=space)
            expected_loads += 1
        else:
            inst = store_op(line_addr=line, srcs=(1,), mem_space=space)
        if mem.access(cycle, slot, inst) is None:
            pending_retries.append((slot, inst))
    # Drain: retries first, then deliveries.
    for _ in range(10_000):
        cycle += 1
        deliveries += len(mem.tick(cycle))
        still = []
        for slot, inst in pending_retries:
            if mem.access(cycle, slot, inst) is None:
                still.append((slot, inst))
        pending_retries = still
        if not pending_retries and not mem._pending:
            break
    return mem, deliveries, expected_loads


@given(config=configs, stream=requests)
@settings(max_examples=100, deadline=None)
def test_every_load_delivers_exactly_once(config, stream):
    mem, deliveries, expected_loads = drive(config, stream)
    assert deliveries == expected_loads
    assert mem.stats.loads == expected_loads


@given(config=configs, stream=requests)
@settings(max_examples=100, deadline=None)
def test_outcome_counters_partition_loads(config, stream):
    mem, _, _ = drive(config, stream)
    assert mem.stats.hits + mem.stats.misses + mem.stats.merged_misses \
        + mem.stats.shared_accesses == mem.stats.loads


@given(config=configs, stream=requests)
@settings(max_examples=100, deadline=None)
def test_mshrs_fully_released(config, stream):
    mem, _, _ = drive(config, stream)
    assert not mem._outstanding


@given(config=configs, stream=requests)
@settings(max_examples=100, deadline=None)
def test_mshr_occupancy_never_exceeds_capacity(config, stream):
    mem = MemorySubsystem(config)
    cycle = 0
    for delta, slot, line, is_load, shared in stream:
        cycle += delta
        mem.tick(cycle)
        space = MemorySpace.SHARED if shared else MemorySpace.GLOBAL
        inst = (load_op(dest=1, line_addr=line, mem_space=space)
                if is_load else
                store_op(line_addr=line, srcs=(1,), mem_space=space))
        mem.access(cycle, slot, inst)
        assert len(mem._outstanding) <= config.mshr_entries
