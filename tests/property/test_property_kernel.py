"""Property tests: the stepping engine is decision-identical.

Each example builds a random small workload, runs it serially and
through the stepping engine (``fast_forward=True``: the dense kernel
plus span skip), and requires the canonical result form — every stats
counter, gating counter, idle histogram, warp record and flat metric —
to match exactly.  The golden identity suite pins the real benchmarks;
this sweeps the odd corners random traces reach (single warps, tiny
traces, degenerate mixes, tiny MSHR files) where skip/kernel
transitions, resync and event-heap edge cases live.
"""

from hypothesis import given, settings, strategies as st

from repro.core.techniques import Technique, build_sm
from repro.isa.optypes import ALL_OP_CLASSES
from repro.isa.tracegen import TraceSpec, generate_kernel
from repro.sim.config import MemoryConfig, SMConfig
from tests.sim.identity import canonical_result


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


def run_one(spec, technique, seed, **kwargs):
    kernel = generate_kernel(spec, seed=seed)
    sm = build_sm(kernel, technique, sm_config=CONFIG, **kwargs)
    return sm.run()


@given(spec=small_specs(), technique=TECHNIQUES,
       seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=50, deadline=None)
def test_dense_kernel_equals_serial(spec, technique, seed):
    """Fast-forward runs produce the identical canonical result."""
    serial = canonical_result(run_one(spec, technique, seed))
    forwarded = canonical_result(
        run_one(spec, technique, seed, fast_forward=True))
    assert forwarded == serial

