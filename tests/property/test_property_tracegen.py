"""Property tests: the trace generator honours its specification."""

from hypothesis import assume, given, settings, strategies as st

from repro.isa.optypes import ALL_OP_CLASSES, OpClass
from repro.isa.tracegen import REGS_PER_WARP, TraceSpec, generate_kernel


@st.composite
def trace_specs(draw):
    raw = [draw(st.floats(min_value=0.0, max_value=1.0))
           for _ in range(4)]
    assume(sum(raw) > 0.1)
    total = sum(raw)
    mix = {cls: raw[i] / total for i, cls in enumerate(ALL_OP_CLASSES)}
    return TraceSpec(
        name=draw(st.sampled_from(["a", "bench", "kernel-7"])),
        mix=mix,
        n_warps=draw(st.integers(min_value=1, max_value=8)),
        instructions_per_warp=draw(st.integers(min_value=1, max_value=80)),
        dep_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        dep_distance_mean=draw(st.floats(min_value=1.0, max_value=8.0)),
        load_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        footprint_lines=draw(st.integers(min_value=1, max_value=512)),
        locality=draw(st.floats(min_value=0.0, max_value=1.0)),
        shared_fraction=draw(st.floats(min_value=0.0, max_value=1.0)))


@given(spec=trace_specs(), seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_generation_is_deterministic(spec, seed):
    a = generate_kernel(spec, seed=seed)
    b = generate_kernel(spec, seed=seed)
    for wa, wb in zip(a.warps, b.warps):
        assert wa.decode() == wb.decode()


@given(spec=trace_specs())
@settings(max_examples=100, deadline=None)
def test_every_instruction_is_well_formed(spec):
    kernel = generate_kernel(spec)
    for warp in kernel.warps:
        for inst in warp.decode():
            assert inst.latency >= 1
            assert all(0 <= r < REGS_PER_WARP for r in inst.srcs)
            if inst.dest is not None:
                assert 0 <= inst.dest < REGS_PER_WARP
            if inst.is_mem:
                assert inst.op_class is OpClass.LDST
                assert 0 <= inst.line_addr < spec.footprint_lines
            if inst.is_load:
                assert inst.dest is not None
            if inst.is_store:
                assert inst.dest is None


@given(spec=trace_specs())
@settings(max_examples=60, deadline=None)
def test_zero_mix_classes_never_appear(spec):
    kernel = generate_kernel(spec)
    counts = kernel.op_class_counts()
    for cls in ALL_OP_CLASSES:
        if spec.mix[cls] == 0.0:
            assert counts[cls] == 0


@given(spec=trace_specs())
@settings(max_examples=60, deadline=None)
def test_kernel_dimensions(spec):
    kernel = generate_kernel(spec)
    assert kernel.n_warps == spec.n_warps
    assert kernel.total_instructions == \
        spec.n_warps * spec.instructions_per_warp
