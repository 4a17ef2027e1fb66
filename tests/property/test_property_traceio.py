"""Property tests: trace serialisation round-trips exactly."""

from hypothesis import given, settings, strategies as st

from repro.isa.optypes import ALL_OP_CLASSES
from repro.isa.trace import KernelTrace
from repro.isa.traceio import kernel_from_dict, kernel_to_dict
from repro.isa.tracegen import TraceSpec, generate_kernel


@st.composite
def random_specs(draw):
    raw = [draw(st.floats(min_value=0.01, max_value=1.0))
           for _ in range(4)]
    total = sum(raw)
    mix = {cls: raw[i] / total for i, cls in enumerate(ALL_OP_CLASSES)}
    return TraceSpec(
        name=draw(st.sampled_from(["k", "bench-x", "alpha_7"])),
        mix=mix,
        n_warps=draw(st.integers(min_value=1, max_value=6)),
        instructions_per_warp=draw(st.integers(min_value=1, max_value=60)),
        load_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        footprint_lines=draw(st.integers(min_value=1, max_value=128)),
        locality=draw(st.floats(min_value=0.0, max_value=1.0)),
        shared_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        branch_prob=draw(st.floats(min_value=0.0, max_value=0.4)))


@given(spec=random_specs(), seed=st.integers(min_value=0, max_value=99))
@settings(max_examples=100, deadline=None)
def test_round_trip_preserves_every_instruction(spec, seed):
    kernel = generate_kernel(spec, seed=seed)
    restored = kernel_from_dict(kernel_to_dict(kernel))
    assert restored.name == kernel.name
    assert restored.max_resident_warps == kernel.max_resident_warps
    assert restored.n_warps == kernel.n_warps
    for a, b in zip(restored.warps, kernel.warps):
        assert a.warp_id == b.warp_id
        assert a.decode() == b.decode()


@given(spec=random_specs(), seed=st.integers(min_value=0, max_value=99))
@settings(max_examples=50, deadline=None)
def test_serialised_form_is_json_safe(spec, seed):
    import json
    kernel = generate_kernel(spec, seed=seed)
    text = json.dumps(kernel_to_dict(kernel))
    restored = kernel_from_dict(json.loads(text))
    assert isinstance(restored, KernelTrace)
    assert restored.total_instructions == kernel.total_instructions
    assert restored.op_class_counts() == kernel.op_class_counts()
