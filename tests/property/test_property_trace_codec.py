"""Property tests: a warp trace's packed columns round-trip exactly.

Any sequence of valid instructions, encoded into a :class:`WarpTrace`,
pickled (as the disk trace cache and the SM part jobs do) and decoded,
comes back equal field by field with the same types: ``OpClass`` and
``MemorySpace`` members, ``None`` for no destination, a tuple of
sources.  The JSON trace format is independent of the columns, so a
format-1 document still loads.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.isa.instructions import (
    Instruction,
    MAX_LATENCY,
    MAX_LINE_ADDR,
    MAX_REGISTER,
    MemorySpace,
    fp_op,
    int_op,
    store_op,
)
from repro.isa.optypes import OpClass
from repro.isa.trace import OPCODES, KernelTrace, WarpTrace
from repro.isa.traceio import FORMAT_VERSION, kernel_from_dict

registers = st.integers(min_value=0, max_value=MAX_REGISTER)


@st.composite
def instructions(draw):
    """Any instruction the constructor accepts."""
    op_class = draw(st.sampled_from(list(OpClass)))
    kind = draw(st.sampled_from(["alu", "load", "store"])) \
        if op_class is OpClass.LDST else "alu"
    dest = draw(registers) if kind == "load" \
        else None if kind == "store" else draw(st.none() | registers)
    return Instruction(
        opcode=draw(st.sampled_from(OPCODES) | st.text(max_size=6)),
        op_class=op_class,
        dest=dest,
        srcs=tuple(draw(st.lists(registers, max_size=5))),
        latency=draw(st.integers(min_value=1, max_value=MAX_LATENCY)),
        is_load=kind == "load",
        is_store=kind == "store",
        mem_space=draw(st.sampled_from(list(MemorySpace))),
        line_addr=draw(st.integers(min_value=0, max_value=MAX_LINE_ADDR)),
        active_lanes=draw(st.integers(min_value=1, max_value=32)))


def field_types(inst):
    return tuple((name, type(getattr(inst, name)))
                 for name in Instruction.__dataclass_fields__)


@given(insts=st.lists(instructions(), max_size=40),
       warp_id=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_encode_pickle_decode_is_exact(insts, warp_id):
    trace = pickle.loads(pickle.dumps(WarpTrace(warp_id, insts)))
    decoded = trace.decode()
    assert trace.warp_id == warp_id
    assert len(trace) == len(insts)
    assert decoded == tuple(insts)
    for got, want in zip(decoded, insts):
        assert field_types(got) == field_types(want)
        assert hash(got) == hash(want)
        assert type(got.srcs) is tuple
    counts = trace.op_class_counts()
    assert counts == {cls: sum(i.op_class is cls for i in decoded)
                      for cls in OpClass}


@given(insts=st.lists(instructions(), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_renumbering_shares_the_columns(insts):
    trace = WarpTrace(0, insts)
    moved = trace.renumbered(7)
    assert moved.warp_id == 7
    assert moved.columns is trace.columns
    assert moved.decode() == trace.decode()


#: A trace file as ``save_kernel`` has written it since format 1.
FORMAT_1_DOCUMENT = {
    "format_version": 1,
    "name": "pinned",
    "max_resident_warps": 4,
    "warps": [
        {"id": 0, "instructions": [
            {"op": "IADD", "cls": "INT", "lat": 4, "dest": 1,
             "srcs": [0]},
            {"op": "LD", "cls": "LDST", "lat": 2, "dest": 2, "srcs": [1],
             "load": True, "line": 77, "space": "SHARED", "lanes": 7},
        ]},
        {"id": 1, "instructions": [
            {"op": "FFMA", "cls": "FP", "lat": 4, "dest": 3,
             "srcs": [1, 2]},
            {"op": "ST", "cls": "LDST", "lat": 2, "srcs": [3],
             "store": True, "line": 9, "space": "GLOBAL"},
        ]},
    ],
}


def test_format_1_document_still_loads():
    assert FORMAT_VERSION == 1
    kernel = kernel_from_dict(FORMAT_1_DOCUMENT)
    assert isinstance(kernel, KernelTrace)
    assert (kernel.name, kernel.max_resident_warps) == ("pinned", 4)
    assert [w.warp_id for w in kernel.warps] == [0, 1]
    assert kernel.warps[0].decode() == (
        int_op(dest=1, srcs=(0,)),
        Instruction(opcode="LD", op_class=OpClass.LDST, dest=2, srcs=(1,),
                    latency=2, is_load=True, mem_space=MemorySpace.SHARED,
                    line_addr=77, active_lanes=7))
    assert kernel.warps[1].decode() == (
        fp_op(dest=3, srcs=(1, 2), opcode="FFMA"),
        store_op(line_addr=9, srcs=(3,)))
