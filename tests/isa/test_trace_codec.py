"""The trace columns' boundaries: one valid/invalid pair per column.

A warp trace packs each instruction field into a fixed-width column
(:mod:`repro.isa.trace`).  The :class:`Instruction` constructor and the
column encoder share one validation routine, so a value that does not
fit its column is refused by both with a ``ValueError`` naming the
field, never wrapped or raised as a bare ``OverflowError``.
"""

from dataclasses import replace

import pytest

from repro.isa.instructions import (
    Instruction,
    MAX_LATENCY,
    MAX_LINE_ADDR,
    MAX_REGISTER,
    MAX_SRCS,
    MemorySpace,
    int_op,
    load_op,
)
from repro.isa.optypes import OpClass
from repro.isa.trace import OPCODES, WarpTrace, WarpTraceBuilder

ALU = dict(opcode="IADD", op_class=OpClass.INT, dest=0)
LOAD = dict(opcode="LD", op_class=OpClass.LDST, dest=0, is_load=True)

#: (field, its largest valid value, the smallest value past it, base).
UPPER = [
    ("dest", MAX_REGISTER, MAX_REGISTER + 1, ALU),
    ("srcs", (MAX_REGISTER,), (MAX_REGISTER + 1,), ALU),
    ("srcs", (0,) * MAX_SRCS, (0,) * (MAX_SRCS + 1), ALU),
    ("latency", MAX_LATENCY, MAX_LATENCY + 1, ALU),
    ("active_lanes", 32, 33, ALU),
    ("line_addr", MAX_LINE_ADDR, MAX_LINE_ADDR + 1, LOAD),
]
#: (field, its smallest valid value, the largest value below it, base).
LOWER = [
    ("dest", 0, -1, ALU),
    ("srcs", (0,), (-1,), ALU),
    ("latency", 1, 0, ALU),
    ("active_lanes", 1, 0, ALU),
    ("line_addr", 0, -1, LOAD),
]
CASES = [pytest.param(f, ok, bad, base, id=f"{f}-{edge}")
         for edge, table in (("max", UPPER), ("min", LOWER))
         for f, ok, bad, base in table]


def encode(inst_fields):
    builder = WarpTraceBuilder()
    builder.append(**inst_fields)
    return builder.build(0)


@pytest.mark.parametrize("field, ok, bad, base", CASES)
def test_boundary_value_round_trips(field, ok, bad, base):
    inst = Instruction(**{**base, field: ok})
    assert WarpTrace(0, (inst,)).decode() == (inst,)
    assert encode({**base, field: ok}).decode() == (inst,)


@pytest.mark.parametrize("field, ok, bad, base", CASES)
def test_constructor_names_the_field(field, ok, bad, base):
    with pytest.raises(ValueError, match=field):
        Instruction(**{**base, field: bad})


@pytest.mark.parametrize("field, ok, bad, base", CASES)
def test_encoder_names_the_field(field, ok, bad, base):
    with pytest.raises(ValueError, match=field):
        encode({**base, field: bad})


@pytest.mark.parametrize("field, bad", [("op_class", 7), ("mem_space", 2)])
def test_enum_columns_refuse_unknown_members(field, bad):
    with pytest.raises(ValueError, match=field):
        Instruction(**{**LOAD, field: bad})
    with pytest.raises(ValueError, match=field):
        encode({**LOAD, field: bad})


def test_opcode_table_boundary():
    builder = WarpTraceBuilder()
    spare = 0x100 - len(OPCODES)
    for i in range(spare):
        builder.append(f"OP{i}", OpClass.INT, dest=0)
    trace = builder.build(0)
    assert [inst.opcode for inst in trace.decode()] == \
        [f"OP{i}" for i in range(spare)]
    builder.append("IADD", OpClass.INT, dest=0)  # a shared mnemonic fits
    with pytest.raises(ValueError, match="opcode"):
        builder.append("ONE_TOO_MANY", OpClass.INT, dest=0)


def test_absent_dest_and_spaces_survive():
    insts = (replace(int_op(dest=1), dest=None), int_op(dest=MAX_REGISTER),
             load_op(dest=2, line_addr=3, mem_space=MemorySpace.SHARED))
    decoded = WarpTrace(0, insts).decode()
    assert decoded == insts
    assert decoded[0].dest is None
    assert decoded[2].mem_space is MemorySpace.SHARED
