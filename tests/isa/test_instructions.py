"""Tests for the static instruction record and its constructors."""

import pytest

from repro.isa.instructions import (
    Instruction,
    MemorySpace,
    fp_op,
    int_op,
    load_op,
    sfu_op,
    store_op,
)
from repro.isa.optypes import OpClass


class TestValidation:
    def test_latency_must_be_positive(self):
        with pytest.raises(ValueError, match="latency"):
            Instruction(opcode="IADD", op_class=OpClass.INT, dest=0,
                        latency=0)

    def test_memory_requires_ldst_class(self):
        with pytest.raises(ValueError, match="LDST"):
            Instruction(opcode="LD", op_class=OpClass.INT, dest=0,
                        is_load=True)

    def test_load_requires_destination(self):
        with pytest.raises(ValueError, match="destination"):
            Instruction(opcode="LD", op_class=OpClass.LDST, dest=None,
                        is_load=True)

    def test_load_store_exclusive(self):
        with pytest.raises(ValueError, match="both"):
            Instruction(opcode="??", op_class=OpClass.LDST, dest=0,
                        is_load=True, is_store=True)

    def test_frozen(self):
        inst = int_op(dest=3)
        with pytest.raises(AttributeError):
            inst.dest = 4  # type: ignore[misc]


class TestRegisterSets:
    def test_alu_reads_and_writes(self):
        inst = int_op(dest=5, srcs=(1, 2))
        assert inst.srcs == (1, 2)
        assert inst.registers_written() == (5,)

    def test_store_writes_nothing(self):
        inst = store_op(line_addr=7, srcs=(3,))
        assert inst.registers_written() == ()
        assert inst.srcs == (3,)
        assert inst.is_mem and inst.is_store and not inst.is_load

    def test_load_is_memory(self):
        inst = load_op(dest=2, line_addr=9)
        assert inst.is_mem and inst.is_load and not inst.is_store
        assert inst.registers_written() == (2,)


class TestConstructors:
    def test_int_op_class(self):
        assert int_op(dest=0).op_class is OpClass.INT

    def test_fp_op_class(self):
        assert fp_op(dest=0).op_class is OpClass.FP

    def test_sfu_latency_default(self):
        inst = sfu_op(dest=0)
        assert inst.op_class is OpClass.SFU
        assert inst.latency == 16

    def test_default_alu_latency_matches_fermi(self):
        # The paper quotes GPGPU-Sim's 4-cycle add latency.
        assert int_op(dest=0).latency == 4
        assert fp_op(dest=0).latency == 4

    def test_shared_space(self):
        inst = load_op(dest=0, line_addr=1, mem_space=MemorySpace.SHARED)
        assert inst.mem_space is MemorySpace.SHARED

    def test_str_smoke(self):
        assert "IADD" in str(int_op(dest=1, srcs=(2,)))
