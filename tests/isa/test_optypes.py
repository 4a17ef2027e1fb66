"""Tests for operation classes and unit-kind mapping."""


from repro.isa.optypes import (
    ALL_OP_CLASSES,
    CUDA_CORE_CLASSES,
    UNIT_FOR_OP_CLASS,
    ExecUnitKind,
    OpClass,
)


class TestOpClass:
    def test_fits_in_two_bits(self):
        # GATES adds a two-bit type field per active-warp entry; the
        # encoding must actually fit.
        assert all(0 <= cls.value <= 3 for cls in OpClass)

    def test_values_unique(self):
        assert len({cls.value for cls in OpClass}) == len(OpClass)

    def test_short_names(self):
        assert OpClass.INT.short_name == "int"
        assert OpClass.FP.short_name == "fp"
        assert OpClass.SFU.short_name == "sfu"
        assert OpClass.LDST.short_name == "ldst"

    def test_all_op_classes_complete(self):
        assert set(ALL_OP_CLASSES) == set(OpClass)
        # The dense kernel keeps per-class counters in lists indexed by
        # int(op_class) and maps them back through ALL_OP_CLASSES.
        assert len(ALL_OP_CLASSES) == len(OpClass)
        for i in range(len(OpClass)):
            assert ALL_OP_CLASSES[i] is OpClass(i)


class TestUnitMapping:
    def test_every_class_has_a_unit(self):
        assert set(UNIT_FOR_OP_CLASS) == set(OpClass)

    def test_cuda_core_classes(self):
        assert CUDA_CORE_CLASSES == (OpClass.INT, OpClass.FP)
        for cls in CUDA_CORE_CLASSES:
            assert UNIT_FOR_OP_CLASS[cls] in (ExecUnitKind.INT,
                                              ExecUnitKind.FP)

    def test_mapping_is_identity_on_names(self):
        for cls in OpClass:
            assert UNIT_FOR_OP_CLASS[cls].name == cls.name
