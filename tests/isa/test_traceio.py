"""Tests for kernel-trace serialisation."""

import json

import pytest

from repro.isa.instructions import (
    MemorySpace,
    fp_op,
    int_op,
    load_op,
    sfu_op,
    store_op,
)
from repro.isa.traceio import (
    FORMAT_VERSION,
    instruction_from_dict,
    instruction_to_dict,
    kernel_from_dict,
    kernel_to_dict,
    load_kernel,
    save_kernel,
)
from repro.workloads.registry import build_kernel


class TestInstructionRoundTrip:
    @pytest.mark.parametrize("inst", [
        int_op(dest=3, srcs=(1, 2)),
        fp_op(dest=0, latency=8),
        sfu_op(dest=5, srcs=(4,)),
        load_op(dest=2, line_addr=77, srcs=(1,)),
        load_op(dest=2, line_addr=5, mem_space=MemorySpace.SHARED),
        store_op(line_addr=9, srcs=(3,)),
    ])
    def test_round_trip_exact(self, inst):
        assert instruction_from_dict(instruction_to_dict(inst)) == inst

    def test_divergent_lanes_preserved(self):
        from dataclasses import replace
        inst = replace(int_op(dest=0), active_lanes=7)
        assert instruction_from_dict(instruction_to_dict(inst)) == inst

    def test_default_lanes_omitted(self):
        record = instruction_to_dict(int_op(dest=0))
        assert "lanes" not in record

    def test_unknown_class_rejected(self):
        record = instruction_to_dict(int_op(dest=0))
        record["cls"] = "VECTOR"
        with pytest.raises(ValueError, match="unknown op class"):
            instruction_from_dict(record)

    def test_corrupt_memory_record_rejected(self):
        record = instruction_to_dict(load_op(dest=2, line_addr=1))
        del record["dest"]
        with pytest.raises(ValueError):
            instruction_from_dict(record)


class TestKernelRoundTrip:
    def test_file_round_trip(self, tmp_path, tiny_kernel):
        path = tmp_path / "kernel.json"
        save_kernel(tiny_kernel, path)
        loaded = load_kernel(path)
        assert loaded.name == tiny_kernel.name
        assert loaded.max_resident_warps == tiny_kernel.max_resident_warps
        for a, b in zip(loaded.warps, tiny_kernel.warps):
            assert a.warp_id == b.warp_id
            assert a.decode() == b.decode()

    def test_generated_benchmark_round_trips(self, tmp_path):
        kernel = build_kernel("MUM", scale=0.1)  # divergent + memory
        path = tmp_path / "mum.json"
        save_kernel(kernel, path)
        loaded = load_kernel(path)
        assert loaded.total_instructions == kernel.total_instructions
        assert loaded.op_class_counts() == kernel.op_class_counts()
        for a, b in zip(loaded.warps, kernel.warps):
            assert a.decode() == b.decode()

    def test_version_checked(self, tiny_kernel):
        document = kernel_to_dict(tiny_kernel)
        document["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="format version"):
            kernel_from_dict(document)

    def test_document_is_plain_json(self, tiny_kernel):
        text = json.dumps(kernel_to_dict(tiny_kernel))
        assert json.loads(text)["name"] == "tiny"

    def test_loaded_kernel_simulates_identically(self, tmp_path):
        from repro.core.techniques import Technique, build_sm
        kernel = build_kernel("hotspot", scale=0.1)
        path = tmp_path / "h.json"
        save_kernel(kernel, path)
        loaded = load_kernel(path)
        r1 = build_sm(kernel,
                      Technique.WARPED_GATES).run()
        r2 = build_sm(loaded,
                      Technique.WARPED_GATES).run()
        assert r1.cycles == r2.cycles
        assert r1.pipeline_issues == r2.pipeline_issues
