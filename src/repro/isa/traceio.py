"""Kernel-trace serialisation (JSON).

A trace-driven simulator should be able to persist its traces: to share
a workload between machines, to pin an exact regression input, or to
hand-edit a kernel for a case study.  The format is a versioned JSON
document, one record per instruction, independent of the packed
columns a :class:`~repro.isa.trace.WarpTrace` holds in memory;
round-tripping is exact (tested property-style), and loading encodes
each record through :class:`~repro.isa.trace.WarpTraceBuilder`, which
validates it as the :class:`Instruction` constructor does, so a
corrupt file cannot build an unrepresentable trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.isa.instructions import Instruction, MemorySpace
from repro.isa.optypes import OpClass
from repro.isa.trace import KernelTrace, WarpTrace, WarpTraceBuilder

#: Format version written into every document.
FORMAT_VERSION = 1


def instruction_to_dict(inst: Instruction) -> Dict:
    """Serialise one instruction (omits default-valued fields)."""
    record: Dict = {
        "op": inst.opcode,
        "cls": inst.op_class.name,
        "lat": inst.latency,
    }
    if inst.dest is not None:
        record["dest"] = inst.dest
    if inst.srcs:
        record["srcs"] = list(inst.srcs)
    if inst.is_load:
        record["load"] = True
    if inst.is_store:
        record["store"] = True
    if inst.is_mem:
        record["line"] = inst.line_addr
        record["space"] = inst.mem_space.name
    if inst.active_lanes != 32:
        record["lanes"] = inst.active_lanes
    return record


def _fields_from_dict(record: Dict) -> Tuple:
    """One record's instruction fields, in constructor order."""
    try:
        op_class = OpClass[record["cls"]]
    except KeyError as exc:
        raise ValueError(f"unknown op class in trace file: {exc}") from None
    space = MemorySpace[record["space"]] if "space" in record \
        else MemorySpace.GLOBAL
    return (record["op"], op_class, record.get("dest"),
            tuple(record.get("srcs", ())), record["lat"],
            record.get("load", False), record.get("store", False), space,
            record.get("line", 0), record.get("lanes", 32))


def instruction_from_dict(record: Dict) -> Instruction:
    """Rebuild one instruction, validating via the constructor."""
    return Instruction(*_fields_from_dict(record))


def kernel_to_dict(kernel: KernelTrace) -> Dict:
    """Serialise a whole kernel trace."""
    return {
        "format_version": FORMAT_VERSION,
        "name": kernel.name,
        "max_resident_warps": kernel.max_resident_warps,
        "warps": [
            {"id": warp.warp_id,
             "instructions": [instruction_to_dict(i)
                              for i in warp.decode()]}
            for warp in kernel.warps
        ],
    }


def kernel_from_dict(document: Dict) -> KernelTrace:
    """Rebuild a kernel trace from its serialised form."""
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported trace format version {version!r} "
                         f"(this build reads {FORMAT_VERSION})")
    warps: List[WarpTrace] = []
    for entry in document["warps"]:
        builder = WarpTraceBuilder()
        for record in entry["instructions"]:
            builder.append(*_fields_from_dict(record))
        warps.append(builder.build(entry["id"]))
    return KernelTrace(name=document["name"], warps=warps,
                       max_resident_warps=document["max_resident_warps"])


def save_kernel(kernel: KernelTrace, path: Union[str, Path]) -> None:
    """Write a kernel trace as JSON."""
    Path(path).write_text(json.dumps(kernel_to_dict(kernel)),
                          encoding="utf-8")


def load_kernel(path: Union[str, Path]) -> KernelTrace:
    """Read a kernel trace written by :func:`save_kernel`."""
    return kernel_from_dict(
        json.loads(Path(path).read_text(encoding="utf-8")))
