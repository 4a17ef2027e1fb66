"""Static instruction records.

An :class:`Instruction` is an entry in a warp's trace: everything the SM
front-end would know after decode.  Register operands are *architectural*
per-warp register indices; the scoreboard in :mod:`repro.sim.scoreboard`
tracks them at warp granularity, which matches the SIMT model where all 32
threads of a warp read/write the same architectural register.

Memory instructions carry a pre-generated line address so that trace
replay is deterministic: the synthetic trace generator decides the access
pattern once (per seed) and the cache model in :mod:`repro.sim.memory`
classifies hits and misses at run time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.isa.optypes import OpClass


class MemorySpace(enum.IntEnum):
    """Address space of a memory operation."""

    GLOBAL = 0
    SHARED = 1


#: Largest register index.  A trace stores each register in one byte
#: (:mod:`repro.isa.trace`) and keeps 255 for "no destination".
MAX_REGISTER = 254
#: Most source registers one instruction reads (a one-byte count).
MAX_SRCS = 255
#: Largest pipeline latency (two bytes per instruction in a trace).
MAX_LATENCY = 0xFFFF
#: Largest cache-line address (four bytes per instruction in a trace).
MAX_LINE_ADDR = 0xFFFFFFFF
#: Lanes of a warp, the most ``active_lanes`` can be.
WARP_LANES = 32

_OP_CLASSES = tuple(OpClass)
_SPACES = tuple(MemorySpace)


def check_fields(op_class: OpClass, dest: Optional[int],
                 srcs: Sequence[int], latency: int, is_load: bool,
                 is_store: bool, mem_space: MemorySpace, line_addr: int,
                 active_lanes: int) -> None:
    """Raise ``ValueError``, naming the field, if an instruction is invalid.

    The one statement of what an instruction may hold: the
    :class:`Instruction` constructor and the trace encoder
    (:class:`repro.isa.trace.WarpTraceBuilder`) both call it, so every
    valid instruction fits its trace columns.
    """
    if op_class not in _OP_CLASSES:
        raise ValueError(f"op_class must be an OpClass, got {op_class!r}")
    if mem_space not in _SPACES:
        raise ValueError(f"mem_space must be a MemorySpace, "
                         f"got {mem_space!r}")
    if not 1 <= latency <= MAX_LATENCY:
        raise ValueError(f"latency must be in 1..{MAX_LATENCY}, "
                         f"got {latency}")
    if not 1 <= active_lanes <= WARP_LANES:
        raise ValueError(f"active_lanes must be in 1..{WARP_LANES}, "
                         f"got {active_lanes}")
    if dest is not None and not 0 <= dest <= MAX_REGISTER:
        raise ValueError(f"dest must be None or a register in "
                         f"0..{MAX_REGISTER}, got {dest}")
    if len(srcs) > MAX_SRCS:
        raise ValueError(f"srcs holds at most {MAX_SRCS} registers, "
                         f"got {len(srcs)}")
    for src in srcs:
        if not 0 <= src <= MAX_REGISTER:
            raise ValueError(f"srcs must be registers in "
                             f"0..{MAX_REGISTER}, got {src}")
    if not 0 <= line_addr <= MAX_LINE_ADDR:
        raise ValueError(f"line_addr must be in 0..{MAX_LINE_ADDR}, "
                         f"got {line_addr}")
    if (is_load or is_store) and op_class is not OpClass.LDST:
        raise ValueError("memory instructions must be OpClass.LDST")
    if is_load and dest is None:
        raise ValueError("loads must have a destination register")
    if is_load and is_store:
        raise ValueError("an instruction cannot be both load and store")


@dataclass(frozen=True)
class Instruction:
    """One decoded warp instruction.

    Attributes:
        opcode: Mnemonic, informational only (``IADD``, ``FMUL``, ``LD``...).
        op_class: The two-bit instruction type used for scheduling and
            power-gating decisions.
        dest: Destination register index, or ``None`` for stores/branches.
        srcs: Source register indices.
        latency: Execution-pipeline latency in core cycles for ALU/SFU
            work.  For loads this covers only the LDST pipeline; memory
            latency is added by the memory model.
        is_load: True for memory reads (produce a value after the memory
            round trip and keep the warp in the *pending* set meanwhile).
        is_store: True for memory writes (fire-and-forget for the warp).
        mem_space: Address space for memory operations.
        line_addr: Cache-line-granular address for memory operations.
        active_lanes: SIMT lanes enabled by the divergence mask when the
            instruction executes (1..32).  Structural timing is
            unaffected (Fermi clocks the whole warp through the unit
            regardless), but dynamic energy scales with the active-lane
            fraction, the mask-activity effect GPUWattch models.
    """

    opcode: str
    op_class: OpClass
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = field(default=())
    latency: int = 4
    is_load: bool = False
    is_store: bool = False
    mem_space: MemorySpace = MemorySpace.GLOBAL
    line_addr: int = 0
    active_lanes: int = 32

    def __post_init__(self) -> None:
        check_fields(self.op_class, self.dest, self.srcs, self.latency,
                     self.is_load, self.is_store, self.mem_space,
                     self.line_addr, self.active_lanes)

    @property
    def is_mem(self) -> bool:
        """True for any instruction that touches memory."""
        return self.is_load or self.is_store

    def registers_written(self) -> Tuple[int, ...]:
        """Registers this instruction produces (empty for stores)."""
        return (self.dest,) if self.dest is not None else ()

    @property
    def lane_fraction(self) -> float:
        """Active-lane fraction (dynamic-energy weight of this issue)."""
        return self.active_lanes / 32.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dst = f"r{self.dest}" if self.dest is not None else "-"
        srcs = ", ".join(f"r{s}" for s in self.srcs)
        return f"{self.opcode} {dst} <- [{srcs}] ({self.op_class.name})"


# Convenience constructors ---------------------------------------------------
#
# These keep trace-building code (tests, the Figure 4 walkthrough, the
# generator) terse and uniform.

def int_op(dest: int, srcs: Tuple[int, ...] = (), latency: int = 4,
           opcode: str = "IADD") -> Instruction:
    """Build an integer ALU instruction."""
    return Instruction(opcode=opcode, op_class=OpClass.INT, dest=dest,
                       srcs=srcs, latency=latency)


def fp_op(dest: int, srcs: Tuple[int, ...] = (), latency: int = 4,
          opcode: str = "FADD") -> Instruction:
    """Build a floating-point ALU instruction."""
    return Instruction(opcode=opcode, op_class=OpClass.FP, dest=dest,
                       srcs=srcs, latency=latency)


def sfu_op(dest: int, srcs: Tuple[int, ...] = (), latency: int = 16,
           opcode: str = "SIN") -> Instruction:
    """Build a special-function instruction (sin/cos/rsqrt...)."""
    return Instruction(opcode=opcode, op_class=OpClass.SFU, dest=dest,
                       srcs=srcs, latency=latency)


def load_op(dest: int, line_addr: int, srcs: Tuple[int, ...] = (),
            mem_space: MemorySpace = MemorySpace.GLOBAL,
            latency: int = 2, opcode: str = "LD") -> Instruction:
    """Build a load; ``latency`` is the LDST pipeline latency only."""
    return Instruction(opcode=opcode, op_class=OpClass.LDST, dest=dest,
                       srcs=srcs, latency=latency, is_load=True,
                       mem_space=mem_space, line_addr=line_addr)


def store_op(line_addr: int, srcs: Tuple[int, ...] = (),
             mem_space: MemorySpace = MemorySpace.GLOBAL,
             latency: int = 2, opcode: str = "ST") -> Instruction:
    """Build a store; the issuing warp does not wait for completion."""
    return Instruction(opcode=opcode, op_class=OpClass.LDST, dest=None,
                       srcs=srcs, latency=latency, is_store=True,
                       mem_space=mem_space, line_addr=line_addr)
