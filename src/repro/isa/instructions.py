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
from typing import Optional, Tuple

from repro.isa.optypes import OpClass


class MemorySpace(enum.IntEnum):
    """Address space of a memory operation."""

    GLOBAL = 0
    SHARED = 1


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
        if self.latency < 1:
            raise ValueError(f"latency must be >= 1, got {self.latency}")
        if not 1 <= self.active_lanes <= 32:
            raise ValueError(
                f"active_lanes must be in 1..32, got {self.active_lanes}")
        if (self.is_load or self.is_store) and self.op_class is not OpClass.LDST:
            raise ValueError("memory instructions must be OpClass.LDST")
        if self.is_load and self.dest is None:
            raise ValueError("loads must have a destination register")
        if self.is_load and self.is_store:
            raise ValueError("an instruction cannot be both load and store")

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
