"""Warp and kernel trace containers.

A :class:`WarpTrace` is the full static instruction sequence one warp will
execute; a :class:`KernelTrace` bundles the traces of every warp in a
kernel launch together with launch metadata.  Traces are immutable once
built, so a single kernel trace can be replayed under every scheduling /
power-gating technique for an apples-to-apples comparison — exactly how
the paper compares techniques on identical benchmark runs.

A warp trace is stored as packed per-field columns, one ``bytes``
object, not as :class:`~repro.isa.instructions.Instruction` objects:
the 18 full-scale traces hold 95,392 instructions, which as objects
took 22 MB and pickled to 4.9 MB (2.2 MB and 1.3 MB as columns).
:meth:`WarpTrace.decode` turns a warp back into its instructions; the
SM decodes each warp when it launches
(:meth:`repro.sim.frontend.WarpContext.assign`), so only resident
warps hold objects.  :class:`WarpTraceBuilder` is the one
encoder, and it validates each instruction with the same
:func:`~repro.isa.instructions.check_fields` as the constructor.

Column layout, for ``n`` instructions reading ``m`` source registers
in all (byte offsets; the wide columns are little-endian)::

    [0n, 1n)   op class              [5n, 6n)   source count
    [1n, 2n)   opcode index          [6n, 8n)   latency (uint16)
    [2n, 3n)   flags: load | store<<1 | space<<2
    [3n, 4n)   dest (255: none)      [8n, 12n)  line address (uint32)
    [4n, 5n)   active lanes          [12n, 12n+m)  sources, in order

An opcode index below ``len(OPCODES)`` names an :data:`OPCODES`
mnemonic; the rest index the warp's own ``opcodes`` table.
"""

from __future__ import annotations

from dataclasses import dataclass
from struct import pack, unpack_from
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.isa.instructions import (
    Instruction,
    MAX_REGISTER,
    MemorySpace,
    check_fields,
)
from repro.isa.optypes import OpClass

#: Mnemonics every trace can name without a per-warp table: the ones
#: the trace generator emits.  Appending keeps stored traces valid;
#: any other edit changes what their opcode indices mean.
OPCODES: Tuple[str, ...] = (
    "IADD", "IMUL", "ISETP", "SHL", "AND",
    "FADD", "FMUL", "FFMA", "FSETP",
    "SIN", "COS", "RSQRT", "EX2",
    "LD", "ST",
)
_OPCODE_INDEX = {name: i for i, name in enumerate(OPCODES)}

#: The dest column's "no destination register".
NO_DEST = MAX_REGISTER + 1

_CLASSES = tuple(OpClass)
#: ``(is_load, is_store, mem_space)`` by flags byte.
_FLAG_FIELDS = tuple((bool(f & 1), bool(f & 2), MemorySpace(f >> 2))
                     for f in range(4 * len(MemorySpace)))


@dataclass(frozen=True, init=False)
class WarpTrace:
    """The static instruction sequence of one warp, as packed columns.

    ``WarpTrace(warp_id, instructions)`` encodes a sequence of
    instructions; :meth:`decode` returns them, equal field by field.

    Attributes:
        warp_id: Identifier unique within the kernel.
        length: Number of instructions.
        opcodes: Mnemonics this warp uses beyond :data:`OPCODES`.
        columns: The packed columns (see the module docstring).
    """

    warp_id: int
    length: int
    opcodes: Tuple[str, ...]
    columns: bytes

    def __init__(self, warp_id: int,
                 instructions: Iterable[Instruction]) -> None:
        builder = WarpTraceBuilder()
        for inst in instructions:
            builder.add(inst)
        self._set(warp_id, *builder._encoded())

    def _set(self, warp_id: int, length: int, opcodes: Tuple[str, ...],
             columns: bytes) -> None:
        object.__setattr__(self, "warp_id", warp_id)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "opcodes", opcodes)
        object.__setattr__(self, "columns", columns)

    @classmethod
    def _from_columns(cls, warp_id: int, length: int,
                      opcodes: Tuple[str, ...],
                      columns: bytes) -> "WarpTrace":
        """A trace over already-encoded columns (shared, not copied)."""
        trace = cls.__new__(cls)
        trace._set(warp_id, length, opcodes, columns)
        return trace

    def renumbered(self, warp_id: int) -> "WarpTrace":
        """The same instructions under another warp id."""
        return WarpTrace._from_columns(warp_id, self.length, self.opcodes,
                                       self.columns)

    def __len__(self) -> int:
        return self.length

    def decode(self) -> Tuple[Instruction, ...]:
        """This warp's instructions, equal to the ones encoded.

        The columns were validated when they were encoded, so each
        instruction gets its field dict directly instead of running the
        constructor's checks: about 1 µs per instruction, against 2.7 µs
        through the constructor.
        """
        n = self.length
        cols = self.columns
        names = OPCODES + self.opcodes
        classes = _CLASSES
        flag_fields = _FLAG_FIELDS
        srcs = cols[12 * n:]
        new = object.__new__
        set_fields = object.__setattr__
        out: List[Instruction] = []
        append = out.append
        k = 0
        for cls, opx, flags, dest, lanes, n_srcs, latency, line in zip(
                cols[:n], cols[n:2 * n], cols[2 * n:3 * n],
                cols[3 * n:4 * n], cols[4 * n:5 * n], cols[5 * n:6 * n],
                unpack_from(f"<{n}H", cols, 6 * n),
                unpack_from(f"<{n}I", cols, 8 * n)):
            is_load, is_store, space = flag_fields[flags]
            inst = new(Instruction)
            set_fields(inst, "__dict__", {
                "opcode": names[opx], "op_class": classes[cls],
                "dest": None if dest == NO_DEST else dest,
                "srcs": tuple(srcs[k:k + n_srcs]), "latency": latency,
                "is_load": is_load, "is_store": is_store,
                "mem_space": space, "line_addr": line,
                "active_lanes": lanes})
            append(inst)
            k += n_srcs
        return tuple(out)

    def op_class_counts(self) -> Dict[OpClass, int]:
        """Histogram of instruction types in this warp's trace."""
        classes = self.columns[:self.length]
        return {cls: classes.count(cls) for cls in OpClass}


class WarpTraceBuilder:
    """Encodes one warp's instructions, field by field, into columns.

    :meth:`append` takes an instruction's fields (the
    :class:`~repro.isa.instructions.Instruction` constructor's
    parameters), so a generator needs no instruction objects;
    :meth:`add` takes an instruction.  A value outside its column's
    range raises the constructor's ``ValueError``.
    """

    def __init__(self) -> None:
        self._classes = bytearray()
        self._opcodes = bytearray()
        self._flags = bytearray()
        self._dests = bytearray()
        self._lanes = bytearray()
        self._n_srcs = bytearray()
        self._latencies: List[int] = []
        self._lines: List[int] = []
        self._srcs = bytearray()
        #: Mnemonics beyond OPCODES, by their opcode index.
        self._extra: Dict[str, int] = {}

    def append(self, opcode: str, op_class: OpClass, dest=None,
               srcs: Sequence[int] = (), latency: int = 4,
               is_load: bool = False, is_store: bool = False,
               mem_space: MemorySpace = MemorySpace.GLOBAL,
               line_addr: int = 0, active_lanes: int = 32) -> None:
        """Encode one instruction given by its fields."""
        check_fields(op_class, dest, srcs, latency, is_load, is_store,
                     mem_space, line_addr, active_lanes)
        index = _OPCODE_INDEX.get(opcode)
        if index is None:
            index = self._extra.get(opcode)
            if index is None:
                index = len(OPCODES) + len(self._extra)
                if index > 0xFF:
                    raise ValueError("opcode: a warp trace names at most "
                                     f"{0x100 - len(OPCODES)} mnemonics "
                                     "beyond OPCODES")
                self._extra[opcode] = index
        self._classes.append(op_class)
        self._opcodes.append(index)
        self._flags.append(is_load | is_store << 1 | mem_space << 2)
        self._dests.append(NO_DEST if dest is None else dest)
        self._lanes.append(active_lanes)
        self._n_srcs.append(len(srcs))
        self._latencies.append(latency)
        self._lines.append(line_addr)
        self._srcs.extend(srcs)

    def add(self, inst: Instruction) -> None:
        """Encode one instruction."""
        self.append(inst.opcode, inst.op_class, inst.dest, inst.srcs,
                    inst.latency, inst.is_load, inst.is_store,
                    inst.mem_space, inst.line_addr, inst.active_lanes)

    def _encoded(self) -> Tuple[int, Tuple[str, ...], bytes]:
        """``(length, opcodes, columns)`` of everything appended."""
        n = len(self._classes)
        columns = b"".join((
            self._classes, self._opcodes, self._flags, self._dests,
            self._lanes, self._n_srcs,
            pack(f"<{n}H", *self._latencies),
            pack(f"<{n}I", *self._lines),
            self._srcs))
        return n, tuple(self._extra), columns

    def build(self, warp_id: int) -> WarpTrace:
        """The warp trace of everything appended so far."""
        return WarpTrace._from_columns(warp_id, *self._encoded())


@dataclass(frozen=True)
class KernelTrace:
    """A kernel launch: one trace per warp plus metadata.

    Attributes:
        name: Kernel / benchmark name (used in reports).
        warps: One :class:`WarpTrace` per warp, indexed by position.
        max_resident_warps: Hardware cap on concurrently resident warps
            per SM (48 on Fermi).  Warps beyond the cap launch as earlier
            warps retire, which is how successive thread blocks of a real
            kernel refill the SM.
    """

    name: str
    warps: Sequence[WarpTrace]
    max_resident_warps: int = 48

    def __post_init__(self) -> None:
        if not self.warps:
            raise ValueError("a kernel needs at least one warp")
        if self.max_resident_warps < 1:
            raise ValueError("max_resident_warps must be >= 1")
        ids = [w.warp_id for w in self.warps]
        if len(set(ids)) != len(ids):
            raise ValueError("warp ids must be unique within a kernel")

    @property
    def n_warps(self) -> int:
        """Total number of warps launched by the kernel."""
        return len(self.warps)

    @property
    def total_instructions(self) -> int:
        """Total dynamic instruction count across all warps."""
        return sum(len(w) for w in self.warps)

    def op_class_counts(self) -> Dict[OpClass, int]:
        """Kernel-wide histogram of instruction types."""
        counts = {cls: 0 for cls in OpClass}
        for warp in self.warps:
            for cls, n in warp.op_class_counts().items():
                counts[cls] += n
        return counts

    def op_class_mix(self) -> Dict[OpClass, float]:
        """Kernel-wide instruction-type fractions (sums to 1.0)."""
        counts = self.op_class_counts()
        total = sum(counts.values())
        if total == 0:
            return {cls: 0.0 for cls in OpClass}
        return {cls: n / total for cls, n in counts.items()}
