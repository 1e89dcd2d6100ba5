"""The versioned binary trace format and its streaming reader/writer.

A trace file captures the *committed* instruction stream of one workload
exactly as the engines consumed it, so replaying it reproduces every
counter and energy bit for bit.  The layout (all integers little-endian):

```
file      := preamble segment* TAG_END_TRACE
preamble  := magic(8) version(u16) flags(u16) hlen(u32) header(hlen bytes)
segment   := TAG_SEGMENT mlen(u32) meta(mlen bytes) item* TAG_END_SEGMENT
item      := TAG_STATIC static | TAG_STEP step
static    := address(u32) op(u8) rd(u8) rs(u8) rt(u8) imm(i32)
             target(u32, 0xFFFFFFFF = none) flags(u8)
step      := index(u32) aux
aux       := taken(u8)      -- conditional branches
           | next_pc(u32)   -- indirect jumps/calls
           | mem_addr(u32)  -- loads/stores
           | ''             -- everything else
```

``header`` and ``meta`` are UTF-8 JSON.  The header records how the
trace was made (workload name, instruction window, page size); each
segment's meta records which binary it captures (``plain`` or
``instrumented``) and the program geometry replay needs to rebuild the
address space (text/data extents, entry point — frame allocation is
deterministic given those, see :mod:`repro.vm.page_table`).

Static entries define the distinct instructions of the stream in first-
execution order; step records reference them by index, carrying only the
dynamic facts the instruction itself cannot supply.  ``op`` is the
declaration index in :class:`~repro.isa.instructions.Opcode` — reordering
that enum is a format break and requires a :data:`TRACE_VERSION` bump
(the golden-trace regression test pins this).

Files whose name ends in ``.gz`` are written gzip-compressed (with a
zeroed mtime, so identical streams produce identical bytes — the
property :attr:`JobSpec.workload_digest` content-addressing relies on);
the reader sniffs the gzip magic instead of trusting the suffix.  Every
read-side failure — bad magic, unsupported version, truncation, corrupt
gzip, dangling step index — raises :class:`~repro.errors.TraceError`.

Versioning rules: ``TRACE_VERSION`` is bumped whenever the preamble,
tag set, record layouts, or opcode numbering change incompatibly; the
reader rejects every version it was not built for.  Additive metadata
(new header/meta JSON keys) is *not* a version bump — readers ignore
keys they do not know.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import struct
import sys
import time
import zlib
from array import array
from collections import OrderedDict
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import TraceError
from repro.isa.instructions import ANALYZABLE_KINDS, Instruction, Opcode
from repro.isa.registers import FP_REG_COUNT, INT_REG_COUNT

MAGIC = b"RITLBTRC"
TRACE_VERSION = 1

TAG_SEGMENT = 0x01
TAG_STATIC = 0x02
TAG_STEP = 0x03
TAG_END_SEGMENT = 0x04
TAG_END_TRACE = 0x05

_PREAMBLE = struct.Struct("<8sHHI")
_STATIC = struct.Struct("<IBBBBiIB")
_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_STEP = struct.Struct("<BI")  #: a step's tag and static index
_NO_TARGET = 0xFFFFFFFF

#: operand bytes index the integer or the FP register file
_REG_COUNT = min(INT_REG_COUNT, FP_REG_COUNT)

_STATIC_FLAG_INPAGE = 0x01
_STATIC_FLAG_BOUNDARY = 0x02

#: opcode <-> wire number (enum declaration order; part of the format)
_OP_TO_NUM: Dict[Opcode, int] = {op: i for i, op in enumerate(Opcode)}
_NUM_TO_OP: Dict[int, Opcode] = {i: op for op, i in _OP_TO_NUM.items()}

#: aux payload discriminator, derived from the static entry's kind
AUX_NONE, AUX_TAKEN, AUX_NEXT_PC, AUX_MEM_ADDR = 0, 1, 2, 3


def aux_kind(kind_code: int) -> int:
    """Which dynamic payload a step record of this instruction kind
    carries (the record layout is derived, not stored)."""
    if kind_code == 8:  # COND_BRANCH
        return AUX_TAKEN
    if kind_code in (11, 12):  # INDIRECT_JUMP / INDIRECT_CALL
        return AUX_NEXT_PC
    if kind_code in (6, 7):  # LOAD / STORE
        return AUX_MEM_ADDR
    return AUX_NONE


def step_aux(kind: int, step) -> int:
    """The dynamic payload one committed step contributes to its record
    (``kind`` is :func:`aux_kind` of the step's instruction): the branch
    outcome as 0/1, the indirect target, the memory address, or -1 when
    the instruction itself supplies everything.  Written to disk by
    :meth:`TraceWriter.write_step` and kept in memory by
    :func:`repro.trace.record.capture_segment` and the importers'
    ``MemorySink`` — one definition of a record for all three."""
    if kind == AUX_TAKEN:
        return 1 if step.taken else 0
    if kind == AUX_NEXT_PC:
        return step.next_pc
    if kind == AUX_MEM_ADDR:
        return step.mem_addr
    return -1


def trace_exhausted(steps: int) -> TraceError:
    """The error for a replay window longer than its recorded stream
    (``steps`` records were consumed before the stream ran out)."""
    return TraceError(
        f"trace exhausted after {steps:,} steps; the requested "
        "simulation window (warmup + instructions) is longer than the "
        "recorded one — re-record with a larger window")


def program_meta(program) -> dict:
    """The segment metadata replay needs: which binary this is, plus the
    program geometry that makes :class:`~repro.vm.os_model.AddressSpace`
    construction (and therefore frame allocation) deterministic."""
    return {
        "binary": "instrumented" if program.instrumented else "plain",
        "name": program.name,
        "text_base": program.text_base,
        "text_words": len(program.instructions),
        "data_base": program.data_base,
        "data_size": program.data_size,
        "entry": program.entry,
        "page_bytes": program.page_bytes,
        "instrumented": program.instrumented,
        "boundary_branch_count": program.boundary_branch_count,
    }


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


class TraceWriter:
    """Streaming trace writer (one pass, constant memory).

    Use as a context manager; :meth:`begin_segment` opens a segment for
    each binary pass and :meth:`write_step` appends one committed
    :class:`~repro.cpu.functional.StepResult`, interning its instruction
    into the segment's static table on first sight.
    """

    def __init__(self, path: Union[str, Path], *, header: dict) -> None:
        self.path = Path(path)
        try:
            raw = open(self.path, "wb")
        except OSError as exc:
            raise TraceError(
                f"cannot write trace {self.path}: {exc}") from exc
        if self.path.name.endswith(".gz"):
            # zeroed mtime + no filename: identical streams -> identical
            # bytes, so re-recording an unchanged workload keeps its
            # content digest (and every cache key derived from it)
            self._fh = gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                                     mtime=0)
            self._raw = raw
        else:
            self._fh = raw
            self._raw = None
        self.steps_written = 0
        self.segments_written = 0
        self._in_segment = False
        self._intern: Dict[int, int] = {}
        self._statics = 0
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        self._fh.write(_PREAMBLE.pack(MAGIC, TRACE_VERSION, 0,
                                      len(header_bytes)))
        self._fh.write(header_bytes)

    # -- segments ------------------------------------------------------

    def begin_segment(self, meta: dict) -> None:
        if self._in_segment:
            self.end_segment()
        meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
        self._fh.write(_U8.pack(TAG_SEGMENT))
        self._fh.write(_U32.pack(len(meta_bytes)))
        self._fh.write(meta_bytes)
        self._in_segment = True
        self._intern = {}
        self._statics = 0
        self.segments_written += 1

    def end_segment(self) -> None:
        if self._in_segment:
            self._fh.write(_U8.pack(TAG_END_SEGMENT))
            self._in_segment = False

    # -- records -------------------------------------------------------

    def _intern_instruction(self, instr: Instruction) -> int:
        index = self._statics
        flags = ((_STATIC_FLAG_INPAGE if instr.inpage_hint else 0)
                 | (_STATIC_FLAG_BOUNDARY if instr.is_boundary_branch else 0))
        target = _NO_TARGET if instr.target is None else instr.target
        self._fh.write(_U8.pack(TAG_STATIC))
        self._fh.write(_STATIC.pack(instr.address, _OP_TO_NUM[instr.op],
                                    instr.rd, instr.rs, instr.rt,
                                    instr.imm, target, flags))
        self._intern[id(instr)] = index
        self._statics = index + 1
        return index

    def write_step(self, step) -> None:
        """Append one committed step (a
        :class:`~repro.cpu.functional.StepResult`)."""
        if not self._in_segment:
            raise TraceError("write_step outside a segment "
                             "(call begin_segment first)")
        instr = step.instr
        index = self._intern.get(id(instr))
        if index is None:
            index = self._intern_instruction(instr)
        self._fh.write(_U8.pack(TAG_STEP))
        self._fh.write(_U32.pack(index))
        kind = aux_kind(instr.kind_code)
        aux = step_aux(kind, step)
        if kind == AUX_TAKEN:
            self._fh.write(_U8.pack(aux))
        elif kind != AUX_NONE:
            self._fh.write(_U32.pack(aux))
        self.steps_written += 1

    def write_segment(self, segment: "TraceSegment") -> None:
        """Append one whole committed segment: its meta, then every
        record, each static entry written just before its first step —
        the bytes :meth:`begin_segment` plus one :meth:`write_step` per
        step would produce."""
        self.begin_segment(segment.meta)
        instrs = segment.instructions
        aux_kinds: Dict[int, int] = {}  #: source index -> aux kind
        written: Dict[int, int] = {}  #: source index -> written index
        pending = bytearray()
        for index, aux in segment.records:
            kind = aux_kinds.get(index)
            if kind is None:
                self._fh.write(pending)  # steps so far precede the static
                pending.clear()
                instr = instrs[index]
                written[index] = self._intern_instruction(instr)
                kind = aux_kinds[index] = aux_kind(instr.kind_code)
            pending += _STEP.pack(TAG_STEP, written[index])
            if kind == AUX_TAKEN:
                pending += _U8.pack(aux)
            elif kind != AUX_NONE:
                pending += _U32.pack(aux)
        self._fh.write(pending)
        self.steps_written += len(segment.records)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._fh is None:
            return
        self.end_segment()
        self._fh.write(_U8.pack(TAG_END_TRACE))
        self._fh.close()
        if self._raw is not None:
            self._raw.close()
        self._fh = None

    def abort(self) -> None:
        """Discard the output: close without finalizing and delete the
        partial file.  A recording that died mid-run must not leave a
        well-formed-looking trace whose header promises a window it
        never captured."""
        if self._fh is None:
            return
        try:
            self._fh.close()
        except OSError:
            pass
        if self._raw is not None:
            try:
                self._raw.close()
            except OSError:
                pass
        self._fh = None
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


#: kind codes whose steps carry no event the engines must react to — no
#: control transfer, no memory access, no halt.  Maximal runs of these
#: are what the fast engine retires in bulk.
PLAIN_KINDS = frozenset({0, 1, 2, 3, 4, 5, 13})

#: :attr:`SegmentColumns.flags` bits (per step)
COL_FLAG_BOUNDARY = 0x01  #: compiler-inserted page-boundary branch
COL_FLAG_INPAGE = 0x02    #: SoLA in-page hint
COL_FLAG_CVTIF = 0x04     #: Opcode.CVTIF (FP op reading the int file)
COL_FLAG_CVTFI = 0x08     #: Opcode.CVTFI (FP op writing the int file)
COL_FLAG_FLW = 0x10       #: Opcode.FLW (load filling the FP file)
COL_FLAG_FSW = 0x20       #: Opcode.FSW (store reading the FP file)

#: decoded-column footprint of one step record: 11 parallel ``array('q')``
#: slots of 8 bytes each.  Window budgets (``REPRO_TRACE_WINDOW``, the
#: byte-budgeted LRU) are stated in these bytes because the columns are
#: what actually occupies memory during a replay.
COLUMN_BYTES_PER_STEP = 88


class _StaticTables:
    """Per-static lookup tables, grown incrementally.

    The column fill loop needs eight facts per interned instruction
    (address, kind, operands, latency, flag bits, taken target).  An
    eager decode builds them once for the whole segment; a streaming
    decode appends as new statics arrive — statics always precede their
    first referencing step, so tables extended through the end of a
    window cover every record in it.  Lists only ever append, so column
    views built against an earlier length stay valid.
    """

    __slots__ = ("pc", "kind", "rs", "rt", "rd", "lat", "flags", "target")

    def __init__(self) -> None:
        self.pc: List[int] = []
        self.kind: List[int] = []
        self.rs: List[int] = []
        self.rt: List[int] = []
        self.rd: List[int] = []
        self.lat: List[int] = []
        self.flags: List[int] = []
        self.target: List[int] = []

    def extend(self, instrs: List[Instruction]) -> None:
        """Ingest every instruction past the already-tabled prefix."""
        for instr in instrs[len(self.pc):]:
            self.pc.append(instr.address)
            self.kind.append(instr.kind_code)
            self.rs.append(instr.rs)
            self.rt.append(instr.rt)
            self.rd.append(instr.rd)
            self.lat.append(instr.latency)
            flag = 0
            if instr.is_boundary_branch:
                flag |= COL_FLAG_BOUNDARY
            if instr.inpage_hint:
                flag |= COL_FLAG_INPAGE
            op = instr.op
            if op is Opcode.CVTIF:
                flag |= COL_FLAG_CVTIF
            elif op is Opcode.CVTFI:
                flag |= COL_FLAG_CVTFI
            elif op is Opcode.FLW:
                flag |= COL_FLAG_FLW
            elif op is Opcode.FSW:
                flag |= COL_FLAG_FSW
            self.flags.append(flag)
            self.target.append(
                -1 if instr.target is None else instr.target)


class SegmentColumns:
    """Decode-once flat-array view of one segment's dynamic stream.

    Parallel ``array('q')`` columns, one slot per step record, in stream
    order — everything the fast engine's column loop consumes without
    touching :class:`~repro.isa.instructions.Instruction` objects or
    allocating :class:`~repro.cpu.functional.StepResult`\\ s:

    ``pc``        byte address of the step's instruction
    ``next_pc``   resolved successor (taken target, fall-through, or the
                  recorded indirect destination; the pc itself for HALT)
    ``kind``      :class:`~repro.isa.instructions.InstrKind` as an int
    ``aux``       the step's recorded payload: taken flag (conditional
                  branches), next pc (indirect control), memory address
                  (loads/stores), else ``-1``
    ``rs/rt/rd``  register operand indices
    ``latency``   the opcode's execute latency
    ``flags``     :data:`COL_FLAG_BOUNDARY` / :data:`COL_FLAG_INPAGE` /
                  :data:`COL_FLAG_CVTIF` / :data:`COL_FLAG_CVTFI` /
                  :data:`COL_FLAG_FLW` / :data:`COL_FLAG_FSW`
    ``index``     the step's static-table index (recovers the
                  ``Instruction`` object on the slow, per-event path)
    ``run``       length of the maximal run of *plain* steps (kind in
                  :data:`PLAIN_KINDS`) starting at this slot — the
                  engine's run-length fast path consumes this many
                  steps without per-step event checks.  In a windowed
                  view runs are truncated at the window end; the
                  engine's slow path retires a plain record identically
                  to the fast path, so the truncation is invisible in
                  the results (the streaming bit-identity suite pins
                  this).

    Columns are immutable once built and safe to share across engines
    (and, via the trace LRU, across jobs in one process).

    Built from a batch of records (a whole decoded segment, or one
    streamed window) and :class:`_StaticTables` covering their statics.
    """

    __slots__ = ("pc", "next_pc", "kind", "aux", "rs", "rt", "rd",
                 "latency", "flags", "index", "run", "steps")

    def __init__(self, tables: _StaticTables,
                 records: List[Tuple[int, int]]) -> None:
        s_pc = tables.pc
        s_kind = tables.kind
        s_rs = tables.rs
        s_rt = tables.rt
        s_rd = tables.rd
        s_lat = tables.lat
        s_flags = tables.flags
        s_target = tables.target

        n = len(records)
        self.steps = n
        pc = array("q", bytes(8 * n))
        next_pc = array("q", bytes(8 * n))
        kind = array("q", bytes(8 * n))
        aux_col = array("q", bytes(8 * n))
        rs = array("q", bytes(8 * n))
        rt = array("q", bytes(8 * n))
        rd = array("q", bytes(8 * n))
        latency = array("q", bytes(8 * n))
        flags = array("q", bytes(8 * n))
        index = array("q", bytes(8 * n))
        run = array("q", bytes(8 * n))
        for i, (idx, aux) in enumerate(records):
            a = s_pc[idx]
            k = s_kind[idx]
            pc[i] = a
            kind[i] = k
            aux_col[i] = aux
            rs[i] = s_rs[idx]
            rt[i] = s_rt[idx]
            rd[i] = s_rd[idx]
            latency[i] = s_lat[idx]
            flags[i] = s_flags[idx]
            index[i] = idx
            if k == 8:  # COND_BRANCH: recorded direction picks the successor
                next_pc[i] = s_target[idx] if aux else a + 4
            elif k in (9, 10):  # JUMP / CALL: static target
                next_pc[i] = s_target[idx]
            elif k in (11, 12):  # indirect: recorded target
                next_pc[i] = aux
            elif k == 14:  # HALT
                next_pc[i] = a
            else:
                next_pc[i] = a + 4
        # run lengths, computed backward: run[i] counts the consecutive
        # plain steps starting at i (0 when step i itself is an event)
        plain = PLAIN_KINDS
        streak = 0
        for i in range(n - 1, -1, -1):
            streak = streak + 1 if kind[i] in plain else 0
            run[i] = streak
        self.pc = pc
        self.next_pc = next_pc
        self.kind = kind
        self.aux = aux_col
        self.rs = rs
        self.rt = rt
        self.rd = rd
        self.latency = latency
        self.flags = flags
        self.index = index
        self.run = run

    def nbytes(self) -> int:
        """Total size of the column arrays (diagnostics)."""
        return sum(getattr(self, name).itemsize * len(getattr(self, name))
                   for name in ("pc", "next_pc", "kind", "aux", "rs", "rt",
                                "rd", "latency", "flags", "index", "run"))


class TraceWindow:
    """One bounded batch of a segment's step records.

    ``records`` is the raw ``(static index, aux)`` batch and
    ``instructions`` the statics its indices point into (while a stream
    decodes, one list that grows in place, so indices in earlier
    windows stay valid).  :meth:`columns` builds — and memoizes — the
    flat-array view lazily, so a reader of the records alone
    (re-recording a replay) never pays for columns.
    """

    __slots__ = ("records", "instructions", "_build", "_columns")

    def __init__(self, records: List[Tuple[int, int]],
                 instructions: List[Instruction],
                 build: Callable[[], SegmentColumns]) -> None:
        self.records = records
        self.instructions = instructions
        self._build = build
        self._columns: Optional[SegmentColumns] = None

    def columns(self) -> SegmentColumns:
        if self._columns is None:
            self._columns = self._build()
        return self._columns


@dataclass
class TraceSegment:
    """One fully-decoded binary pass of a trace."""

    meta: dict
    #: interned static instructions, in first-execution order
    instructions: List[Instruction] = field(default_factory=list)
    #: dynamic stream: (static index, aux payload; -1 when none)
    records: List[Tuple[int, int]] = field(default_factory=list)
    #: memoized flat-array view (built on first :meth:`columns` call)
    _columns: Optional[SegmentColumns] = field(
        default=None, repr=False, compare=False)

    @property
    def binary(self) -> str:
        return self.meta.get("binary", "plain")

    @property
    def page_bytes(self) -> int:
        return self.meta["page_bytes"]

    def columns(self) -> SegmentColumns:
        """The decode-once flat-array view of this segment's stream.

        Built on first use and memoized on the segment, so every engine
        pass (and every sweep job sharing this segment through the trace
        LRU) reuses one set of arrays."""
        if self._columns is None:
            tables = _StaticTables()
            tables.extend(self.instructions)
            self._columns = SegmentColumns(tables, self.records)
        return self._columns

    def window_source(self) -> Iterator[TraceWindow]:
        """The uniform decode seam: every engine consumes a segment as
        a generator of :class:`TraceWindow`\\ s, and closes it when its
        pass ends.  A decoded segment is one window backed by the
        memoized columns: no re-parse, no copies."""
        yield TraceWindow(self.records, self.instructions, self.columns)

    def describe(self) -> str:
        return (f"{self.binary}: {len(self.records):,} steps over "
                f"{len(self.instructions):,} distinct instructions "
                f"({self.meta.get('name', '?')}, "
                f"{self.page_bytes}-byte pages)")


@dataclass
class TraceFile:
    """A trace: creation header plus one segment per binary, each a
    decoded :class:`TraceSegment` or, when streamed, a file-backed
    :class:`StreamSegment`."""

    path: Path
    header: dict
    segments: List[Union[TraceSegment, "StreamSegment"]]

    @property
    def workload_name(self) -> str:
        return self.header.get("workload", str(self.path))

    def segment_for(self, *, instrumented: bool, page_bytes: int
                    ) -> Union[TraceSegment, "StreamSegment"]:
        wanted = "instrumented" if instrumented else "plain"
        for segment in self.segments:
            if (segment.binary == wanted
                    and segment.page_bytes == page_bytes):
                return segment
        have = ", ".join(
            f"{s.binary}@{s.page_bytes}B" for s in self.segments) or "none"
        raise TraceError(
            f"{self.path}: no {wanted} segment for {page_bytes}-byte pages "
            f"(trace contains: {have}); re-record the trace for this "
            "configuration")


def _open_trace(path: Path):
    """Open ``path`` for reading, sniffing the gzip magic; returns
    ``(fh, raw)`` where ``raw`` is the underlying file when wrapped."""
    try:
        raw = open(path, "rb")
    except OSError as exc:
        raise TraceError(f"cannot open trace {path}: {exc}") from exc
    head = raw.read(2)
    raw.seek(0)
    if head == b"\x1f\x8b":
        return gzip.GzipFile(fileobj=raw, mode="rb"), raw
    return raw, None


def _decode_static(buf: bytes, offset: int, path: Path) -> Instruction:
    address, opnum, rd, rs, rt, imm, target, flags = _STATIC.unpack_from(
        buf, offset)
    op = _NUM_TO_OP.get(opnum)
    if op is None:
        raise TraceError(f"{path}: unknown opcode number {opnum}")
    if max(rd, rs, rt) >= _REG_COUNT:
        # the engines index their register files with these bytes
        raise TraceError(
            f"{path}: instruction ({op.mnemonic}) at {address:#010x} "
            f"names register {max(rd, rs, rt)}; the ISA has {_REG_COUNT}")
    if op.kind in ANALYZABLE_KINDS and target == _NO_TARGET:
        # direct control flow must carry its taken target or replay
        # would produce a None next_pc deep inside the engine
        raise TraceError(
            f"{path}: direct control instruction "
            f"({op.mnemonic}) at {address:#010x} has no target")
    return Instruction(
        op, rd=rd, rs=rs, rt=rt, imm=imm,
        target=None if target == _NO_TARGET else target,
        inpage_hint=bool(flags & _STATIC_FLAG_INPAGE),
        is_boundary_branch=bool(flags & _STATIC_FLAG_BOUNDARY),
        address=address)


#: the longest segment item: a static's tag plus its entry
_MAX_ITEM = 1 + _STATIC.size

#: decompressed bytes a windowed reader refills at a time
_CHUNK_BYTES = 1 << 16

#: record limit of a parse that runs to the segment's end
_NO_LIMIT = sys.maxsize


def _parse_items(buf: bytes, pos: int, stop: int,
                 instrs: List[Instruction], aux_kinds: List[int],
                 records: List[Tuple[int, int]], limit: int,
                 path: Path) -> Tuple[int, bool]:
    """The one item parser: every decode, eager or windowed, runs it.

    Parses one segment's items from ``buf`` starting at ``pos``:
    statics append to ``instrs`` (their aux kinds to ``aux_kinds``),
    steps append ``(static index, aux)`` to ``records``.  Stops after
    ``TAG_END_SEGMENT``, before a step once ``records`` holds ``limit``
    records, or at the first item starting at or past ``stop``.
    Returns ``(pos, ended)``: where parsing stopped and whether the end
    marker was consumed.  The caller puts ``stop`` one maximal item
    short of the bytes it holds, or at the end of the file, so only an
    item cut off by the end of the file can overrun ``buf``.
    """
    append = records.append
    unpack_u32 = _U32.unpack_from
    while pos < stop:
        tag = buf[pos]
        if tag == TAG_STEP:
            if len(records) >= limit:
                break
            (index,) = unpack_u32(buf, pos + 1)
            if index >= len(aux_kinds):
                raise TraceError(
                    f"{path}: step references static entry "
                    f"{index} before its definition")
            kind = aux_kinds[index]
            if kind == AUX_NONE:
                append((index, -1))
                pos += 5
            elif kind == AUX_TAKEN:
                append((index, buf[pos + 5]))
                pos += 6
            else:
                append((index, unpack_u32(buf, pos + 5)[0]))
                pos += 9
        elif tag == TAG_STATIC:
            instr = _decode_static(buf, pos + 1, path)
            instrs.append(instr)
            aux_kinds.append(aux_kind(instr.kind_code))
            pos += _MAX_ITEM
        elif tag == TAG_END_SEGMENT:
            return pos + 1, True
        elif tag == TAG_END_TRACE:
            raise TraceError(f"{path}: unterminated segment")
        else:
            raise TraceError(f"{path}: unknown record tag {tag:#x}")
    return pos, False


class _TraceStream:
    """One forward read of a trace file: its preamble, then segment
    metas and items as the caller asks for them.

    ``chunk`` bounds the decompressed bytes held at once.  ``None``
    gunzips the whole file up front (the eager read).  A byte count
    refills that much whenever the parser nears the end of what it
    holds, so a windowed reader holds one chunk plus less than one
    item.  Truncation and corruption raise :class:`TraceError`.
    """

    def __init__(self, path: Path, chunk: Optional[int]) -> None:
        self.path = path
        self._chunk = -1 if chunk is None else chunk
        self._buf = b""
        self._pos = 0
        self._eof = False
        self._fh, self._raw = _open_trace(path)
        try:
            self.header = self._preamble()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self._fh is None:
            return
        self._fh.close()
        if self._raw is not None:
            self._raw.close()
        self._fh = None

    def _fill(self, need: int) -> None:
        """Hold at least ``need`` unparsed bytes, unless the file ends
        first."""
        while len(self._buf) - self._pos < need and not self._eof:
            try:
                data = self._fh.read(self._chunk)
            except (OSError, EOFError, zlib.error) as exc:
                raise TraceError(
                    f"{self.path}: corrupt trace stream ({exc})") from exc
            self._buf = self._buf[self._pos:] + data
            self._pos = 0
            self._eof = not data or self._chunk < 0

    def _take(self, count: int, what: str) -> bytes:
        self._fill(count)
        pos = self._pos
        data = self._buf[pos:pos + count]
        if len(data) != count:
            raise TraceError(
                f"{self.path}: truncated trace (wanted {count} bytes of "
                f"{what}, got {len(data)})")
        self._pos = pos + count
        return data

    def _json(self, length: int, what: str) -> dict:
        raw = self._take(length, what)
        try:
            value = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceError(
                f"{self.path}: corrupt {what} block ({exc})") from exc
        if not isinstance(value, dict):
            raise TraceError(f"{self.path}: {what} block is not an object")
        return value

    def _preamble(self) -> dict:
        magic, version, _flags, hlen = _PREAMBLE.unpack(
            self._take(_PREAMBLE.size, "preamble"))
        if magic != MAGIC:
            raise TraceError(
                f"{self.path}: not a repro trace (bad magic {magic!r})")
        if version != TRACE_VERSION:
            raise TraceError(
                f"{self.path}: unsupported trace version {version} "
                f"(this build reads version {TRACE_VERSION})")
        return self._json(hlen, "header")

    def next_segment(self) -> Optional[dict]:
        """Consume the next segment's tag and meta and return the meta,
        or ``None`` once ``TAG_END_TRACE`` is reached."""
        tag = self._take(1, "record tag")[0]
        if tag == TAG_END_TRACE:
            return None
        if tag != TAG_SEGMENT:
            raise TraceError(
                f"{self.path}: record tag {tag:#x} outside a segment")
        (mlen,) = _U32.unpack(self._take(4, "segment meta size"))
        return self._json(mlen, "segment meta")

    def parse(self, instrs: List[Instruction], aux_kinds: List[int],
              records: List[Tuple[int, int]],
              limit: int = _NO_LIMIT) -> bool:
        """Refill, then run :func:`_parse_items` over the held bytes;
        ``True`` once the segment's end marker is consumed."""
        self._fill(_MAX_ITEM)
        buf = self._buf
        end = len(buf)
        try:
            self._pos, ended = _parse_items(
                buf, self._pos, end if self._eof else end - _MAX_ITEM + 1,
                instrs, aux_kinds, records, limit, self.path)
        except (struct.error, IndexError) as exc:
            raise TraceError(
                f"{self.path}: truncated trace (last item cut off: "
                f"{exc})") from None
        if not ended and self._eof and self._pos >= end:
            raise TraceError(
                f"{self.path}: truncated trace (segment has no end marker)")
        return ended

    def drop_segment(self) -> None:
        """Parse past the current segment, dropping each chunk's
        records."""
        instrs: List[Instruction] = []
        aux_kinds: List[int] = []
        records: List[Tuple[int, int]] = []
        while not self.parse(instrs, aux_kinds, records):
            records.clear()


class TraceReader:
    """Decode a trace file whole.  :meth:`read` returns every segment's
    statics and records; :meth:`info` summarizes that full decode as
    counts and keeps none of it."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def read(self) -> TraceFile:
        """Decode the whole trace into memory."""
        return _read_trace(self.path)

    def info(self) -> dict:
        """Header plus per-segment step/static counts (full decode, but
        no :class:`TraceFile` retained)."""
        trace = self.read()
        return {
            "path": str(self.path),
            "version": TRACE_VERSION,
            "header": trace.header,
            "digest": file_digest(self.path),
            "segments": [
                {
                    "binary": s.binary,
                    "steps": len(s.records),
                    "distinct_instructions": len(s.instructions),
                    "meta": s.meta,
                }
                for s in trace.segments
            ],
        }


# ---------------------------------------------------------------------------
# Streaming (windowed) decode
# ---------------------------------------------------------------------------


@dataclass
class StreamSegment:
    """One binary pass of a trace, decoded on demand in bounded windows.

    A :class:`TraceSegment` stand-in everywhere replay needs one —
    ``meta``/``binary``/``page_bytes`` for geometry, and
    ``window_source()`` as the decode seam — but it holds no records:
    each source re-reads the file forward, holding one decompressed
    chunk and the window it is building.
    """

    path: Path
    meta: dict
    #: position of this segment in the file (gzip cannot seek, so the
    #: source parses past earlier segments to reach it)
    ordinal: int
    #: window budget, in step records (derived from the byte budget)
    window_steps: int

    @property
    def binary(self) -> str:
        return self.meta.get("binary", "plain")

    @property
    def page_bytes(self) -> int:
        return self.meta["page_bytes"]

    def window_source(self) -> Iterator[TraceWindow]:
        """Windows of at most ``window_steps`` records.  Each source
        owns its file handle, statics and tables, so two sources over
        one segment (the two passes of a job, or a retry) share no
        mutable state; closing the generator closes the file."""
        from repro.telemetry import emit, note_stream_window
        instrs: List[Instruction] = []
        aux_kinds: List[int] = []
        tables = _StaticTables()
        base = 0
        ended = False
        with closing(_TraceStream(self.path, _CHUNK_BYTES)) as stream:
            for seen in range(self.ordinal + 1):
                if stream.next_segment() is None:
                    raise TraceError(
                        f"{self.path}: trace holds only {seen} segment(s);"
                        f" segment #{self.ordinal} disappeared between the"
                        " index scan and the decode — was the file "
                        "rewritten mid-run?")
                if seen < self.ordinal:
                    stream.drop_segment()
            while not ended:
                started = time.perf_counter()
                records: List[Tuple[int, int]] = []
                while not ended and len(records) < self.window_steps:
                    ended = stream.parse(instrs, aux_kinds, records,
                                         self.window_steps)
                if not records:
                    return
                tables.extend(instrs)
                nbytes = COLUMN_BYTES_PER_STEP * len(records)
                note_stream_window(nbytes, time.perf_counter() - started)
                emit("trace.stream_window", level="debug",
                     path=str(self.path), base=base, steps=len(records),
                     bytes=nbytes)
                base += len(records)
                yield TraceWindow(records, instrs,
                                  partial(SegmentColumns, tables, records))

    def describe(self) -> str:
        return (f"{self.binary}: streaming decode, "
                f"{self.window_steps:,}-step windows "
                f"({self.meta.get('name', '?')}, "
                f"{self.page_bytes}-byte pages)")


def _read_trace(path: Path, window_steps: Optional[int] = None) -> TraceFile:
    """One forward parse of a trace file.  Eager (no ``window_steps``):
    gunzip the whole file, then parse each segment with no record limit
    — one unbounded window.  Streamed: the segment index, parsed one
    decompressed chunk at a time with every record dropped, as
    :class:`StreamSegment`\\ s."""
    chunk = None if window_steps is None else _CHUNK_BYTES
    with closing(_TraceStream(path, chunk)) as stream:
        segments: list = []
        while (meta := stream.next_segment()) is not None:
            if window_steps is None:
                segment = TraceSegment(meta=meta)
                # the whole file is held: one parse reaches the end
                # marker or raises
                stream.parse(segment.instructions, [], segment.records)
            else:
                segment = StreamSegment(path, meta, len(segments),
                                        window_steps)
                stream.drop_segment()
            segments.append(segment)
        return TraceFile(path=path, header=stream.header,
                         segments=segments)


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------

#: (realpath, size, mtime_ns) -> sha256; re-hashing is skipped while the
#: stat signature is unchanged, so JobSpec construction stays cheap in
#: wide sweeps over one trace
_DIGESTS: Dict[Tuple[str, int, int], str] = {}


def file_digest(path: Union[str, Path]) -> str:
    """SHA-256 of the trace file's bytes (the identity JobSpec hashes
    into its cache key, so editing a trace invalidates its results)."""
    real = os.path.realpath(str(path))
    try:
        stat = os.stat(real)
    except OSError as exc:
        raise TraceError(f"cannot stat trace {path}: {exc}") from exc
    signature = (real, stat.st_size, stat.st_mtime_ns)
    cached = _DIGESTS.get(signature)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    try:
        with open(real, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    value = digest.hexdigest()
    _DIGESTS[signature] = value
    return value


# ---------------------------------------------------------------------------
# Decode policy (eager vs streaming)
# ---------------------------------------------------------------------------

#: traces whose file is at or below this size always decode eagerly
#: when no explicit window is forced: the decoded columns of a small
#: trace cost less than re-parsing it per engine pass, and the LRU
#: makes the decode free across a sweep's jobs
STREAM_THRESHOLD_BYTES = 16 << 20

#: window byte budget used when a trace auto-streams (file larger than
#: the threshold, no ``REPRO_TRACE_WINDOW`` override)
DEFAULT_WINDOW_BYTES = 32 << 20


def parse_byte_size(raw) -> Optional[int]:
    """``"64m"`` / ``"512k"`` / ``"1g"`` / plain integers → bytes.
    ``None`` for unset, unparsable, or non-positive values — a
    misspelled environment variable must not fail every sweep."""
    if raw is None:
        return None
    text = str(raw).strip().lower()
    if not text:
        return None
    scale = 1
    if text[-1] in "kmg":
        scale = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}[text[-1]]
        text = text[:-1]
    try:
        value = int(text)
    except ValueError:
        return None
    return value * scale if value > 0 else None


def trace_window_bytes() -> Optional[int]:
    """The forced streaming window: ``$REPRO_TRACE_WINDOW`` parsed as a
    byte size (``k``/``m``/``g`` suffixes accepted).  ``None`` when
    unset — the size-threshold policy decides.  Pool and queue workers
    inherit the parent's environment, so one export (or the CLI's
    ``--trace-window``) sizes a whole fleet."""
    return parse_byte_size(os.environ.get("REPRO_TRACE_WINDOW"))


# ---------------------------------------------------------------------------
# Decoded-trace memoization
# ---------------------------------------------------------------------------

#: how many decoded traces one process keeps alive at once.  Sweeps
#: typically iterate configs over a handful of traces; the decoded form
#: (instructions + records + flat columns) is a few MB per trace, so a
#: small LRU captures the reuse without unbounded growth.  The default
#: can be overridden per process with ``REPRO_TRACE_LRU_CAPACITY``
#: (pool and queue workers inherit the parent's environment, so one
#: export sizes the whole fleet).
TRACE_CACHE_CAPACITY = 8

#: decoded-byte budget for the LRU; 0 = unbounded (the entry cap alone
#: governs).  Override per process with ``REPRO_TRACE_LRU_BYTES`` —
#: a handful of huge traces can blow memory while staying comfortably
#: under the 8-entry cap, and a byte budget is the honest unit.
TRACE_CACHE_BYTES = 0


def trace_cache_bytes() -> int:
    """The effective LRU byte budget: ``$REPRO_TRACE_LRU_BYTES`` when
    set to a parsable positive size (``k``/``m``/``g`` suffixes), else
    :data:`TRACE_CACHE_BYTES` (0 = no byte bound)."""
    value = parse_byte_size(os.environ.get("REPRO_TRACE_LRU_BYTES"))
    return value if value else TRACE_CACHE_BYTES


def _trace_nbytes(trace: TraceFile) -> int:
    """Decoded-column footprint estimate of one cached trace: the flat
    columns dominate the decoded form, so the byte-budgeted eviction
    charges :data:`COLUMN_BYTES_PER_STEP` per step record."""
    return sum(COLUMN_BYTES_PER_STEP * len(segment.records)
               for segment in trace.segments)


def trace_cache_capacity() -> int:
    """The effective LRU capacity: ``$REPRO_TRACE_LRU_CAPACITY`` when
    set to a positive integer, else :data:`TRACE_CACHE_CAPACITY`.
    Unparsable or non-positive values are ignored rather than fatal —
    a misspelled environment variable must not fail every sweep."""
    raw = os.environ.get("REPRO_TRACE_LRU_CAPACITY")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            return TRACE_CACHE_CAPACITY
        if value > 0:
            return value
    return TRACE_CACHE_CAPACITY

#: (realpath, sha256) -> decoded TraceFile, most recently used last.
#: Keyed by *content*, not just path: an edited trace digests
#: differently, so a stale decode can never be served (the same property
#: :attr:`~repro.runner.jobspec.JobSpec.workload_digest` relies on).
_TRACE_LRU: "OrderedDict[Tuple[str, str], TraceFile]" = OrderedDict()


def load_trace(path: Union[str, Path], *, use_cache: bool = True,
               stream=None) -> TraceFile:
    """Read and decode ``path``, memoizing per process.

    A six-config sweep over one trace used to gunzip and re-decode the
    file once per job; with the LRU every job in a process (the sweep
    parent or one pool/queue worker) shares a single decoded
    :class:`TraceFile` — and therefore a single set of flat
    :class:`SegmentColumns`.  The cached object is shared, never copied:
    segments and their columns are read-only to every consumer.
    ``use_cache=False`` forces a fresh decode (diagnostics/tests).

    ``stream`` selects the decode strategy:

    * ``None`` (default) — policy: a ``$REPRO_TRACE_WINDOW`` byte
      budget forces windowed streaming at that window size; otherwise
      files above :data:`STREAM_THRESHOLD_BYTES` stream with
      :data:`DEFAULT_WINDOW_BYTES` windows and smaller files decode
      eagerly (the historical behaviour, bit for bit).
    * ``False`` — always eager (bench's decode-excluded views).
    * ``True`` or an ``int`` byte budget — always streaming.

    A streamed trace is a :class:`TraceFile` of :class:`StreamSegment`\\ s
    found by one index scan: no record is kept and nothing enters the
    LRU — each engine pass re-reads the file forward, holding one
    decompressed chunk and one window's columns, so replay memory is
    bounded by the window budget instead of the trace.  Results are bit-identical either way (the streaming
    equivalence suite pins this)."""
    from repro.telemetry import emit, note_decode
    from repro.faults import fire
    fire("trace.decode", path=str(path))
    if stream is None:
        stream = trace_window_bytes()
        if stream is None:
            try:
                size = os.stat(str(path)).st_size
            except OSError:
                size = 0
            stream = DEFAULT_WINDOW_BYTES \
                if size > STREAM_THRESHOLD_BYTES else False
    if stream:
        window_bytes = DEFAULT_WINDOW_BYTES if stream is True else int(stream)
        window_steps = max(1, window_bytes // COLUMN_BYTES_PER_STEP)
        trace = _read_trace(Path(path), window_steps)
        emit("trace.stream_open", level="debug", path=str(path),
             window_bytes=window_bytes, window_steps=window_steps)
        return trace
    if not use_cache:
        return TraceReader(path).read()
    key = (os.path.realpath(str(path)), file_digest(path))
    cached = _TRACE_LRU.get(key)
    if cached is not None:
        _TRACE_LRU.move_to_end(key)
        note_decode(0.0, cached=True)
        emit("trace.lru_hit", level="debug", path=str(path))
        return cached
    started = time.perf_counter()
    trace = TraceReader(path).read()
    elapsed = time.perf_counter() - started
    note_decode(elapsed, cached=False)
    emit("trace.decode", level="debug", path=str(path),
         seconds=round(elapsed, 6), segments=len(trace.segments))
    _TRACE_LRU[key] = trace
    capacity = trace_cache_capacity()
    budget = trace_cache_bytes()
    total = (sum(_trace_nbytes(t) for t in _TRACE_LRU.values())
             if budget else 0)
    # the newest entry always survives: evicting the trace the caller
    # is about to replay would only guarantee an immediate re-decode
    while (len(_TRACE_LRU) > capacity
           or (budget and total > budget and len(_TRACE_LRU) > 1)):
        evicted_key, evicted = _TRACE_LRU.popitem(last=False)
        freed = _trace_nbytes(evicted)
        total -= freed
        emit("trace.lru_evict", level="debug", path=evicted_key[0],
             capacity=capacity, bytes_freed=freed,
             budget_bytes=budget or None)
    return trace


def clear_trace_cache() -> None:
    """Drop every memoized decode (tests and long-lived workers that
    want to release memory)."""
    _TRACE_LRU.clear()
