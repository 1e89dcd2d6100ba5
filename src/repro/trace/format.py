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
import time
import zlib
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

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
    :func:`repro.trace.record.capture_replay` — one definition of a
    record for both."""
    if kind == AUX_TAKEN:
        return 1 if step.taken else 0
    if kind == AUX_NEXT_PC:
        return step.next_pc
    if kind == AUX_MEM_ADDR:
        return step.mem_addr
    return -1


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
#: are what the batch engine retires in bulk.
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
#: what actually occupies memory during a batched replay.
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
    order — everything the batched replay engine consumes without
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
                  batch engine's run-length fast path consumes this many
                  steps without per-step event checks.  In a windowed
                  view runs are truncated at the window end; the batch
                  engine's slow path retires a plain record identically
                  to the fast path, so the truncation is invisible in
                  the results (the streaming bit-identity suite pins
                  this).

    Columns are immutable once built and safe to share across engines
    (and, via the trace LRU, across jobs in one process).

    Built either from a whole decoded segment (``SegmentColumns(seg)``)
    or, on the streaming path, from one window's record batch plus the
    stream's incremental :class:`_StaticTables`
    (``SegmentColumns(tables=..., records=...)``).
    """

    __slots__ = ("pc", "next_pc", "kind", "aux", "rs", "rt", "rd",
                 "latency", "flags", "index", "run", "steps")

    def __init__(self, segment: Optional["TraceSegment"] = None, *,
                 tables: Optional[_StaticTables] = None,
                 records: Optional[List[Tuple[int, int]]] = None) -> None:
        if segment is not None:
            tables = _StaticTables()
            tables.extend(segment.instructions)
            records = segment.records
        assert tables is not None and records is not None
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

    ``records`` is the raw ``(static index, aux)`` batch (indices are
    absolute into the source's growing instruction list), ``base`` its
    absolute step offset in the segment.  :meth:`columns` builds — and
    memoizes — the flat-array view lazily, so the scalar replay path
    (which steps records directly) never pays for columns it does not
    read.
    """

    __slots__ = ("records", "base", "_tables", "_columns", "_memoized")

    def __init__(self, records: List[Tuple[int, int]], base: int, *,
                 tables: Optional[_StaticTables] = None,
                 memoized=None) -> None:
        self.records = records
        self.base = base
        self._tables = tables
        self._memoized = memoized
        self._columns: Optional[SegmentColumns] = None

    @property
    def steps(self) -> int:
        return len(self.records)

    def nbytes(self) -> int:
        """Decoded-column footprint of this window."""
        return COLUMN_BYTES_PER_STEP * len(self.records)

    def columns(self) -> SegmentColumns:
        if self._columns is None:
            if self._memoized is not None:
                self._columns = self._memoized()
            else:
                self._columns = SegmentColumns(tables=self._tables,
                                               records=self.records)
        return self._columns


class _EagerWindowSource:
    """A fully-decoded segment presented as a single window.

    The eager fast path of the streaming seam: engines consume every
    segment through ``window_source()``, and a small (already-decoded)
    trace costs exactly what it did before windows existed — one
    memoized :class:`SegmentColumns`, no re-parse, no copies.
    """

    __slots__ = ("instructions", "_segment", "_emitted")

    def __init__(self, segment: "TraceSegment") -> None:
        self.instructions = segment.instructions
        self._segment = segment
        self._emitted = False

    def next_window(self) -> Optional[TraceWindow]:
        if self._emitted:
            return None
        self._emitted = True
        return TraceWindow(self._segment.records, 0,
                           memoized=self._segment.columns)


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
            self._columns = SegmentColumns(self)
        return self._columns

    def window_source(self):
        """The uniform decode seam: every engine consumes a segment as
        a sequence of :class:`TraceWindow`\\ s.  A decoded segment is
        one window backed by the memoized columns."""
        return _EagerWindowSource(self)

    def describe(self) -> str:
        return (f"{self.binary}: {len(self.records):,} steps over "
                f"{len(self.instructions):,} distinct instructions "
                f"({self.meta.get('name', '?')}, "
                f"{self.page_bytes}-byte pages)")


@dataclass
class TraceFile:
    """A decoded trace: creation header plus one segment per binary."""

    path: Path
    header: dict
    segments: List[TraceSegment]

    @property
    def workload_name(self) -> str:
        return self.header.get("workload", str(self.path))

    def segment_for(self, *, instrumented: bool,
                    page_bytes: int) -> TraceSegment:
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


class _StreamReader:
    """Byte-level reading with truncation/corruption mapped to
    :class:`TraceError`."""

    def __init__(self, fh, path: Path) -> None:
        self._fh = fh
        self._path = path

    def exact(self, count: int, what: str) -> bytes:
        try:
            data = self._fh.read(count)
        except (OSError, EOFError, zlib.error) as exc:
            raise TraceError(
                f"{self._path}: corrupt trace stream while reading {what} "
                f"({exc})") from exc
        if len(data) != count:
            raise TraceError(
                f"{self._path}: truncated trace (wanted {count} bytes of "
                f"{what}, got {len(data)})")
        return data

    def json(self, length: int, what: str) -> dict:
        raw = self.exact(length, what)
        try:
            value = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceError(
                f"{self._path}: corrupt {what} block ({exc})") from exc
        if not isinstance(value, dict):
            raise TraceError(f"{self._path}: {what} block is not an object")
        return value


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


def _read_preamble(stream: _StreamReader, path: Path) -> dict:
    magic, version, _flags, hlen = _PREAMBLE.unpack(
        stream.exact(_PREAMBLE.size, "preamble"))
    if magic != MAGIC:
        raise TraceError(
            f"{path}: not a repro trace (bad magic {magic!r})")
    if version != TRACE_VERSION:
        raise TraceError(
            f"{path}: unsupported trace version {version} "
            f"(this build reads version {TRACE_VERSION})")
    return stream.json(hlen, "header")


def _decode_static(payload: bytes, path: Path) -> Instruction:
    address, opnum, rd, rs, rt, imm, target, flags = _STATIC.unpack(
        payload)
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


class TraceReader:
    """Parse a trace file; :meth:`read` decodes everything, and
    :meth:`info` summarizes without materializing instruction objects."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def _open(self):
        return _open_trace(self.path)

    def _read_preamble(self, stream: _StreamReader) -> dict:
        return _read_preamble(stream, self.path)

    def read(self) -> TraceFile:
        """Decode the whole trace into memory."""
        fh, raw = self._open()
        try:
            stream = _StreamReader(fh, self.path)
            header = self._read_preamble(stream)
            segments: List[TraceSegment] = []
            segment: Optional[TraceSegment] = None
            aux_kinds: List[int] = []
            while True:
                tag = stream.exact(1, "record tag")[0]
                if tag == TAG_END_TRACE:
                    break
                if tag == TAG_SEGMENT:
                    (mlen,) = _U32.unpack(stream.exact(4, "segment meta size"))
                    segment = TraceSegment(
                        meta=stream.json(mlen, "segment meta"))
                    segments.append(segment)
                    aux_kinds = []
                    continue
                if segment is None:
                    raise TraceError(
                        f"{self.path}: record tag {tag:#x} outside a segment")
                if tag == TAG_END_SEGMENT:
                    segment = None
                elif tag == TAG_STATIC:
                    instr = self._decode_static(
                        stream.exact(_STATIC.size, "static entry"))
                    segment.instructions.append(instr)
                    aux_kinds.append(aux_kind(instr.kind_code))
                elif tag == TAG_STEP:
                    (index,) = _U32.unpack(stream.exact(4, "step index"))
                    if index >= len(aux_kinds):
                        raise TraceError(
                            f"{self.path}: step references static entry "
                            f"{index} before its definition")
                    kind = aux_kinds[index]
                    if kind == AUX_TAKEN:
                        aux = stream.exact(1, "branch outcome")[0]
                    elif kind in (AUX_NEXT_PC, AUX_MEM_ADDR):
                        (aux,) = _U32.unpack(stream.exact(4, "step payload"))
                    else:
                        aux = -1
                    segment.records.append((index, aux))
                else:
                    raise TraceError(
                        f"{self.path}: unknown record tag {tag:#x}")
            if segment is not None:
                raise TraceError(f"{self.path}: unterminated segment")
            return TraceFile(path=self.path, header=header,
                             segments=segments)
        finally:
            fh.close()
            if raw is not None:
                raw.close()

    def _decode_static(self, payload: bytes) -> Instruction:
        return _decode_static(payload, self.path)

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


class _TraceScanner:
    """Forward-only parser over an open trace stream.

    Shared by the streaming window source (which decodes one segment's
    records in bounded batches) and the stream-file segment index (which
    only wants metadata).  gzip streams cannot seek, so reaching segment
    *k* means parsing past segments ``0..k-1`` — :meth:`skip_segment_body`
    does that without building a single :class:`Instruction` or record
    tuple: statics are unpacked only far enough to learn each step's aux
    payload size.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh, self._raw = _open_trace(self.path)
        self.stream = _StreamReader(self._fh, self.path)
        self.header = _read_preamble(self.stream, self.path)
        self._done = False

    def close(self) -> None:
        if self._fh is None:
            return
        self._fh.close()
        if self._raw is not None:
            self._raw.close()
        self._fh = None

    def next_segment_meta(self) -> Optional[dict]:
        """Consume the next ``TAG_SEGMENT`` and return its meta, or
        ``None`` once ``TAG_END_TRACE`` is reached."""
        if self._done:
            return None
        tag = self.stream.exact(1, "record tag")[0]
        if tag == TAG_END_TRACE:
            self._done = True
            return None
        if tag != TAG_SEGMENT:
            raise TraceError(
                f"{self.path}: record tag {tag:#x} outside a segment")
        (mlen,) = _U32.unpack(self.stream.exact(4, "segment meta size"))
        return self.stream.json(mlen, "segment meta")

    def skip_segment_body(self) -> int:
        """Consume the current segment's items undecoded; returns the
        step count skipped."""
        stream = self.stream
        aux_kinds: List[int] = []
        steps = 0
        while True:
            tag = stream.exact(1, "record tag")[0]
            if tag == TAG_END_SEGMENT:
                return steps
            if tag == TAG_STATIC:
                payload = stream.exact(_STATIC.size, "static entry")
                opnum = payload[4]  # <I address, then B op
                op = _NUM_TO_OP.get(opnum)
                if op is None:
                    raise TraceError(
                        f"{self.path}: unknown opcode number {opnum}")
                aux_kinds.append(aux_kind(int(op.kind)))
            elif tag == TAG_STEP:
                (index,) = _U32.unpack(stream.exact(4, "step index"))
                if index >= len(aux_kinds):
                    raise TraceError(
                        f"{self.path}: step references static entry "
                        f"{index} before its definition")
                kind = aux_kinds[index]
                if kind == AUX_TAKEN:
                    stream.exact(1, "branch outcome")
                elif kind in (AUX_NEXT_PC, AUX_MEM_ADDR):
                    stream.exact(4, "step payload")
                steps += 1
            else:
                raise TraceError(
                    f"{self.path}: unknown record tag {tag:#x}")


class _StreamWindowSource:
    """Yields one segment's stream as bounded :class:`TraceWindow`\\ s.

    Each source owns its file handle, interned-instruction list, and
    static tables — two sources over the same :class:`StreamSegment`
    (say, the plain and instrumented passes of one job, or a retry)
    never share mutable state.  ``instructions`` grows in place as
    statics arrive, so an engine may bind it once: indices in earlier
    windows stay valid forever.
    """

    def __init__(self, path: Union[str, Path], ordinal: int,
                 window_steps: int) -> None:
        self.instructions: List[Instruction] = []
        self._tables = _StaticTables()
        self._window_steps = max(1, window_steps)
        self._base = 0
        self._aux_kinds: List[int] = []
        self._exhausted = False
        self._scanner = _TraceScanner(path)
        seen = 0
        while True:
            meta = self._scanner.next_segment_meta()
            if meta is None:
                raise TraceError(
                    f"{self._scanner.path}: trace holds only {seen} "
                    f"segment(s); segment #{ordinal} disappeared between "
                    "the index scan and the decode — was the file "
                    "rewritten mid-run?")
            if seen == ordinal:
                break
            self._scanner.skip_segment_body()
            seen += 1

    def close(self) -> None:
        self._exhausted = True
        self._scanner.close()

    def next_window(self) -> Optional[TraceWindow]:
        """Decode up to the window budget of step records; ``None`` once
        the segment is exhausted (the file handle closes with it)."""
        if self._exhausted:
            return None
        from repro.telemetry import emit, note_stream_window
        started = time.perf_counter()
        path = self._scanner.path
        stream = self._scanner.stream
        instrs = self.instructions
        aux_kinds = self._aux_kinds
        records: List[Tuple[int, int]] = []
        limit = self._window_steps
        while len(records) < limit:
            tag = stream.exact(1, "record tag")[0]
            if tag == TAG_END_SEGMENT:
                self.close()
                break
            if tag == TAG_STATIC:
                instr = _decode_static(
                    stream.exact(_STATIC.size, "static entry"), path)
                instrs.append(instr)
                aux_kinds.append(aux_kind(instr.kind_code))
            elif tag == TAG_STEP:
                (index,) = _U32.unpack(stream.exact(4, "step index"))
                if index >= len(aux_kinds):
                    raise TraceError(
                        f"{path}: step references static entry "
                        f"{index} before its definition")
                kind = aux_kinds[index]
                if kind == AUX_TAKEN:
                    aux = stream.exact(1, "branch outcome")[0]
                elif kind in (AUX_NEXT_PC, AUX_MEM_ADDR):
                    (aux,) = _U32.unpack(stream.exact(4, "step payload"))
                else:
                    aux = -1
                records.append((index, aux))
            else:
                raise TraceError(
                    f"{path}: unknown record tag {tag:#x}")
        if not records:
            return None
        self._tables.extend(instrs)
        window = TraceWindow(records, self._base, tables=self._tables)
        self._base += len(records)
        note_stream_window(window.nbytes(),
                           time.perf_counter() - started)
        emit("trace.stream_window", level="debug", path=str(path),
             base=window.base, steps=len(records),
             bytes=window.nbytes())
        return window


@dataclass
class StreamSegment:
    """One binary pass of a trace, decoded on demand in bounded windows.

    Structurally a :class:`TraceSegment` stand-in everywhere replay
    needs one — ``meta``/``binary``/``page_bytes`` for geometry, and
    ``window_source()`` as the decode seam — but it holds no records:
    each source re-reads the file forward, keeping at most one window's
    columns alive.
    """

    path: Path
    meta: dict
    #: position of this segment in the file (gzip cannot seek, so the
    #: source skip-parses earlier segments to reach it)
    ordinal: int
    #: window budget, in step records (derived from the byte budget)
    window_steps: int

    @property
    def binary(self) -> str:
        return self.meta.get("binary", "plain")

    @property
    def page_bytes(self) -> int:
        return self.meta["page_bytes"]

    def window_source(self) -> _StreamWindowSource:
        return _StreamWindowSource(self.path, self.ordinal,
                                   self.window_steps)

    def describe(self) -> str:
        return (f"{self.binary}: streaming decode, "
                f"{self.window_steps:,}-step windows "
                f"({self.meta.get('name', '?')}, "
                f"{self.page_bytes}-byte pages)")


class StreamTraceFile:
    """A trace opened for windowed decode: header read eagerly, segment
    bodies never held in memory.

    Mirrors the :class:`TraceFile` surface replay consumes
    (``workload_name``, ``segment_for``, ``segments``) so
    :class:`~repro.trace.replay.TraceWorkload` works unchanged; the
    segment index is a decode-less skip-parse of the file, done once on
    first need and cached.
    """

    def __init__(self, path: Union[str, Path], window_steps: int) -> None:
        self.path = Path(path)
        self.window_steps = max(1, window_steps)
        scanner = _TraceScanner(self.path)
        try:
            self.header = scanner.header
        finally:
            scanner.close()
        self._metas: Optional[List[dict]] = None

    @property
    def workload_name(self) -> str:
        return self.header.get("workload", str(self.path))

    def _segment_metas(self) -> List[dict]:
        if self._metas is None:
            metas: List[dict] = []
            scanner = _TraceScanner(self.path)
            try:
                while True:
                    meta = scanner.next_segment_meta()
                    if meta is None:
                        break
                    metas.append(meta)
                    scanner.skip_segment_body()
            finally:
                scanner.close()
            self._metas = metas
        return self._metas

    @property
    def segments(self) -> List[StreamSegment]:
        return [StreamSegment(self.path, meta, i, self.window_steps)
                for i, meta in enumerate(self._segment_metas())]

    def segment_for(self, *, instrumented: bool,
                    page_bytes: int) -> StreamSegment:
        wanted = "instrumented" if instrumented else "plain"
        metas = self._segment_metas()
        for i, meta in enumerate(metas):
            if (meta.get("binary", "plain") == wanted
                    and meta.get("page_bytes") == page_bytes):
                return StreamSegment(self.path, meta, i, self.window_steps)
        have = ", ".join(
            f"{m.get('binary', 'plain')}@{m.get('page_bytes')}B"
            for m in metas) or "none"
        raise TraceError(
            f"{self.path}: no {wanted} segment for {page_bytes}-byte pages "
            f"(trace contains: {have}); re-record the trace for this "
            "configuration")


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
               stream=None) -> Union[TraceFile, StreamTraceFile]:
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

    A streamed trace returns a :class:`StreamTraceFile`: nothing is
    decoded up front and nothing enters the LRU — each engine pass
    re-reads the file forward, holding at most one window's columns,
    so replay memory is bounded by the window budget instead of the
    trace.  Results are bit-identical either way (the streaming
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
        trace = StreamTraceFile(path, window_steps)
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
