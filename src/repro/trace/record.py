"""Recording: capture the committed stream of a run into a trace.

A committed segment is one binary's ``(static index, aux)`` records
plus its statics in first-execution order — the form every engine pass
consumes (:class:`~repro.cpu.fast.FastEngine` runs one loop over it).
:func:`capture_segment` obtains it for any program: a live program is
executed functionally for the window, a replay contributes the prefix
of its decoded stream.  :func:`capture_replay` wraps the capture as a
:class:`~repro.trace.replay.ReplayProgram` — the way a live grid unit
shares one execution between many machine configurations.

:func:`record_trace` is the one-call form the CLI uses: it captures both
binaries of a workload, writes each segment to the trace file with one
:meth:`~repro.trace.format.TraceWriter.write_segment` call, and scores
the captured streams with :func:`~repro.sim.multi.run_all_schemes_grid`,
returning the run so callers can immediately check record→replay
equivalence.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro import telemetry
from repro.config import MachineConfig, SchemeName
from repro.trace.format import (
    TraceSegment,
    TraceWriter,
    aux_kind,
    program_meta,
    step_aux,
    trace_exhausted,
)
from repro.trace.replay import ReplayProgram
from repro.workloads.synthetic import WorkloadProfile


def _replay_prefix(segment, instructions: int) -> TraceSegment:
    """The records of a decoded segment (eager or streamed) up to
    ``instructions`` useful steps or HALT, as an eager segment with the
    source's meta; :class:`~repro.errors.TraceError` if the recording
    ends first."""
    source = segment.window_source()
    statics = []
    records = []
    useful = 0
    try:
        while useful < instructions:
            window = next(source, None)
            if window is None:
                raise trace_exhausted(len(records))
            statics = window.instructions
            for record in window.records:
                records.append(record)
                instr = statics[record[0]]
                if instr.kind_code == 14:  # HALT
                    return TraceSegment(dict(segment.meta), statics,
                                        records)
                if not instr.is_boundary_branch:
                    useful += 1
                    if useful == instructions:
                        break
    finally:
        source.close()
    return TraceSegment(dict(segment.meta), statics, records)


def capture_segment(program, *, instructions: int) -> TraceSegment:
    """The committed stream of ``program`` for ``instructions`` useful
    (non-boundary) instructions, stopping after a HALT.

    A replay (anything carrying a decoded ``segment``) yields the prefix
    of its recording.  A live program is executed functionally: the
    statics are kept in first-execution order and one ``(static index,
    aux)`` record per step, exactly what a trace file holds, so the
    capture replays bit-identically to the recording.  The segment
    keeps only the executed instructions, not ``program`` itself.
    """
    recorded = getattr(program, "segment", None)
    if recorded is not None:
        return _replay_prefix(recorded, instructions)
    from repro.vm.os_model import AddressSpace

    started = time.perf_counter()
    executor = program.make_executor(AddressSpace(program))
    segment = TraceSegment(meta=program_meta(program))
    statics = segment.instructions
    records = segment.records
    #: id(instruction) -> (static index, aux kind)
    interned = {}
    useful = 0
    while useful < instructions and not executor.halted:
        step = executor.step()
        instr = step.instr
        entry = interned.get(id(instr))
        if entry is None:
            entry = (len(statics), aux_kind(instr.kind_code))
            interned[id(instr)] = entry
            statics.append(instr)
        records.append((entry[0], step_aux(entry[1], step)))
        if not instr.is_boundary_branch:
            useful += 1
    telemetry.note_capture(time.perf_counter() - started)
    return segment


def capture_replay(program, *, instructions: int) -> ReplayProgram:
    """:func:`capture_segment` as an in-memory :class:`ReplayProgram`."""
    return ReplayProgram(capture_segment(program,
                                         instructions=instructions))


class _Captured:
    """A workload whose binaries are already captured: ``link`` hands
    back the :class:`~repro.trace.replay.ReplayProgram` of each."""

    def __init__(self, name: str,
                 programs: Dict[bool, ReplayProgram]) -> None:
        self.profile = WorkloadProfile(name=name)
        self._programs = programs

    def link(self, *, page_bytes: int,
             instrumented: bool = False) -> ReplayProgram:
        return self._programs[instrumented]


def record_trace(workload, config: MachineConfig, *,
                 instructions: int, warmup: int = 0,
                 path: Union[str, Path],
                 schemes: Optional[Sequence[SchemeName]] = None,
                 page_sizes: Optional[Sequence[int]] = None):
    """Record ``workload`` (both binaries) to ``path`` and return its
    :class:`~repro.sim.multi.CombinedRun` at ``config``.

    ``workload`` is a registry name or a workload object (a live one, or
    a replay whose prefix is re-recorded).  The recorded window is
    ``warmup + instructions`` useful instructions per binary — a replay
    can use any window up to that size.  The instrumented binary is
    recorded only when ``schemes`` asks for an instrumented scheme.
    ``page_sizes`` records additional binary pairs linked at other page
    sizes (the committed stream depends on the layout, hence on the page
    size), so one trace file can serve the page-size sensitivity sweep;
    those are captured and written but not simulated — the returned run
    is always the one at ``config``'s own page size.
    """
    from repro.sim.multi import run_all_schemes_grid, split_schemes

    if isinstance(workload, str):
        from repro.workloads.registry import resolve
        workload = resolve(workload)
    sizes = [config.mem.page_bytes]
    for size in page_sizes or ():
        if size not in sizes:
            sizes.append(size)
    header = {
        "format": "repro-itlb instruction trace",
        "workload": workload.profile.name,
        "instructions": instructions,
        "warmup": warmup,
        "page_bytes": config.mem.page_bytes,
        "page_sizes": sizes,
    }
    _plain, instr_set = split_schemes(schemes)
    binaries = (False, True) if instr_set else (False,)
    with TraceWriter(path, header=header) as writer:
        primary: Dict[bool, ReplayProgram] = {}
        for size in sizes:
            for instrumented in binaries:
                segment = capture_segment(
                    workload.link(page_bytes=size,
                                  instrumented=instrumented),
                    instructions=warmup + instructions)
                writer.write_segment(segment)
                if size == config.mem.page_bytes:
                    primary[instrumented] = ReplayProgram(segment)
        return run_all_schemes_grid(
            _Captured(workload.profile.name, primary), [config],
            instructions=instructions, warmup=warmup, schemes=schemes)[0]
