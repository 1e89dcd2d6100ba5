"""Recording: capture the committed stream of a live run into a trace.

The hook point is executor creation (see
:meth:`repro.isa.program.Program.make_executor`): the fast engine hands
its executor to :meth:`TraceRecorder.attach`, which wraps it so every
committed :class:`~repro.cpu.functional.StepResult` is appended to the
trace file as a side effect of stepping.  The engine's behaviour — and
therefore the recorded run's counters — is untouched.

:func:`record_trace` is the one-call form the CLI uses: it performs the
standard two-pass :func:`~repro.sim.multi.run_all_schemes` evaluation
with a recorder attached, producing a trace with one segment per binary
*and* returning the live run, so callers can immediately check
record→replay equivalence.

:func:`capture_replay` is the in-memory form: it steps a live program
through a window and keeps the same ``(static index, aux)`` records a
trace file would hold, wrapped as a
:class:`~repro.trace.replay.ReplayProgram` the batch and grid engines
can replay — the way a live grid unit shares one execution between many
machine configurations.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from repro.config import MachineConfig, SchemeName
from repro.trace.format import (
    TraceSegment,
    TraceWriter,
    aux_kind,
    program_meta,
    step_aux,
)


class _RecordingExecutor:
    """Transparent executor proxy that tees StepResults to a writer."""

    __slots__ = ("_inner", "_writer")

    def __init__(self, inner, writer: TraceWriter) -> None:
        self._inner = inner
        self._writer = writer

    @property
    def pc(self) -> int:
        return self._inner.pc

    @property
    def halted(self) -> bool:
        return self._inner.halted

    @property
    def retired(self) -> int:
        return self._inner.retired

    def step(self):
        step = self._inner.step()
        self._writer.write_step(step)
        return step

    def run(self, max_instructions: int) -> int:
        start = self._inner.retired
        while not self._inner.halted \
                and self._inner.retired - start < max_instructions:
            self.step()
        return self._inner.retired - start


class TraceRecorder:
    """Captures every engine pass it is attached to as one trace segment.

    Pass an instance as the ``recorder`` argument of
    :meth:`repro.sim.simulator.Simulator.run_program` (or
    :func:`~repro.sim.multi.run_all_schemes`); close it — or use it as a
    context manager — to finalize the file.
    """

    def __init__(self, path: Union[str, Path], *, header: dict) -> None:
        self.writer = TraceWriter(path, header=header)

    def attach(self, executor, program) -> _RecordingExecutor:
        """Called by the engine at construction: opens a segment for
        ``program``'s binary and returns the wrapped executor."""
        self.writer.begin_segment(program_meta(program))
        return _RecordingExecutor(executor, self.writer)

    def close(self) -> None:
        self.writer.close()

    def abort(self) -> None:
        """Delete the partial output (the run being recorded failed)."""
        self.writer.abort()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def record_trace(workload, config: MachineConfig, *,
                 instructions: int, warmup: int = 0,
                 path: Union[str, Path],
                 schemes: Optional[Sequence[SchemeName]] = None,
                 page_sizes: Optional[Sequence[int]] = None):
    """Run ``workload`` live (both binaries) while recording it to
    ``path``; returns the live :class:`~repro.sim.multi.CombinedRun`.

    ``workload`` is a registry name or a workload object.  The recorded
    window is ``warmup + instructions`` useful instructions per binary —
    a replay can use any window up to that size.  ``page_sizes`` records
    additional binary pairs linked at other page sizes (the committed
    stream depends on the layout, hence on the page size), so one trace
    file can serve the page-size sensitivity sweep; the returned run is
    always the one at ``config``'s own page size.
    """
    from repro.sim.multi import run_all_schemes

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
    with TraceRecorder(path, header=header) as recorder:
        primary = None
        for size in sizes:
            sized = (config if size == config.mem.page_bytes
                     else config.with_page_bytes(size))
            run = run_all_schemes(
                workload, sized, instructions=instructions, warmup=warmup,
                schemes=schemes, recorder=recorder)
            if size == config.mem.page_bytes:
                primary = run
        return primary


def capture_replay(program, *, instructions: int):
    """Execute ``program`` for ``instructions`` useful (non-boundary)
    instructions and return its committed stream as an in-memory
    :class:`~repro.trace.replay.ReplayProgram`.

    The segment holds exactly what :class:`TraceRecorder` would write for
    an engine pass over the same window (``warmup + instructions`` of a
    job): the statics in first-execution order and one ``(static index,
    aux)`` record per step, so replaying it is bit-identical to the live
    run.  The replay keeps only the executed instructions, not
    ``program`` itself.
    """
    from repro.trace.replay import ReplayProgram
    from repro.vm.os_model import AddressSpace

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
    return ReplayProgram(segment)
