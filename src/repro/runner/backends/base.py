"""The execution-backend contract the :class:`SweepRunner` delegates to.

A backend answers exactly one question: *given the de-duplicated list of
cache-missing specs, what is each one's outcome?*  Everything around
that — store probes, duplicate sharing, result ordering, persistence,
stats bookkeeping — stays in :meth:`repro.runner.sweep.SweepRunner.run`,
which is why swapping backends can never change a sweep's results, only
where the simulations physically execute.

Outcomes are ``(run, error)`` pairs: exactly one side is set.  A backend
must return one outcome per input spec, in input order, and must capture
per-job failures as outcomes rather than raising (a raise means the
*backend* broke, not a job).  The single sanctioned exception is
:class:`SweepInterrupted` — a ``KeyboardInterrupt`` subclass carrying
the outcomes that completed before Ctrl-C, so the runner can persist
them before re-raising.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from abc import ABC, abstractmethod
from typing import List, Optional, Tuple, TYPE_CHECKING

from repro import telemetry
from repro.runner.gridspec import GridSpec
from repro.runner.jobspec import JobSpec
from repro.sim.multi import CombinedRun

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runner.sweep import SweepRunner, SweepStats

#: one job's outcome: (result, None) on success, (None, traceback) on
#: failure — never both, never neither
Outcome = Tuple[Optional[CombinedRun], Optional[str]]


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C arrived mid-sweep.

    Raised by backends instead of a bare ``KeyboardInterrupt`` so the
    outcomes that finished before the interrupt are not lost:
    :meth:`SweepRunner.run` persists :attr:`completed` to the store and
    re-raises.  Subclassing ``KeyboardInterrupt`` keeps caller-side
    ``except KeyboardInterrupt`` handling (and an interactive ^C exit)
    working unchanged.
    """

    def __init__(self, completed: List[Tuple[JobSpec, Outcome]]) -> None:
        super().__init__("sweep interrupted")
        #: (spec, outcome) pairs that completed before the interrupt
        self.completed = list(completed)


def execute_spec(spec: JobSpec) -> Outcome:
    """Run one spec in this process with per-job fault capture (the
    in-process half every backend shares).

    Opens a :func:`repro.telemetry.metrics.collect` window around the
    job so the instrumented layers below (trace decode, engine run)
    have somewhere to report; the finished :class:`JobMetrics` rides on
    ``run.job_metrics`` — an attribute, never part of
    ``CombinedRun.to_dict()``, so results stay bit-identical.
    """
    started = time.perf_counter()
    with telemetry.collect(workload=spec.workload) as metrics:
        try:
            run = spec.run()
        except Exception:
            metrics.total_seconds = time.perf_counter() - started
            telemetry.emit("job.error", level="error", key=spec.key,
                           workload=spec.workload,
                           seconds=metrics.total_seconds)
            return None, traceback.format_exc()
        metrics.total_seconds = time.perf_counter() - started
        run.job_metrics = metrics
        telemetry.emit("job.done", level="debug", key=spec.key,
                       workload=spec.workload, engine=metrics.engine,
                       seconds=metrics.total_seconds,
                       instructions=metrics.instructions)
        return run, None


def execute_grid(grid: GridSpec) -> List[Outcome]:
    """Run one grid's shared pass in this process; one outcome per
    member, in member order.

    A failure of the shared pass is every member's failure (the same
    traceback repeated), mirroring what N independent jobs over the
    same broken workload would each report.  On success the single
    collected :class:`JobMetrics` is fanned out per member: the shared
    wall-clock phases (decode, capture, simulate, total) are split
    evenly so the members' attributed seconds sum back to the actual
    pass, while
    ``instructions``/``passes`` are one sub-pass's worth per member (each
    member's result really does cover the full window, on one sub-pass
    of each binary) and the decode counters land on member 0 only (the
    pass decoded once, not N times).
    """
    members = grid.members
    count = len(members)
    sub_passes = grid.sub_passes
    started = time.perf_counter()
    with telemetry.collect(workload=grid.workload) as metrics:
        try:
            runs = grid.run()
        except Exception:
            metrics.total_seconds = time.perf_counter() - started
            telemetry.emit("job.error", level="error", key=grid.key,
                           workload=grid.workload, grid_members=count,
                           seconds=metrics.total_seconds)
            failure = traceback.format_exc()
            return [(None, failure) for _ in members]
        metrics.total_seconds = time.perf_counter() - started
    outcomes: List[Outcome] = []
    for position, (member, run) in enumerate(zip(members, runs)):
        share = dataclasses.replace(
            metrics,
            decode_seconds=metrics.decode_seconds / count,
            capture_seconds=metrics.capture_seconds / count,
            simulate_seconds=metrics.simulate_seconds / count,
            total_seconds=metrics.total_seconds / count,
            instructions=metrics.instructions // sub_passes,
            passes=metrics.passes // sub_passes,
            decode_cold=metrics.decode_cold if position == 0 else 0,
            decode_cached=metrics.decode_cached if position == 0 else 0,
            grid_members=count,
        )
        run.job_metrics = share
        telemetry.emit("job.done", level="debug", key=member.key,
                       workload=member.workload, engine=share.engine,
                       grid_members=count, seconds=share.total_seconds,
                       instructions=share.instructions)
        outcomes.append((run, None))
    return outcomes


class ExecutionBackend(ABC):
    """Strategy for physically executing a batch of cache-miss specs."""

    #: short name recorded in :attr:`SweepStats.backend`
    name: str = "?"

    @abstractmethod
    def execute(self, queue: List[JobSpec], runner: "SweepRunner",
                stats: "SweepStats") -> List[Outcome]:
        """Execute ``queue``, returning one outcome per spec in order.

        ``runner`` supplies the process-pool seams
        (:meth:`~repro.runner.sweep.SweepRunner._map_in_pool` et al.) so
        tests — and subclasses — can intercept them in one place;
        ``stats`` is live and the backend must set ``stats.parallel`` to
        reflect how the batch actually ran.
        """

    def describe(self) -> str:
        return self.name
