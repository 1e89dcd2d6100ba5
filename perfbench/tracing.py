"""Spans around the benchmark's calls into each layer of ``repro``.

A traced iteration installs :class:`Tracer` wrappers on the public
functions each layer exposes (see :meth:`Tracer.hooks`), runs the same
workload code as an untraced iteration, and restores the originals.
Every call through a wrapper becomes one span: a name, a start, an
end, the span that was open when it started, and a few attributes
(steps simulated, grid members, ...).  Spans live in memory and are
written out when the run ends.

Pool workers are forked from the traced parent, so they inherit the
wrappers and the open span stack: a worker's spans name the parent's
sweep span as their parent.  Each worker keeps its spans in memory and
writes them to ``<spool>/worker-<pid>.json`` as it exits (a
``multiprocessing`` finalizer); the parent collects them after the
pool has shut down.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing.util
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed call into a layer."""

    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: float
    pid: int
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one traced iteration; :meth:`hooks` names
    the layer wrappers :func:`installed` puts in place."""

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.spans: List[Span] = []
        self._stack: List[str] = []
        self._next = 0
        self._pid = os.getpid()
        #: decoded traces this process has already counted steps for
        #: (held, so an id is never reused within the iteration)
        self._seen_traces: Dict[int, object] = {}

    # -- recording -------------------------------------------------------

    def _adopt_process(self) -> None:
        """First span in a forked worker: start a fresh span list and
        arrange for it to be written out when the worker exits."""
        pid = os.getpid()
        if pid == self._pid:
            return
        self._pid = pid
        self.spans = []
        multiprocessing.util.Finalize(None, self._flush_worker,
                                      exitpriority=10)

    def _flush_worker(self) -> None:
        path = self.spool / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps([asdict(s) for s in self.spans]))

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             attrs: Optional[Callable] = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``;
        ``attrs(result, args, kwargs)`` adds attributes to the span."""
        self._adopt_process()
        self._next += 1
        span_id = f"{os.getpid()}:{self._next}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        span = Span(span_id, parent, name, start, end, os.getpid())
        if attrs is not None:
            span.attrs = attrs(result, args, kwargs)
        self.spans.append(span)
        return result

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return traced

    def collect_workers(self) -> List[Span]:
        """Read (and delete) the span files pool workers left behind."""
        found: List[Span] = []
        for path in sorted(self.spool.glob("worker-*.json")):
            found.extend(Span(**raw) for raw in json.loads(path.read_text()))
            path.unlink()
        return found

    # -- the layer hooks -------------------------------------------------

    def _trace_steps(self, trace, _args, _kwargs) -> Dict[str, float]:
        """Steps of a decoded trace, counted once per process."""
        segments = getattr(trace, "segments", None)
        if segments is None or id(trace) in self._seen_traces:
            return {"steps": 0}
        self._seen_traces[id(trace)] = trace
        return {"steps": sum(len(s.records) for s in segments)}

    @staticmethod
    def _pass_steps(result, _args, kwargs) -> Dict[str, float]:
        return {"steps": result.shared.instructions
                + kwargs.get("warmup", 0)}

    @staticmethod
    def _grid_steps(results, _args, kwargs) -> Dict[str, float]:
        steps = results[0].shared.instructions + kwargs.get("warmup", 0)
        return {"steps": steps, "members": len(results)}

    def _run_program(self, fn: Callable) -> Callable:
        """``Simulator.run_program``, named by the evaluator that runs:
        batch for decoded replays, scalar for live programs."""
        @functools.wraps(fn)
        def traced(sim, program, **kwargs):
            replay = getattr(program, "segment", None) is not None
            engine = kwargs.get("engine", "fast")
            batch = engine == "batch" or (engine == "fast" and replay
                                          and kwargs.get("recorder") is None)
            name = "cpu.batch_pass" if batch else "cpu.scalar_pass"
            return self.call(name, fn, (sim, program), kwargs,
                             self._pass_steps)
        return traced

    def _store_op(self, name: str, fn: Callable) -> Callable:
        """Disk store operations only: the in-memory store the
        experiment harness uses is not the store layer under test."""
        @functools.wraps(fn)
        def traced(store, *args, **kwargs):
            if store.root is None:
                return fn(store, *args, **kwargs)
            return self.call(name, fn, (store, *args), kwargs)
        return traced

    def hooks(self) -> List[Tuple[object, str, Callable]]:
        """(owner, attribute, wrapper factory) for every layer hook: the
        public function each layer of ``repro`` is entered through."""
        from repro.experiments import fig4, fig5
        from repro.runner.store import ResultStore
        from repro.runner.sweep import SweepRunner
        from repro.sim import multi, simulator
        from repro.trace import format as trace_format
        from repro.workloads import registry
        from repro.workloads.synthetic import SyntheticWorkload

        def plain(name, attrs=None):
            return lambda fn: self.wrap(name, fn, attrs)

        return [
            (registry, "resolve", plain("workloads.resolve")),
            (SyntheticWorkload, "link", plain("workloads.link")),
            (trace_format, "load_trace",
             plain("trace.load", self._trace_steps)),
            (trace_format.TraceSegment, "columns", plain("trace.columns")),
            (simulator.Simulator, "run_program", self._run_program),
            (simulator, "run_program_grid",
             plain("cpu.grid_pass", self._grid_steps)),
            (multi, "run_all_schemes", plain("sim.job")),
            (multi, "run_all_schemes_grid", plain("sim.grid_job")),
            (SweepRunner, "run", plain("runner.sweep")),
            (fig4, "run", plain("experiments.table")),
            (fig5, "run", plain("experiments.table")),
            (ResultStore, "get",
             lambda fn: self._store_op("runner.store_get", fn)),
            (ResultStore, "put",
             lambda fn: self._store_op("runner.store_put", fn)),
        ]


def _holders(owner, attr: str, original) -> Iterator[object]:
    """Where ``original`` is reachable as ``attr``: the class itself, or
    every ``repro`` module that binds the function under that name
    (``from repro.trace.format import load_trace`` makes a second
    binding a call can go through)."""
    if isinstance(owner, type):
        yield owner
        return
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and \
                getattr(module, attr, None) is original:
            yield module


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """The tracer's wrappers replace the originals inside the block."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for owner, attr, factory in tracer.hooks():
            original = owner.__dict__[attr]
            wrapper = factory(original)
            for holder in list(_holders(owner, attr, original)):
                undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


# ---------------------------------------------------------------------------
# Self time and the per-layer figures
# ---------------------------------------------------------------------------


def self_times(spans: List[Span], workers: int) -> Dict[str, float]:
    """Each span's duration minus the time its children cover.

    A child that ran in a pool worker overlaps its siblings in the
    other workers, so it covers ``1 / workers`` of its duration of the
    parent's interval (the per-worker share of the parallel work).
    """
    own = {s.span_id: s.seconds for s in spans}
    pid_of = {s.span_id: s.pid for s in spans}
    for s in spans:
        if s.parent_id in own:
            share = 1.0 if s.pid == pid_of[s.parent_id] else 1.0 / workers
            own[s.parent_id] -= share * s.seconds
    return own


def layer_figures(spans: List[Span], root_pid: int,
                  workers: int) -> Dict[str, float]:
    """The per-layer figures of one traced iteration (sums over its
    spans; the caller takes medians across iterations)."""
    own = self_times(spans, workers)

    def total(*names: str) -> float:
        return sum(own[s.span_id] for s in spans if s.name in names)

    def steps(name: str) -> float:
        return sum(s.attrs.get("steps", 0) * s.attrs.get("members", 1)
                   for s in spans if s.name == name)

    def kips(name: str) -> float:
        seconds = total(name)
        return steps(name) / (seconds * 1000.0) if seconds else 0.0

    def mean_ms(name: str) -> float:
        durations = [s.seconds for s in spans if s.name == name]
        return 1000.0 * sum(durations) / len(durations) if durations else 0.0

    jobs = [s.seconds for s in spans if s.name in ("sim.job", "sim.grid_job")]
    decode_s = total("trace.load", "trace.columns")
    decoded_steps = sum(s.attrs.get("steps", 0) for s in spans
                        if s.name == "trace.load")
    # everything except the benchmark's own iteration span, with worker
    # spans weighted by their per-worker share
    layer_sum = sum(own[s.span_id] * (1.0 if s.pid == root_pid
                                      else 1.0 / workers)
                    for s in spans if s.name != "bench.iteration")
    return {
        "workloads.link_s": total("workloads.resolve", "workloads.link"),
        "trace.decode_s": decode_s,
        "trace.decode_ns_per_step": (1e9 * decode_s / decoded_steps
                                     if decoded_steps else 0.0),
        "cpu.scalar_pass_s": total("cpu.scalar_pass"),
        "cpu.scalar_kips": kips("cpu.scalar_pass"),
        "cpu.batch_pass_s": total("cpu.batch_pass"),
        "cpu.batch_kips": kips("cpu.batch_pass"),
        "cpu.grid_pass_s": total("cpu.grid_pass"),
        "cpu.grid_member_kips": kips("cpu.grid_pass"),
        "sim.job_p50_s": statistics.median(jobs) if jobs else 0.0,
        "sim.jobs": float(len(jobs)),
        "runner.store_put_ms": mean_ms("runner.store_put"),
        "runner.store_get_ms": mean_ms("runner.store_get"),
        "runner.backend_overhead_s": total("runner.sweep"),
        "experiments.self_s": total("experiments.table"),
        "bench.layer_sum_s": layer_sum,
    }
