"""Engine performance harness (``repro bench`` /
``benchmarks/bench_engines.py``).

Measures replay throughput (instructions per second, min-of-N wall
clock) of the fast engine's column loop over recorded traces, and
writes a machine-readable ``BENCH_<n>.json`` so the repository carries a
performance *trajectory*: every PR that touches a hot path can re-run
the bench and compare against the committed numbers instead of
asserting speedups in prose.

Four views are measured per workload:

``engine``
    One plain-binary :class:`~repro.cpu.fast.FastEngine` pass over an
    already-decoded trace (the ``batch`` row): the hot loop alone,
    decode excluded.  For :data:`SCALAR_REFERENCE`'s workload its
    calibrated throughput is compared with the frozen figure of the
    per-step evaluator the loop replaced — the ``--fail-below`` floor.
``job``
    A full :func:`~repro.sim.multi.run_all_schemes` evaluation (both
    binary passes, all schemes, energy attached) the way a sweep job
    runs it.  The ``cold`` row clears the decoded-trace cache before
    every run, so each job re-gunzips and re-decodes the file; the
    ``warm`` row resolves through the per-process LRU.
``grid``
    A :data:`GRID_POINTS`-geometry iTLB sweep: the ``solo`` row runs
    one independent :func:`~repro.sim.multi.run_all_schemes` job per
    geometry, the ``grid`` row evaluates every geometry in one shared
    :func:`~repro.sim.multi.run_all_schemes_grid` pass.  Both rows
    retire the same summed instruction count, so the speedup ratio is
    a pure wall-clock ratio.
``stream``
    The memory/speed trade of windowed decode: a full job with the
    decoded-trace cache cleared, once decoding eagerly (``eager`` row)
    and once under a forced ``REPRO_TRACE_WINDOW`` budget of a quarter
    of the largest segment's columns (``windowed`` row).  Each row
    records ``peak_window_bytes`` — the largest decoded window a run
    held at once (for eager, the full segment) — so the JSON carries
    the memory bound next to the throughput cost of honouring it.

Timing uses ``time.perf_counter`` around engine execution only (trace
recording and column decoding happen before the timed region, except in
the ``cold`` job row, where re-decoding *is* the point).  The two rows
of every paired view are compared for bit-identity, so a bench run
doubles as an equivalence check.  Every report also records
``calibration_seconds``, the time of a fixed pure-Python loop
(:func:`calibrate`): instr/s times that figure is throughput with the
host's speed divided out, comparable across machines and bench files.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.config import MachineConfig, TLBConfig, default_config
from repro.sim.multi import run_all_schemes, run_all_schemes_grid
from repro.telemetry.metrics import collect
from repro.trace.format import (
    COLUMN_BYTES_PER_STEP,
    clear_trace_cache,
    load_trace,
)
from repro.trace.record import record_trace
from repro.trace.replay import TraceWorkload
from repro.workloads.registry import resolve

#: bump when the JSON layout changes incompatibly
BENCH_FORMAT = 2

#: iterations of the fixed host-speed calibration loop
CALIBRATION_LOOP = 1_000_000

#: the per-step (scalar) evaluator's engine view on the ``--quick`` mesa
#: configuration, frozen at the last tree that had that evaluator
#: (CPython 3.11.7, two-CPU shared VM): the median of three runs by
#: calibrated throughput, each run min-of-3.  ``BENCH_14.json`` carries
#: it, and every report repeats it.
SCALAR_REFERENCE = {
    "workload": "177.mesa",
    "instructions": 30_000,
    "warmup": 5_000,
    "instr_per_sec": 105893.04635923516,
    "calibration_seconds": 0.12090057999921555,
}

#: workloads benched by default (full mode); ``--quick`` keeps only mesa
DEFAULT_WORKLOADS = ("177.mesa", "micro.straight_line",
                     "micro.taken_pattern")

#: the workload ``--quick`` benches (the reference's)
MESA = SCALAR_REFERENCE["workload"]

#: iTLB geometries the ``grid`` view sweeps (fully associative entries)
GRID_POINTS = (1, 2, 4, 8, 16, 32)


@dataclass
class BenchRecord:
    """One (workload, row, view) measurement."""

    workload: str
    #: the row: "batch" (engine view), "cold" | "warm" (job),
    #: "solo" | "grid" (grid), "eager" | "windowed" (stream)
    engine: str
    mode: str  #: "engine" (one pass) | "job" (full run_all_schemes)
    #:  | "grid" (N-geometry sweep) | "stream" (decode-strategy trade)
    instructions: int  #: instructions retired per timed run
    repeats: int
    best_seconds: float
    mean_seconds: float
    instr_per_sec: float
    #: largest decoded window held at once (``stream`` view only; the
    #: ``eager`` row reports the full largest-segment columns)
    peak_window_bytes: Optional[int] = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _time(fn: Callable[[], int], repeats: int) -> tuple:
    """Run ``fn`` ``repeats`` times; returns (best, mean, instructions).

    ``fn`` returns the number of instructions it retired; min-of-N wall
    time filters scheduler noise (the canonical bench discipline)."""
    times: List[float] = []
    instructions = 0
    for _ in range(repeats):
        start = time.perf_counter()
        instructions = fn()
        times.append(time.perf_counter() - start)
    return min(times), sum(times) / len(times), instructions


def ensure_trace(workload: str, trace_dir: Union[str, Path], *,
                 instructions: int, warmup: int,
                 config: Optional[MachineConfig] = None,
                 log: Callable[[str], None] = lambda _: None) -> Path:
    """Record ``workload`` into ``trace_dir`` (once: recording is
    deterministic, so an existing file is reused)."""
    config = config or default_config()
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    safe = workload.replace("/", "_").replace(":", "_")
    path = trace_dir / f"{safe}.i{instructions}.w{warmup}.trace.gz"
    if not path.exists():
        log(f"recording {workload} ({instructions:,}+{warmup:,} "
            f"instructions) -> {path}")
        record_trace(workload, config, instructions=instructions,
                     warmup=warmup, path=path)
    return path


def calibrate(repeats: int = 3) -> float:
    """Seconds for a fixed pure-Python loop (best of ``repeats``): the
    host-speed yardstick that makes instr/s comparable across machines
    and across bench files."""
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i * i % 7
        seconds = time.perf_counter() - started
        best = seconds if best is None else min(best, seconds)
    return best


def calibrated(instr_per_sec: float, calibration_seconds: float) -> float:
    """Instructions per calibration loop — instr/s with host speed
    divided out."""
    return instr_per_sec * calibration_seconds


def bench_workload(workload: str, trace_path: Union[str, Path], *,
                   instructions: int, warmup: int, repeats: int,
                   config: Optional[MachineConfig] = None,
                   log: Callable[[str], None] = lambda _: None
                   ) -> List[BenchRecord]:
    """Bench one recorded trace; returns one ``engine`` record and a
    pair each for ``job``, ``grid`` and ``stream``.  Raises
    :class:`RuntimeError` if the two rows of a pair ever disagree — a
    bench must never publish numbers for diverging paths."""
    from repro.cpu.fast import FastEngine

    config = config or default_config()
    trace_path = Path(trace_path)
    trace_name = f"trace:{trace_path}"
    records: List[BenchRecord] = []

    def record(engine_name: str, mode: str, timed: tuple,
               note: str = "", **extra) -> None:
        best, mean, retired = timed
        records.append(BenchRecord(
            workload=workload, engine=engine_name, mode=mode,
            instructions=retired, repeats=repeats, best_seconds=best,
            mean_seconds=mean, instr_per_sec=retired / best, **extra))
        log(f"{workload:24s} {engine_name:8s} {mode:6s} "
            f"{retired / best:>11,.0f} instr/s (best of {repeats}: "
            f"{best:.3f}s{note})")

    def same(runs: Sequence, what: str) -> None:
        first, second = (json.dumps(run.to_dict(), sort_keys=True)
                         for run in runs)
        if first != second:
            raise RuntimeError(
                f"bench aborted: {what} diverged on {workload} — run the "
                "equivalence suites (tests/test_batch_engine.py, "
                "tests/test_streaming.py)")

    # -- engine view: one plain-binary pass, decode excluded ------------
    # stream=False pins the eager decode even under a forced
    # $REPRO_TRACE_WINDOW: this view isolates the hot loop, so decode
    # must stay outside the timed region
    trace_workload = TraceWorkload(trace_path,
                                   load_trace(trace_path, stream=False))
    program = trace_workload.link(page_bytes=config.mem.page_bytes,
                                  instrumented=False)
    program.segment.columns()  # decode outside the timed region

    def run_engine() -> int:
        result = FastEngine(program, config).run(instructions, warmup)
        return result.shared.instructions + warmup

    record("batch", "engine", _time(run_engine, repeats))

    # -- job view: full run_all_schemes, cold vs warm decode ------------
    def _job_retired(run) -> int:
        return (run.plain.shared.instructions
                + run.instrumented.shared.instructions + 2 * warmup)

    job_runs: Dict[str, object] = {}

    def run_job(engine_name: str, cold: bool) -> Callable[[], int]:
        def go() -> int:
            if cold:
                clear_trace_cache()  # re-gunzip and re-decode per job
            run = run_all_schemes(resolve(trace_name), config,
                                  instructions=instructions, warmup=warmup)
            job_runs[engine_name] = run
            return _job_retired(run)
        return go

    for engine_name, cold in (("cold", True), ("warm", False)):
        record(engine_name, "job", _time(run_job(engine_name, cold),
                                         repeats))
    same((job_runs["cold"], job_runs["warm"]), "cold and warm jobs")

    # -- grid view: N geometries, independent jobs vs one shared pass ---
    grid_configs = [config.with_itlb(TLBConfig(entries=entries))
                    for entries in GRID_POINTS]
    grid_runs: Dict[str, list] = {}

    def run_solo() -> int:
        runs = [run_all_schemes(resolve(trace_name), member,
                                instructions=instructions, warmup=warmup)
                for member in grid_configs]
        grid_runs["solo"] = runs
        return sum(_job_retired(run) for run in runs)

    def run_gridded() -> int:
        runs = run_all_schemes_grid(resolve(trace_name), grid_configs,
                                    instructions=instructions,
                                    warmup=warmup)
        grid_runs["grid"] = runs
        return sum(_job_retired(run) for run in runs)

    for engine_name, fn in (("solo", run_solo), ("grid", run_gridded)):
        record(engine_name, "grid", _time(fn, repeats),
               f", {len(GRID_POINTS)} geometries")
    for pair in zip(grid_runs["solo"], grid_runs["grid"]):
        same(pair, "a grid member and its independent job")

    # -- stream view: eager vs windowed decode of the same cold job -----
    # window budget: a quarter of the largest segment's columns, so the
    # windowed run provably never holds the decoded trace whole
    full_bytes = max(COLUMN_BYTES_PER_STEP * len(s.records)
                     for s in trace_workload.trace.segments)
    window_bytes = max(COLUMN_BYTES_PER_STEP, full_bytes // 4)
    stream_runs: Dict[str, object] = {}
    stream_peak = {"bytes": 0}

    def run_stream(engine_name: str,
                   window: Optional[int]) -> Callable[[], int]:
        def go() -> int:
            clear_trace_cache()  # both rows pay the cold decode
            saved = os.environ.get("REPRO_TRACE_WINDOW")
            if window is None:
                os.environ.pop("REPRO_TRACE_WINDOW", None)
            else:
                os.environ["REPRO_TRACE_WINDOW"] = str(window)
            try:
                with collect() as metrics:
                    run = run_all_schemes(resolve(trace_name), config,
                                          instructions=instructions,
                                          warmup=warmup)
                if (window is not None
                        and metrics.stream_peak_bytes
                        > stream_peak["bytes"]):
                    stream_peak["bytes"] = metrics.stream_peak_bytes
                stream_runs[engine_name] = run
                return _job_retired(run)
            finally:
                if saved is None:
                    os.environ.pop("REPRO_TRACE_WINDOW", None)
                else:
                    os.environ["REPRO_TRACE_WINDOW"] = saved
        return go

    for engine_name, window in (("eager", None), ("windowed", window_bytes)):
        timed = _time(run_stream(engine_name, window), repeats)
        peak = full_bytes if window is None else stream_peak["bytes"]
        record(engine_name, "stream", timed, f", peak window {peak:,} B",
               peak_window_bytes=peak)
    same((stream_runs["eager"], stream_runs["windowed"]),
         "windowed and eager decode")
    if stream_peak["bytes"] > window_bytes:
        raise RuntimeError(
            f"bench aborted: windowed decode of {workload} peaked at "
            f"{stream_peak['bytes']:,} bytes over its "
            f"{window_bytes:,}-byte budget")
    return records


#: the paired views and their (baseline, compared) rows
PAIRS = (("job", "cold", "warm"), ("grid", "solo", "grid"),
         ("stream", "eager", "windowed"))


def speedups(records: Sequence[BenchRecord],
             calibration_seconds: float) -> Dict[str, Dict[str, float]]:
    """Per-workload instr-per-sec ratios, per view: warm/cold for
    ``job``, grid/solo for ``grid``, windowed/eager for ``stream``
    (typically ≤ 1 — it prices the memory bound, it does not chase a
    speedup).  ``engine`` — for :data:`SCALAR_REFERENCE`'s workload
    only — is the engine row's calibrated throughput over the frozen
    per-step reference's."""
    by_key: Dict[tuple, BenchRecord] = {
        (r.workload, r.mode, r.engine): r for r in records}
    out: Dict[str, Dict[str, float]] = {}
    for workload in {r.workload for r in records}:
        entry = {}
        for mode, base_name, compared_name in PAIRS:
            base = by_key.get((workload, mode, base_name))
            compared = by_key.get((workload, mode, compared_name))
            if base and compared and base.instr_per_sec:
                entry[mode] = compared.instr_per_sec / base.instr_per_sec
        engine = by_key.get((workload, "engine", "batch"))
        if engine and workload == SCALAR_REFERENCE["workload"]:
            entry["engine"] = (
                calibrated(engine.instr_per_sec, calibration_seconds)
                / calibrated(SCALAR_REFERENCE["instr_per_sec"],
                             SCALAR_REFERENCE["calibration_seconds"]))
        out[workload] = entry
    return out


def run_bench(*, workloads: Sequence[str] = DEFAULT_WORKLOADS,
              instructions: int = 60_000, warmup: int = 10_000,
              repeats: int = 5, trace_dir: Union[str, Path] = ".bench-traces",
              config: Optional[MachineConfig] = None,
              log: Callable[[str], None] = lambda _: None) -> dict:
    """Record (once) and bench every workload; returns the JSON payload.
    The calibration loop runs before and after the benches; the faster
    of the two is the host-speed figure."""
    config = config or default_config()
    records: List[BenchRecord] = []
    before = calibrate()
    for workload in workloads:
        path = ensure_trace(workload, trace_dir, instructions=instructions,
                            warmup=warmup, config=config, log=log)
        records.extend(bench_workload(
            workload, path, instructions=instructions, warmup=warmup,
            repeats=repeats, config=config, log=log))
    calibration_seconds = min(before, calibrate())
    log(f"calibration loop: {calibration_seconds:.4f}s")
    return {
        "bench_format": BENCH_FORMAT,
        "window": {"instructions": instructions, "warmup": warmup},
        "repeats": repeats,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "calibration_seconds": calibration_seconds,
        "scalar_reference": SCALAR_REFERENCE,
        "results": [r.to_dict() for r in records],
        "speedups": speedups(records, calibration_seconds),
    }


def check_floor(payload: dict, floor: float) -> List[str]:
    """Failures (empty = pass): the engine view of the reference
    workload must reach ``floor`` x the frozen per-step reference's
    calibrated throughput."""
    workload = payload["scalar_reference"]["workload"]
    ratio = payload.get("speedups", {}).get(workload, {}).get("engine")
    if ratio is None:
        return [f"{workload}: no engine-view measurement"]
    if ratio < floor:
        return [f"{workload}: the engine runs at {ratio:.2f}x the frozen "
                f"per-step reference, calibrated (floor {floor:.2f}x)"]
    return []
