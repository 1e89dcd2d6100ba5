"""The benchmark's three workloads, written against the public API of
``repro``.

Each workload has a set-up (repeated so its time can be reported as a
median), a ``prepare`` step that puts the process back in the state
the timed work expects (untimed), the timed ``iterate`` itself, and a
``finish`` step that reads the outcome back and checks it (untimed).
See ``README.md`` for why these three and what each one stresses.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import (
    FULL_ASSOC,
    ITLB_SWEEP,
    CacheAddressing,
    SchemeName,
    TLBConfig,
    default_config,
)
from repro.experiments import common, fig4, fig5
from repro.runner import JobSpec, ResultStore, SweepRunner
from repro.sim.multi import CombinedRun
from repro.trace.format import clear_trace_cache
from repro.trace.record import record_trace
from repro.workloads import registry
from repro.workloads.spec2000 import BENCHMARK_NAMES, profile_for

#: the SPEC stand-ins the replay workloads record
REPLAY_BENCHMARKS = ("177.mesa", "254.gap", "252.eon")
#: the iTLB geometries the replay workloads sweep: Tables 6/7's four
#: design points plus two larger ones
REPLAY_GEOMETRIES = ITLB_SWEEP + (TLBConfig(entries=64, assoc=FULL_ASSOC),
                                  TLBConfig(entries=128, assoc=4))
ADDRESSINGS = (CacheAddressing.VIPT, CacheAddressing.VIVT)
#: pool size of ``replay_fanout`` (the host has two CPUs)
FANOUT_WORKERS = 2

# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Seeds:
    """``order`` permutes the order jobs (and table rows) are handed to
    the program; ``workload`` picks the generated programs themselves."""

    order: int
    workload: int

    def shuffled(self, items: Sequence) -> list:
        items = list(items)
        random.Random(self.order).shuffle(items)
        return items


def workload_names(seed: int) -> Tuple[str, ...]:
    """Workload seed 0 is the six shipped SPEC stand-ins, verbatim.
    Any other seed registers reseeded copies under derived names; the
    program only ever sees the registered workloads."""
    if seed == 0:
        return BENCHMARK_NAMES
    return tuple(_reseeded(name, seed).name for name in BENCHMARK_NAMES)


def _reseeded(name: str, seed: int):
    profile = profile_for(name)
    derived = zlib.crc32(f"{profile.seed}:{seed}".encode()) & 0x7FFFFFFF
    return dataclasses.replace(profile, name=f"{name}.s{seed}", seed=derived)


def register_workloads(seed: int) -> Tuple[str, ...]:
    """Register (or re-register) the seed's workloads with no memoized
    program, so the next ``resolve`` generates each one afresh."""
    for name in BENCHMARK_NAMES:
        if seed == 0:
            registry.unregister(name)  # reverts to the builtin, unmemoized
        else:
            registry.register_profile(_reseeded(name, seed), replace=True)
    return workload_names(seed)


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one iteration produced, read back after the timer stopped."""

    #: (spec, result) for every distinct job
    runs: List[Tuple[JobSpec, CombinedRun]]
    attempted: int  #: jobs the iteration asked for
    problems: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        # job order is an input (the order seed); every figure derived
        # from the runs must not depend on it, down to float rounding
        self.runs.sort(key=lambda pair: pair[0].key)

    def fingerprint(self) -> str:
        """SHA-256 over every result's canonical JSON."""
        digest = hashlib.sha256()
        for spec, run in self.runs:
            digest.update(spec.key.encode())
            digest.update(canonical(run).encode())
        return digest.hexdigest()

    def simulated_instructions(self) -> int:
        """Instructions the results cover: both binaries, warm-up
        included, every job once."""
        total = 0
        for spec, run in self.runs:
            total += run.plain.shared.instructions + spec.warmup
            if run.instrumented is not run.plain:
                total += run.instrumented.shared.instructions + spec.warmup
        return total


def canonical(run: CombinedRun) -> str:
    return json.dumps(run.to_dict(), sort_keys=True, separators=(",", ":"))


def sweep_outcome(results) -> Outcome:
    """The successful jobs of one sweep (its specs are all distinct)."""
    problems = [f"job failed: {r.spec.describe()}"
                for r in results if not r.ok]
    runs = [(r.spec, r.run) for r in results if r.ok]
    return Outcome(runs=runs, attempted=len(results), problems=problems)


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------


class LivePaper:
    """Figure 4 (both panels) and Figure 5 from the live SPEC stand-ins,
    serial backend, in-memory store."""

    name = "live_paper"
    workers = 1
    instructions = 16_000
    warmup = 3_000

    def __init__(self, seeds: Seeds, work: Path) -> None:
        self.seeds = seeds
        self.names: Tuple[str, ...] = ()
        #: problems found once per run (not per iteration)
        self.problems: List[str] = []

    def setup(self) -> Dict[str, float]:
        self.names = tuple(self.seeds.shuffled(
            register_workloads(self.seeds.workload)))
        return {}

    def prepare(self) -> None:
        register_workloads(self.seeds.workload)
        common.clear_cache()

    def settings(self) -> common.ExperimentSettings:
        return common.default_settings(
            instructions=self.instructions, warmup=self.warmup,
            benchmarks=self.names, workers=1, backend="serial")

    def iterate(self) -> tuple:
        settings = self.settings()
        return fig4.run(settings), fig5.run(settings)

    def finish(self, tables) -> Outcome:
        figure4, figure5 = tables
        settings = self.settings()
        runs = []
        for bench in self.names:
            for addressing in ADDRESSINGS:
                config = default_config(addressing)
                runs.append((common.job_for(bench, config, settings),
                             common.combined_run(bench, config, settings)))
        problems: List[str] = []
        avg = next(row for row in figure4.rows
                   if row["iL1"] == "vi-pt" and row["benchmark"] == "average")
        if not avg["opt"] <= avg["ia"] < avg["soca"] < 100.0:
            problems.append(
                f"Figure 4 VI-PT average out of shape: OPT {avg['opt']:.3f}"
                f" IA {avg['ia']:.3f} SoCA {avg['soca']:.3f}")
        return Outcome(runs=runs, attempted=len(runs), problems=problems)

    def entry_kb(self) -> float:
        return 0.0  # in-memory store: no entries on disk

    def cleanup(self) -> None:
        pass


class _Replay:
    """Shared set-up of the replay workloads: record the traces."""

    workers = 1
    instructions = 8_000
    warmup = 1_500

    def __init__(self, seeds: Seeds, work: Path) -> None:
        self.seeds = seeds
        self.trace_dir = work / "traces"
        self.store_dir = work / "store"
        self.specs: List[JobSpec] = []
        #: job key -> canonical live run of the recording config
        self.live: Dict[str, str] = {}
        self.trace_digests: Optional[List[str]] = None
        #: problems found once per run (not per iteration)
        self.problems: List[str] = []

    def setup(self) -> Dict[str, float]:
        """Register the workloads and record one trace per benchmark
        (live, both binaries).  Returns per-trace record seconds and
        file sizes for the traced report."""
        names = dict(zip(BENCHMARK_NAMES,
                         register_workloads(self.seeds.workload)))
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        config = default_config()
        record_s, file_kb, digests, live = [], [], [], {}
        for bench in REPLAY_BENCHMARKS:
            path = self.trace_path(bench)
            started = time.perf_counter()
            run = record_trace(names[bench], config,
                               instructions=self.instructions,
                               warmup=self.warmup, path=path)
            record_s.append(time.perf_counter() - started)
            file_kb.append(path.stat().st_size / 1024.0)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
            spec = JobSpec(workload=f"trace:{path}", config=config,
                           instructions=self.instructions, warmup=self.warmup)
            live[spec.key] = canonical(run)
        if self.trace_digests is None:
            self.trace_digests = digests
        elif digests != self.trace_digests:
            self.problems.append("re-recording changed a trace's bytes")
        self.live = live
        self.specs = self._specs()
        return {"trace.record_s": sum(record_s) / len(record_s),
                "trace.file_kb": sum(file_kb) / len(file_kb)}

    def trace_path(self, bench: str) -> Path:
        return (self.trace_dir / f"{bench}.trace.gz").resolve()

    def _specs(self) -> List[JobSpec]:
        specs = []
        for bench in REPLAY_BENCHMARKS:
            workload = f"trace:{self.trace_path(bench)}"
            for addressing in ADDRESSINGS:
                for geometry in REPLAY_GEOMETRIES:
                    specs.append(JobSpec(
                        workload=workload,
                        config=default_config(addressing).with_itlb(geometry),
                        instructions=self.instructions, warmup=self.warmup))
        missing = set(self.live) - {spec.key for spec in specs}
        if missing:
            raise RuntimeError("the recording config is not in the sweep")
        return self.seeds.shuffled(specs)

    def prepare(self) -> None:
        clear_trace_cache()
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def cleanup(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def entry_kb(self) -> float:
        sizes = [p.stat().st_size for p in self.store_dir.glob("*.json")]
        return sum(sizes) / len(sizes) / 1024.0 if sizes else 0.0

    def check_live(self, outcome: Outcome) -> None:
        """Replays at the recording config equal the live runs."""
        by_key = {spec.key: run for spec, run in outcome.runs}
        for key, live in self.live.items():
            if key not in by_key or canonical(by_key[key]) != live:
                outcome.problems.append(
                    f"replay differs from the live run (job {key[:12]})")


class ReplayGrid(_Replay):
    """Every (trace x geometry) job through a serial grid-planning sweep
    into a fresh on-disk store, with a cold decoded-trace cache."""

    name = "replay_grid"

    def iterate(self):
        runner = SweepRunner(store=ResultStore(self.store_dir), workers=1,
                             backend="serial", grid=True)
        return runner.run(self.specs)

    def finish(self, results) -> Outcome:
        outcome = sweep_outcome(results)
        self.check_live(outcome)
        return outcome


class ReplayFanout(_Replay):
    """The same jobs as independent pool jobs into a fresh store, then
    again against the now-warm store (every job a cache hit)."""

    name = "replay_fanout"
    workers = FANOUT_WORKERS

    def _runner(self) -> SweepRunner:
        return SweepRunner(store=ResultStore(self.store_dir),
                           workers=self.workers, backend="pool", grid=False)

    def iterate(self):
        cold = self._runner().run(self.specs)
        warm = self._runner().run(self.specs)
        return cold, warm

    def finish(self, passes) -> Outcome:
        cold, warm = passes
        outcome = sweep_outcome(cold)
        outcome.attempted += len(warm)
        for first, second in zip(cold, warm):
            if not second.cached:
                outcome.problems.append(
                    f"warm pass missed the store: {second.spec.describe()}")
            elif first.ok and canonical(first.run) != canonical(second.run):
                outcome.problems.append(
                    f"warm pass differs from cold: {second.spec.describe()}")
        self.check_live(outcome)
        return outcome


WORKLOADS = {cls.name: cls for cls in (LivePaper, ReplayGrid, ReplayFanout)}


# ---------------------------------------------------------------------------
# Simulated figures (deterministic: only a model change may move them)
# ---------------------------------------------------------------------------


def _binary(run: CombinedRun, scheme: SchemeName):
    return run.instrumented if scheme.needs_instrumented_binary else run.plain


def simulated_figures(runs: Sequence[Tuple[JobSpec, CombinedRun]]
                      ) -> Dict[str, float]:
    """The end-to-end simulated metrics and the ``model.*`` counts."""
    figures: Dict[str, float] = {}
    by_addressing: Dict[CacheAddressing, List[CombinedRun]] = {}
    for _spec, run in runs:
        by_addressing.setdefault(run.config.il1_addressing, []).append(run)

    def mean(values):
        values = list(values)
        return sum(values) / len(values)

    vipt = by_addressing.get(CacheAddressing.VIPT, [])
    vivt = by_addressing.get(CacheAddressing.VIVT, [])
    figures["ia_energy_pct"] = mean(
        100.0 * r.normalized_energy(SchemeName.IA) for r in vipt)
    figures["ia_cycles_pct"] = mean(
        100.0 * r.normalized_cycles(SchemeName.IA) for r in vivt)
    gaps = []
    for addressing, group in by_addressing.items():
        for scheme_name, paper in fig4.PAPER_AVERAGES[addressing].items():
            scheme = SchemeName(scheme_name)
            ours = mean(100.0 * r.normalized_energy(scheme) for r in group)
            gaps.append(abs(ours - paper))
    figures["paper_err_pp"] = mean(gaps)

    all_runs = [run for _spec, run in runs]

    def per_kilo(scheme: SchemeName, count: Callable) -> float:
        events = sum(count(r.scheme(scheme)) for r in all_runs)
        useful = sum(_binary(r, scheme).shared.useful_instructions
                     for r in all_runs)
        return 1000.0 * events / useful

    for scheme in (SchemeName.BASE, SchemeName.SOCA, SchemeName.SOLA,
                   SchemeName.IA):
        figures[f"model.itlb_lookups_pki.{scheme.value}"] = per_kilo(
            scheme, lambda s: s.counters.lookups)
    figures["model.itlb_misses_pki.ia"] = per_kilo(
        SchemeName.IA, lambda s: s.counters.misses)
    figures["model.ia_extra_cycles_pki"] = per_kilo(
        SchemeName.IA, lambda s: s.extra_cycles)
    plain = [r.plain.shared for r in all_runs]
    figures["model.page_crossings_pki"] = (
        1000.0 * sum(s.page_crossings for s in plain)
        / sum(s.useful_instructions for s in plain))
    figures["model.boundary_overhead_pct"] = mean(
        100.0 * r.boundary_overhead_fraction for r in all_runs)
    branches = sum(s.predictor.branches for s in plain)
    figures["model.bpred_accuracy_pct"] = (
        100.0 * (branches - sum(s.predictor.mispredicts for s in plain))
        / branches)
    return figures

