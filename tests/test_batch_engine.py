"""Batch-engine equivalence, flat-array columns, trace memoization, and
the bench harness.

The batched replay engine's one invariant is *bit-identity* with the
scalar fast engine: every counter, cycle, and energy number of
``EngineResult.to_dict()`` must match byte for byte, for every workload,
iL1 addressing discipline, binary, and scheme set.  This suite pins that
over all six micro workloads, the mesa SPEC stand-in, and both imported
foreign fixtures — serially and through a two-worker sweep.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import (
    CacheAddressing,
    SchemeName,
    TLBConfig,
    default_config,
)
from repro.cpu.batch import BatchEngine
from repro.cpu.fast import FastEngine
from repro.errors import ConfigError, TraceError
from repro.runner import (
    FileQueue,
    FileQueueBackend,
    JobSpec,
    ResultStore,
    SweepRunner,
)
from repro.runner.gridspec import GridSpec, grid_eligible, plan_units
from repro.sim.multi import run_all_schemes
from repro.sim.simulator import Simulator
from repro.trace.format import (
    PLAIN_KINDS,
    TRACE_CACHE_CAPACITY,
    clear_trace_cache,
    load_trace,
)
from repro.trace.record import record_trace
from repro.trace.replay import load_trace_workload
from repro.workloads.registry import MICROBENCH_NAMES, resolve

GOLDEN_MESA = Path(__file__).parent / "golden" / "mesa.trace.gz"
FIXTURES = Path(__file__).parent / "fixtures"

#: recording window for the per-micro traces (small: 9 workloads x 3
#: addressings x 2 engines run over these)
MICRO_INSTRUCTIONS, MICRO_WARMUP = 2_000, 300
MESA_INSTRUCTIONS, MESA_WARMUP = 3_000, 500

ADDRESSINGS = tuple(CacheAddressing)


@pytest.fixture(scope="module")
def micro_traces(tmp_path_factory):
    """One recorded trace per microbenchmark (module-scoped: recording
    runs the live simulator twice per workload)."""
    root = tmp_path_factory.mktemp("batch-traces")
    paths = {}
    for name in MICROBENCH_NAMES:
        path = root / f"{name}.trace.gz"
        record_trace(f"micro.{name}", default_config(),
                     instructions=MICRO_INSTRUCTIONS, warmup=MICRO_WARMUP,
                     path=path)
        paths[f"micro.{name}"] = path
    return paths


def _canon(run) -> str:
    return json.dumps(run.to_dict(), sort_keys=True)


def _assert_equivalent(workload, config, instructions, warmup):
    """scalar vs batch full evaluation must serialize identically."""
    scalar = run_all_schemes(workload, config, instructions=instructions,
                             warmup=warmup, engine="scalar")
    batch = run_all_schemes(workload, config, instructions=instructions,
                            warmup=warmup, engine="batch")
    assert _canon(scalar) == _canon(batch)
    # and the default engine must pick the batch path transparently
    auto = run_all_schemes(workload, config, instructions=instructions,
                           warmup=warmup)
    assert _canon(auto) == _canon(scalar)


class TestEquivalence:
    @pytest.mark.parametrize("addressing", ADDRESSINGS,
                             ids=[a.value for a in ADDRESSINGS])
    @pytest.mark.parametrize("name", [f"micro.{m}"
                                      for m in MICROBENCH_NAMES])
    def test_micro_workloads(self, micro_traces, name, addressing):
        workload = load_trace_workload(micro_traces[name])
        _assert_equivalent(workload, default_config(addressing),
                           MICRO_INSTRUCTIONS, MICRO_WARMUP)

    @pytest.mark.parametrize("addressing", ADDRESSINGS,
                             ids=[a.value for a in ADDRESSINGS])
    def test_mesa_golden_trace(self, addressing):
        workload = load_trace_workload(GOLDEN_MESA)
        _assert_equivalent(workload, default_config(addressing),
                           MESA_INSTRUCTIONS, MESA_WARMUP)

    @pytest.mark.parametrize("addressing", ADDRESSINGS,
                             ids=[a.value for a in ADDRESSINGS])
    @pytest.mark.parametrize("name", [
        f"import:eio:{FIXTURES / 'twopage.eio.txt'}",
        f"import:gem5:{FIXTURES / 'loopcall.gem5.txt.gz'}",
    ], ids=["eio", "gem5"])
    def test_imported_fixtures(self, name, addressing):
        _assert_equivalent(resolve(name), default_config(addressing),
                           600, 100)

    @pytest.mark.parametrize("schemes", [
        (SchemeName.BASE,),
        (SchemeName.OPT,),
        (SchemeName.SOCA, SchemeName.IA),
        (SchemeName.HOA, SchemeName.SOLA),
    ], ids=["base", "opt", "soca+ia", "hoa+sola"])
    def test_scheme_subsets(self, schemes):
        workload = load_trace_workload(GOLDEN_MESA)
        config = default_config()
        scalar = run_all_schemes(workload, config,
                                 instructions=MESA_INSTRUCTIONS,
                                 warmup=MESA_WARMUP, schemes=schemes,
                                 engine="scalar")
        batch = run_all_schemes(workload, config,
                                instructions=MESA_INSTRUCTIONS,
                                warmup=MESA_WARMUP, schemes=schemes,
                                engine="batch")
        assert _canon(scalar) == _canon(batch)

    def test_zero_warmup_and_tiny_windows(self):
        workload = load_trace_workload(GOLDEN_MESA)
        config = default_config()
        for instructions, warmup in ((1, 0), (17, 0), (100, 3)):
            scalar = run_all_schemes(workload, config,
                                     instructions=instructions,
                                     warmup=warmup, engine="scalar")
            batch = run_all_schemes(workload, config,
                                    instructions=instructions,
                                    warmup=warmup, engine="batch")
            assert _canon(scalar) == _canon(batch)

    def test_engine_result_reports_fast(self):
        """Batch results are the fast engine's results (cache keys,
        golden files, and record->replay identity depend on it)."""
        workload = load_trace_workload(GOLDEN_MESA)
        run = run_all_schemes(workload, default_config(),
                              instructions=500, warmup=0, engine="batch")
        assert run.plain.engine == "fast"


class TestSweepEquivalence:
    """Auto-selected batch engine through the runner, serial and
    parallel."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers2"])
    def test_sweep_matches_scalar(self, tmp_path, workers):
        spec_args = dict(config=default_config(),
                         instructions=MESA_INSTRUCTIONS,
                         warmup=MESA_WARMUP)
        name = f"trace:{GOLDEN_MESA}"
        fast = JobSpec(workload=name, engine="fast", **spec_args)
        scalar = JobSpec(workload=name, engine="scalar", **spec_args)
        assert fast.key != scalar.key  # forced runs cache separately
        runner = SweepRunner(store=ResultStore(tmp_path / "cache"),
                             workers=workers)
        results = {r.spec.engine: r for r in runner.run([fast, scalar])}
        assert results["fast"].ok and results["scalar"].ok, results
        assert (_canon(results["fast"].run)
                == _canon(results["scalar"].run))


#: the member geometries every grid-equivalence case sweeps
GRID_ENTRIES = (1, 8, 32)

#: live grid members: both iL1 addressings x two iTLB geometries — one
#: unit (one link and capture per binary), two sub-passes
LIVE_GRID_CONFIGS = tuple(
    default_config(addressing).with_itlb(geometry)
    for addressing in (CacheAddressing.VIPT, CacheAddressing.VIVT)
    for geometry in (TLBConfig(entries=8), TLBConfig(entries=32, assoc=4)))

#: live windows: the mesa stand-in and a microbenchmark
LIVE_GRID_WORKLOADS = {"177.mesa": (MESA_INSTRUCTIONS, MESA_WARMUP),
                       "micro.call_return": (MICRO_INSTRUCTIONS,
                                             MICRO_WARMUP)}


def _grid_specs(name: str, instructions: int, warmup: int,
                configs=None):
    if configs is None:
        configs = [default_config().with_itlb(TLBConfig(entries=entries))
                   for entries in GRID_ENTRIES]
    return [JobSpec(workload=name, config=config,
                    instructions=instructions, warmup=warmup)
            for config in configs]


def _store_entries(root: Path) -> dict:
    """Every store entry under ``root`` by file name, wall-clock metrics
    stripped (the only part two runs of one job may differ in)."""
    entries = {}
    for path in sorted(root.glob("*.json")):
        entry = json.loads(path.read_text())
        entry.pop("metrics", None)
        entries[path.name] = entry
    return entries


def _assert_grid_identical(name, instructions, warmup, tmp_path,
                           configs=None, **runner_kwargs):
    """A gridded sweep must byte-match per-member independent jobs —
    results *and* store entries (same content under the same keys)."""
    specs = _grid_specs(name, instructions, warmup, configs)
    solo = SweepRunner(store=ResultStore(tmp_path / "solo"), grid=False)
    solo_results = solo.run(specs)
    assert solo.last_stats.grids == 0
    gridded = SweepRunner(store=ResultStore(tmp_path / "grid"),
                          **runner_kwargs)
    grid_results = gridded.run(specs)
    assert gridded.last_stats.grids >= 1
    assert gridded.last_stats.grid_members == len(specs)
    for one, many in zip(solo_results, grid_results):
        assert one.ok, one.error
        assert many.ok, many.error
        assert many.spec.key == one.spec.key
        assert _canon(one.run) == _canon(many.run)
    # every member lands under its unchanged content-addressed key
    solo_entries = _store_entries(tmp_path / "solo")
    assert len(solo_entries) == len(specs)
    assert solo_entries == _store_entries(tmp_path / "grid")


class TestGridPlanning:
    """The unit rule: same workload, window, scheme set, engine and page
    size; iL1 addressing and iTLB geometry may vary within a unit."""

    def test_live_specs_form_one_unit_across_addressings(self):
        specs = _grid_specs("177.mesa", 2_000, 300, LIVE_GRID_CONFIGS)
        (unit,) = plan_units(specs)
        assert isinstance(unit, GridSpec)
        assert unit.members == tuple(specs)
        assert unit.sub_passes == 2
        assert "vi-pt/vi-vt" in unit.describe()

    def test_page_size_splits_units(self):
        small = [c.with_page_bytes(4096) for c in LIVE_GRID_CONFIGS[:2]]
        large = [c.with_page_bytes(8192) for c in LIVE_GRID_CONFIGS[:2]]
        units = plan_units(_grid_specs("177.mesa", 2_000, 300,
                                       small + large))
        assert [len(u.members) for u in units] == [2, 2]
        with pytest.raises(ConfigError, match="'page size'"):
            GridSpec(members=tuple(_grid_specs(
                "177.mesa", 2_000, 300, [small[0], large[1]])))

    def test_solo_and_ineligible_specs_stay_jobs(self):
        """A live job with no partner stays solo (scalar engine); live
        jobs on a forced engine never grid."""
        lone = _grid_specs("micro.call_return", 2_000, 300,
                           LIVE_GRID_CONFIGS[:1])
        forced = [JobSpec(workload="177.mesa", config=config,
                          instructions=2_000, warmup=300, engine=engine)
                  for engine in ("scalar", "batch")
                  for config in LIVE_GRID_CONFIGS[:2]]
        assert not any(grid_eligible(spec) for spec in forced)
        units = plan_units(lone + forced)
        assert units == lone + forced
        with pytest.raises(ConfigError, match="cannot join a grid"):
            GridSpec(members=tuple(forced[:2]))

    def test_window_mismatch_rejected(self):
        specs = (_grid_specs("177.mesa", 2_000, 300, LIVE_GRID_CONFIGS[:1])
                 + _grid_specs("177.mesa", 2_000, 400,
                               LIVE_GRID_CONFIGS[1:2]))
        assert len(plan_units(specs)) == 2
        with pytest.raises(ConfigError, match="'warmup'"):
            GridSpec(members=tuple(specs))


class TestGridEquivalence:
    """One shared decode/predictor/iL1 pass over N iTLB geometries vs N
    independent jobs, through every backend."""

    @pytest.mark.parametrize("name", [f"micro.{m}"
                                      for m in MICROBENCH_NAMES])
    def test_micro_workloads(self, micro_traces, name, tmp_path):
        _assert_grid_identical(f"trace:{micro_traces[name]}",
                               MICRO_INSTRUCTIONS, MICRO_WARMUP,
                               tmp_path)

    def test_mesa_golden_trace(self, tmp_path):
        _assert_grid_identical(f"trace:{GOLDEN_MESA}",
                               MESA_INSTRUCTIONS, MESA_WARMUP, tmp_path)

    @pytest.mark.parametrize("name", [
        f"import:eio:{FIXTURES / 'twopage.eio.txt'}",
        f"import:gem5:{FIXTURES / 'loopcall.gem5.txt.gz'}",
    ], ids=["eio", "gem5"])
    def test_imported_fixtures(self, name, tmp_path):
        _assert_grid_identical(name, 600, 100, tmp_path)

    @pytest.mark.parametrize("name", sorted(LIVE_GRID_WORKLOADS))
    def test_live_workloads(self, name, tmp_path):
        """A live unit links and executes each binary once, then scores
        VI-PT and VI-VT members in two sub-passes."""
        _assert_grid_identical(name, *LIVE_GRID_WORKLOADS[name], tmp_path,
                               configs=LIVE_GRID_CONFIGS)

    @pytest.mark.parametrize("name", sorted(LIVE_GRID_WORKLOADS))
    def test_live_workloads_through_pool_backend(self, name, tmp_path):
        _assert_grid_identical(name, *LIVE_GRID_WORKLOADS[name], tmp_path,
                               configs=LIVE_GRID_CONFIGS, workers=2,
                               backend="pool")

    def test_live_grid_through_real_worker_queue(self, tmp_path):
        """A live unit crosses the queue as one job file; two real
        workers drain it and every member lands under its own key."""
        root = tmp_path / "q"
        workers = _spawn_workers(root)
        try:
            backend = FileQueueBackend(root, poll_seconds=0.05,
                                       timeout=300)
            _assert_grid_identical(
                "micro.call_return", MICRO_INSTRUCTIONS, MICRO_WARMUP,
                tmp_path, configs=LIVE_GRID_CONFIGS, backend=backend)
            assert FileQueue(root).idle()
            assert (_store_entries(backend.store_root)
                    == _store_entries(tmp_path / "solo"))
        finally:
            _stop_workers(workers)

    def test_two_grids_through_pool_backend(self, tmp_path):
        """Two grids cross the pool wire as two payloads and come back
        expanded to one outcome per member, all byte-identical."""
        mesa = _grid_specs(f"trace:{GOLDEN_MESA}",
                           MESA_INSTRUCTIONS, MESA_WARMUP)
        eio = _grid_specs(f"import:eio:{FIXTURES / 'twopage.eio.txt'}",
                          600, 100)
        specs = mesa + eio
        solo = SweepRunner(store=ResultStore(tmp_path / "solo"),
                           grid=False)
        solo_results = solo.run(specs)
        pooled = SweepRunner(store=ResultStore(tmp_path / "grid"),
                             workers=2, backend="pool")
        pool_results = pooled.run(specs)
        assert pooled.last_stats.grids == 2
        assert pooled.last_stats.grid_members == len(specs)
        for one, many in zip(solo_results, pool_results):
            assert one.ok and many.ok, (one.error, many.error)
            assert _canon(one.run) == _canon(many.run)
        assert (sorted(p.name
                       for p in (tmp_path / "solo").glob("*.json"))
                == sorted(p.name
                          for p in (tmp_path / "grid").glob("*.json")))

    def test_grid_through_real_worker_queue(self, tmp_path):
        """The full wire protocol, no stubs: a grid job file drained by
        two real ``repro worker`` processes, every member stored under
        its own key, byte-identical to independent serial jobs."""
        specs = _grid_specs(f"trace:{GOLDEN_MESA}",
                            MESA_INSTRUCTIONS, MESA_WARMUP)
        solo = SweepRunner(store=ResultStore(tmp_path / "solo"),
                           grid=False)
        solo_results = solo.run(specs)

        root = tmp_path / "q"
        workers = _spawn_workers(root)
        try:
            backend = FileQueueBackend(root, poll_seconds=0.05,
                                       timeout=300)
            runner = SweepRunner(store=ResultStore(backend.store_root),
                                 backend=backend)
            results = runner.run(specs)
            assert runner.last_stats.grids == 1
            assert runner.last_stats.grid_members == len(specs)
            for one, many in zip(solo_results, results):
                assert many.ok, many.error
                assert _canon(one.run) == _canon(many.run)
            # one store entry per member, none left enqueued
            assert (len(list(backend.store_root.glob("*.json")))
                    == len(specs))
        finally:
            _stop_workers(workers)


def _spawn_workers(root: Path, count: int = 2):
    """``count`` real ``repro worker`` processes draining ``root``."""
    src = Path(repro.__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    return [subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", str(root),
         "--poll", "0.05", "--idle-exit", "60"],
        env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL) for _ in range(count)]


def _stop_workers(workers) -> None:
    for worker in workers:
        if worker.poll() is None:
            worker.kill()
        worker.wait(timeout=30)


class TestEngineSelection:
    def test_batch_engine_rejects_live_programs(self):
        program = resolve("micro.counted_loop").link()
        with pytest.raises(ConfigError, match="live workload"):
            BatchEngine(program, default_config())
        simulator = Simulator(default_config())
        with pytest.raises(ConfigError, match="live program"):
            simulator.run_program(program, instructions=100, engine="batch")

    def test_scalar_forces_fast_engine_on_traces(self):
        workload = load_trace_workload(GOLDEN_MESA)
        program = workload.link(page_bytes=4096)
        result = Simulator(default_config()).run_program(
            program, instructions=200, engine="scalar")
        assert result.engine == "fast"

    def test_recording_falls_back_to_scalar(self, tmp_path):
        """record over a replay must still work (recorder needs the
        StepResult stream, which only the scalar engine produces)."""
        out = tmp_path / "rerecord.trace.gz"
        record_trace(f"trace:{GOLDEN_MESA}", default_config(),
                     instructions=500, warmup=0, path=out)
        assert out.exists()
        rerecorded = load_trace_workload(out)
        assert rerecorded.trace.segments

    def test_batch_engine_rejects_recorder(self):
        workload = load_trace_workload(GOLDEN_MESA)
        program = workload.link(page_bytes=4096)
        with pytest.raises(ConfigError, match="recording"):
            BatchEngine(program, default_config(), recorder=object())

    def test_exhaustion_raises_trace_error(self):
        workload = load_trace_workload(GOLDEN_MESA)
        program = workload.link(page_bytes=4096)
        engine = BatchEngine(program, default_config())
        with pytest.raises(TraceError, match="trace exhausted"):
            engine.run(10_000_000)


class TestSegmentColumns:
    def test_columns_memoized_per_segment(self):
        trace = load_trace(GOLDEN_MESA, use_cache=False)
        segment = trace.segments[0]
        cols = segment.columns()
        assert segment.columns() is cols
        assert cols.steps == len(segment.records)
        assert len(cols.pc) == cols.steps
        assert cols.nbytes() > 0

    def test_columns_agree_with_records(self):
        trace = load_trace(GOLDEN_MESA, use_cache=False)
        for segment in trace.segments:
            cols = segment.columns()
            for i, (idx, aux) in enumerate(segment.records[:2000]):
                instr = segment.instructions[idx]
                assert cols.pc[i] == instr.address
                assert cols.kind[i] == instr.kind_code
                assert cols.aux[i] == aux
                assert cols.index[i] == idx
                assert cols.latency[i] == instr.latency

    def test_run_lengths(self):
        trace = load_trace(GOLDEN_MESA, use_cache=False)
        cols = trace.segments[0].columns()
        n = cols.steps
        for i in range(min(n, 2000)):
            if cols.kind[i] in PLAIN_KINDS:
                expected = cols.run[i + 1] + 1 if i + 1 < n else 1
                assert cols.run[i] == expected
            else:
                assert cols.run[i] == 0


class TestTraceMemoization:
    def test_same_content_shares_one_decode(self, tmp_path):
        clear_trace_cache()
        first = load_trace(GOLDEN_MESA)
        assert load_trace(GOLDEN_MESA) is first
        # the workload wrapper is fresh, the decoded file shared
        a = load_trace_workload(GOLDEN_MESA)
        b = load_trace_workload(GOLDEN_MESA)
        assert a is not b
        assert a.trace is b.trace is first

    def test_edited_file_is_never_served_stale(self, tmp_path):
        clear_trace_cache()
        path = tmp_path / "t.trace.gz"
        record_trace("micro.counted_loop", default_config(),
                     instructions=400, warmup=0, path=path)
        first = load_trace(path)
        record_trace("micro.taken_pattern", default_config(),
                     instructions=400, warmup=0, path=path)
        second = load_trace(path)
        assert second is not first
        assert second.workload_name == "micro.taken_pattern"

    def test_lru_capacity_bounds_the_cache(self, tmp_path):
        clear_trace_cache()
        paths = []
        for i in range(TRACE_CACHE_CAPACITY + 2):
            path = tmp_path / f"t{i}.trace.gz"
            record_trace("micro.counted_loop", default_config(),
                         instructions=100 + i, warmup=0, path=path)
            paths.append(path)
        loaded = [load_trace(p) for p in paths]
        # the first entries were evicted: reloading decodes afresh
        assert load_trace(paths[0]) is not loaded[0]
        # the most recent survives
        assert load_trace(paths[-1]) is loaded[-1]
        clear_trace_cache()

    def test_use_cache_false_bypasses(self):
        clear_trace_cache()
        cached = load_trace(GOLDEN_MESA)
        assert load_trace(GOLDEN_MESA, use_cache=False) is not cached

    def test_env_capacity_override_and_evict_events(self, tmp_path,
                                                    monkeypatch):
        """``REPRO_TRACE_LRU_CAPACITY`` resizes the decoded-trace LRU
        (the hard-coded 8 starved >8-trace sweeps), and every eviction
        is a visible ``trace.lru_evict`` event."""
        from repro import telemetry
        from repro.trace.format import _TRACE_LRU, trace_cache_capacity

        clear_trace_cache()
        monkeypatch.setenv("REPRO_TRACE_LRU_CAPACITY", "4")
        assert trace_cache_capacity() == 4
        paths = []
        for i in range(9):
            path = tmp_path / f"t{i}.trace.gz"
            record_trace("micro.counted_loop", default_config(),
                         instructions=100 + i, warmup=0, path=path)
            paths.append(path)
        log = tmp_path / "events.jsonl"
        telemetry.configure(level="debug", json_path=str(log),
                            propagate=False)
        try:
            for path in paths:
                load_trace(path)
        finally:
            telemetry.disable()
        assert len(_TRACE_LRU) == 4
        evicts = [json.loads(line)
                  for line in log.read_text().splitlines()
                  if json.loads(line)["event"] == "trace.lru_evict"]
        # nine distinct traces through a four-slot LRU: five evictions
        assert len(evicts) == 5
        assert all(event["capacity"] == 4 for event in evicts)
        assert all(event["path"] for event in evicts)
        clear_trace_cache()

    def test_bogus_capacity_env_falls_back_to_default(self, monkeypatch):
        from repro.trace.format import trace_cache_capacity
        for bogus in ("banana", "0", "-3", ""):
            monkeypatch.setenv("REPRO_TRACE_LRU_CAPACITY", bogus)
            assert trace_cache_capacity() == TRACE_CACHE_CAPACITY
        monkeypatch.delenv("REPRO_TRACE_LRU_CAPACITY")
        assert trace_cache_capacity() == TRACE_CACHE_CAPACITY


class TestBenchHarness:
    def test_bench_workload_structure_and_equivalence_gate(self, tmp_path):
        from repro.bench import bench_workload, check_floor, speedups
        records = bench_workload(
            "177.mesa", GOLDEN_MESA, instructions=800, warmup=100,
            repeats=1)
        assert {(r.mode, r.engine) for r in records} == {
            ("engine", "scalar"), ("engine", "batch"),
            ("job", "scalar"), ("job", "batch"),
            ("grid", "scalar"), ("grid", "batch"),
            ("stream", "eager"), ("stream", "windowed")}
        for record in records:
            assert record.instr_per_sec > 0
            assert record.best_seconds > 0
            assert record.instructions > 0
        # the stream rows carry the memory story: the windowed pass
        # must decode strictly less at a time than the eager one
        peaks = {r.engine: r.peak_window_bytes for r in records
                 if r.mode == "stream"}
        assert 0 < peaks["windowed"] < peaks["eager"]
        ratios = speedups(records)["177.mesa"]
        assert set(ratios) == {"engine", "job", "grid", "stream"}
        payload = {"speedups": {"177.mesa": ratios}}
        # an absurd floor fails, a zero floor passes
        assert check_floor(payload, 1e9)
        assert not check_floor(payload, 0.0)

    def test_cli_bench_writes_report(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "BENCH_test.json"
        code = main(["bench", "--quick", "--instructions", "600",
                     "--warmup", "100", "--repeats", "1",
                     "--trace-dir", str(tmp_path / "traces"),
                     "-o", str(out), "--fail-below", "0.0"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["bench_format"] == 1
        assert payload["speedups"]["177.mesa"]["engine"] > 0
        assert "floor check passed" in capsys.readouterr().out
