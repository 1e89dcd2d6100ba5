#!/usr/bin/env python3
"""The repository benchmark: one workload, end to end or layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload live_paper --seed 1 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics.  The
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the lines before it print
every metric by name with its unit.  See ``README.md`` in this
directory for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from tracing import Tracer, installed, layer_figures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch space inside the checkout: traces, stores, spans, ledger
WORK = ROOT / ".perfbench"

#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: fewest timed iterations per untraced run, and of each kind per
#: traced run (which alternates untraced and traced iterations)
MIN_ITERATIONS = 3
MIN_TRACED_EACH = 2
#: iterations of the fixed host-speed calibration loop
CALIBRATION_LOOP = 1_000_000

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "sim_kips": "1/ms", "peak_rss_mb": "MiB",
    "jobs_ok_pct": "%", "ia_energy_pct": "%", "ia_cycles_pct": "%",
    "paper_err_pp": "pp",
}
DETERMINISTIC = ("ia_energy_pct", "ia_cycles_pct", "paper_err_pp")
PER_LAYER_UNITS = {
    "workloads.link_s": "s", "trace.record_s": "s", "trace.file_kb": "KiB",
    "trace.decode_s": "s", "trace.decode_ns_per_step": "ns",
    "cpu.scalar_pass_s": "s", "cpu.scalar_kips": "1/ms",
    "cpu.batch_pass_s": "s", "cpu.batch_kips": "1/ms",
    "cpu.grid_pass_s": "s", "cpu.grid_member_kips": "1/ms",
    "sim.job_p50_s": "s", "sim.jobs": "count",
    "runner.store_put_ms": "ms", "runner.store_get_ms": "ms",
    "runner.entry_kb": "KiB", "runner.backend_overhead_s": "s",
    "experiments.self_s": "s", "bench.residual_s": "s",
    "bench.trace_overhead_pct": "%", "host.calib_s": "s",
    "model.itlb_lookups_pki.base": "1/kinst",
    "model.itlb_lookups_pki.soca": "1/kinst",
    "model.itlb_lookups_pki.sola": "1/kinst",
    "model.itlb_lookups_pki.ia": "1/kinst",
    "model.itlb_misses_pki.ia": "1/kinst",
    "model.page_crossings_pki": "1/kinst",
    "model.boundary_overhead_pct": "%",
    "model.bpred_accuracy_pct": "%",
    "model.ia_extra_cycles_pki": "1/kinst",
}


def import_program():
    """Import the program from ``src/`` (and the workload module that
    drives it).  Fails with ImportError when there is no program."""
    sys.path.insert(0, str(ROOT / "src"))
    import scenarios
    return scenarios


def calibrate() -> float:
    """A fixed pure-Python loop, timed: host speed, for the record."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest child (pool workers,
    the import probes), whichever is higher."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def source_digest() -> str:
    """Identity of the program under test (for the determinism ledger)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_ledger(key: str, record: dict) -> List[str]:
    """Compare this run's deterministic output with earlier runs of the
    same program, workload and workload seed (whatever their order
    seed); remember it if it is the first."""
    path = WORK / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    earlier = ledger.get(key)
    if earlier is None:
        ledger[key] = record
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return []
    return [f"nondeterminism across runs: {name} was {earlier[name]!r}, "
            f"now {record[name]!r}"
            for name in sorted(record) if earlier.get(name) != record[name]]


class Run:
    """One invocation: set up, iterate for ``seconds``, report."""

    def __init__(self, scenarios, args) -> None:
        self.scenarios = scenarios
        self.args = args
        seeds = scenarios.Seeds(order=args.seed, workload=args.workload_seed)
        self.workload = scenarios.WORKLOADS[args.workload](
            seeds, WORK / args.workload)
        self.problems: List[str] = []
        self.attempted = 0
        self.walls: Dict[bool, List[float]] = {False: [], True: []}
        self.layers: List[Dict[str, float]] = []
        self.entry_kb: List[float] = []
        self.span_log: List[list] = []
        self.reference = None  # fingerprint of the first untraced iteration
        self.outcome = None

    def iteration(self, traced: bool) -> None:
        workload = self.workload
        workload.prepare()
        gc.collect()
        if traced:
            tracer = Tracer(WORK / "spool")
            tracer.spool.mkdir(parents=True, exist_ok=True)
            with installed(tracer):
                started = time.perf_counter()
                output = tracer.call("bench.iteration", workload.iterate,
                                     (), {})
                wall = time.perf_counter() - started
            spans = tracer.spans + tracer.collect_workers()
            figures = layer_figures(spans, os.getpid(), workload.workers)
            figures["bench.wall_s"] = wall
            self.layers.append(figures)
            self.span_log.append([vars(s) for s in spans])
        else:
            started = time.perf_counter()
            output = workload.iterate()
            wall = time.perf_counter() - started
        self.walls[traced].append(wall)
        outcome = workload.finish(output)
        self.entry_kb.append(workload.entry_kb())
        workload.cleanup()
        self.attempted += outcome.attempted
        self.problems.extend(outcome.problems)
        fingerprint = outcome.fingerprint()
        if self.reference is None:
            self.reference, self.outcome = fingerprint, outcome
        elif fingerprint != self.reference:
            self.problems.append(
                "traced results differ from untraced results" if traced
                else "results differ between iterations")

    def measure(self) -> None:
        """Timed iterations until ``seconds`` are used up, but no fewer
        than the minimum; a traced run alternates an untraced and a
        traced iteration."""
        kinds = [False, True] if self.args.trace else [False]
        minimum = MIN_TRACED_EACH if self.args.trace else MIN_ITERATIONS
        started = time.perf_counter()
        turn = 0
        while True:
            done = [len(self.walls[k]) for k in kinds]
            elapsed = time.perf_counter() - started
            per_iteration = elapsed / sum(done) if sum(done) else 0.0
            if min(done) >= minimum and \
                    elapsed + per_iteration > self.args.seconds:
                break
            self.iteration(kinds[turn % len(kinds)])
            turn += 1

    def main(self) -> dict:
        args = self.args
        calib_before = calibrate()
        setups, setup_info = [], []
        for _ in range(SETUPS):
            started = time.perf_counter()
            subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--import-only"], check=True)
            imported = time.perf_counter() - started
            started = time.perf_counter()
            setup_info.append(self.workload.setup())
            setups.append(imported + time.perf_counter() - started)
        self.problems.extend(self.workload.problems)
        self.measure()
        calib_after = calibrate()

        figures = self.scenarios.simulated_figures(self.outcome.runs)
        record = dict(figures, fingerprint=self.reference)
        key = (f"{args.workload}|workload-seed={args.workload_seed}"
               f"|src={source_digest()}")
        self.problems.extend(check_ledger(key, record))

        failed = len(self.problems)
        untraced = statistics.median(self.walls[False])
        if args.trace:
            metrics = self.per_layer(untraced, setup_info, figures,
                                     (calib_before + calib_after) / 2)
            self.write_spans()
        else:
            sim_steps = self.outcome.simulated_instructions()
            failed_pct = min(100.0, 100.0 * failed / self.attempted)
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": untraced,
                "sim_kips": sim_steps / (untraced * 1000.0),
                "peak_rss_mb": peak_rss_mb(),
                "jobs_ok_pct": 100.0 - failed_pct,
            }
            metrics.update({k: figures[k] for k in DETERMINISTIC})
        units = PER_LAYER_UNITS if args.trace else END_TO_END
        print(f"{args.workload} seed={args.seed} "
              f"workload-seed={args.workload_seed} trace={args.trace}: "
              f"{len(self.walls[False])} untraced + "
              f"{len(self.walls[True])} traced iterations, "
              f"walls {[round(w, 3) for w in self.walls[False]]}")
        for name, value in metrics.items():
            print(f"  {name:30s} {value:14.6f} {units[name]}")
        print(f"  {'jobs_failed_pct':30s} "
              f"{100.0 * failed / self.attempted:14.6f} % "
              f"({failed} of {self.attempted} jobs and checks)")
        print(f"  {'host.calib_s':30s} before {calib_before:.4f} s, "
              f"after {calib_after:.4f} s")
        for problem in self.problems:
            print(f"  FAILED CHECK: {problem}")
        return {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {name: {"value": float(value), "unit": units[name]}
                        for name, value in metrics.items()},
        }

    def per_layer(self, untraced: float, setup_info: List[dict],
                  figures: Dict[str, float], calib: float
                  ) -> Dict[str, float]:
        layers = {name: statistics.median(it[name] for it in self.layers)
                  for name in self.layers[0]}
        traced = layers.pop("bench.wall_s")
        layer_sum = layers.pop("bench.layer_sum_s")
        metrics: Dict[str, float] = {}
        for name in PER_LAYER_UNITS:
            if name in layers:
                metrics[name] = layers[name]
            elif name.startswith("model."):
                metrics[name] = figures[name]
            elif name in ("trace.record_s", "trace.file_kb"):
                values = [info[name] for info in setup_info if name in info]
                metrics[name] = statistics.median(values) if values else 0.0
        metrics["runner.entry_kb"] = statistics.median(self.entry_kb)
        metrics["bench.residual_s"] = untraced - layer_sum
        metrics["bench.trace_overhead_pct"] = 100.0 * (traced / untraced - 1)
        metrics["host.calib_s"] = calib
        return {name: metrics[name] for name in PER_LAYER_UNITS}

    def write_spans(self) -> None:
        path = WORK / f"spans-{self.args.workload}-s{self.args.seed}.json"
        path.write_text(json.dumps(self.span_log))


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=("live_paper", "replay_grid",
                                 "replay_fanout"))
    parser.add_argument("--seed", type=int, default=0,
                        help="order seed: permutes the order jobs and "
                             "table rows reach the program")
    parser.add_argument("--workload-seed", type=int, default=0,
                        help="0 = the shipped SPEC stand-ins (default); "
                             "other values run reseeded copies")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the timed iterations run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer run (alternating untraced "
                             "and traced iterations)")
    parser.add_argument("--import-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.import_only and args.workload is None:
        parser.error("--workload is required")
    if args.workload_seed < 0:
        parser.error("--workload-seed must be >= 0")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    try:
        scenarios = import_program()
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 1
    if args.import_only:
        return 0
    WORK.mkdir(exist_ok=True)
    result = Run(scenarios, args).main()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
