"""The Simulator facade.

Wraps engine construction, execution, and energy attachment behind one
call.  Energy attachment applies the paper's accounting (Section 4.3.1):

* every scheme pays ``lookups * E_a + misses * E_m`` on its iTLB;
* HoA additionally pays one VPN comparator per fetched instruction;
* CFR register reads and IA's BTB-output compare are charged only when
  the corresponding :class:`~repro.config.EnergyConfig` switches are on
  (the paper leaves them out; the extensions experiment turns them on).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro import telemetry
from repro.config import MachineConfig, SchemeName, default_config
from repro.cpu.fast import FastEngine
from repro.cpu.grid import MultiConfigEngine
from repro.cpu.ooo import OutOfOrderEngine
from repro.cpu.results import EngineResult
from repro.energy.accounting import itlb_energy_nj
from repro.energy.cacti import CactiLikeModel
from repro.errors import ConfigError
from repro.isa.program import Program

#: engine names accepted by :meth:`Simulator.run_program` (and therefore
#: by :func:`~repro.sim.multi.run_all_schemes`, JobSpecs, and the CLI)
ENGINE_NAMES = ("fast", "ooo")

#: telemetry label of the column loop (:class:`FastEngine`): every
#: ``fast`` pass, live or replayed, solo or grid.  The detailed core
#: reports ``"ooo"``.
COLUMN_EVALUATOR = "batch"


def check_engine(engine: str) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless ``engine`` is one
    of :data:`ENGINE_NAMES`."""
    if engine not in ENGINE_NAMES:
        raise ConfigError(
            f"unknown engine {engine!r}; choose one of "
            f"{', '.join(ENGINE_NAMES)} (every fast pass, live or "
            "replayed, runs one column loop — the former 'scalar' and "
            "'batch' names are gone)")


def attach_energy(result: EngineResult,
                  model: Optional[CactiLikeModel] = None) -> EngineResult:
    """Fill ``SchemeResult.energy`` for every scheme in ``result``."""
    config = result.config
    if model is None:
        model = CactiLikeModel(config.energy)
    for scheme in result.schemes.values():
        counters = scheme.counters
        if config.itlb_two_level is not None:
            scheme.energy = itlb_energy_nj(
                model,
                two_level=config.itlb_two_level,
                lookups=counters.lookups,
                l2_probes=counters.l2_probes,
                misses=counters.misses,
                comparator_ops=counters.comparator_ops,
                cfr_reads=counters.cfr_reads,
                btb_compares=counters.btb_compares,
            )
        else:
            scheme.energy = itlb_energy_nj(
                model,
                mono=config.itlb,
                lookups=counters.lookups,
                misses=counters.misses,
                comparator_ops=counters.comparator_ops,
                cfr_reads=counters.cfr_reads,
                btb_compares=counters.btb_compares,
            )
    return result


def run_program_grid(program: Program, configs: Sequence[MachineConfig], *,
                     instructions: int, warmup: int = 0,
                     schemes: Optional[Sequence[SchemeName]] = None,
                     engine: str = "fast") -> List[EngineResult]:
    """Simulate ``program`` once and score every config in ``configs``.

    ``program`` is a live program (captured once for the window) or a
    replay; ``engine`` must be ``"fast"`` — the detailed core steps one
    config at a time.  Returns one energy-attached result per config, in
    order, each bit-identical to the result :meth:`Simulator.run_program`
    would produce for that config alone.
    """
    if engine != "fast":
        check_engine(engine)
        raise ConfigError(
            f"grid evaluation shares one pass across configs; engine "
            f"'{engine}' cannot")
    if not configs:
        raise ConfigError("a config grid needs at least one member")
    if program.page_bytes != configs[0].mem.page_bytes:
        raise ConfigError(
            f"program linked for {program.page_bytes}-byte pages but "
            f"machine uses {configs[0].mem.page_bytes}-byte pages"
        )
    started = time.perf_counter()
    results = MultiConfigEngine(program, configs,
                                schemes=schemes).run_grid(instructions,
                                                          warmup)
    elapsed = time.perf_counter() - started
    retired = results[0].shared.instructions
    telemetry.note_engine(COLUMN_EVALUATOR, elapsed, retired)
    telemetry.emit("engine.grid", level="debug", workload=program.name,
                   evaluator=COLUMN_EVALUATOR, members=len(configs),
                   seconds=round(elapsed, 6), instructions=retired)
    for result in results:
        attach_energy(result, CactiLikeModel(result.config.energy))
    return results


class Simulator:
    """Run programs under a machine configuration."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config if config is not None else default_config()
        self.energy_model = CactiLikeModel(self.config.energy)

    def run_program(self, program: Program, *, instructions: int,
                    warmup: int = 0,
                    schemes: Optional[Sequence[SchemeName]] = None,
                    engine: str = "fast") -> EngineResult:
        """Simulate ``program`` and return a result with energy attached.

        ``engine`` selects the evaluator (see :data:`ENGINE_NAMES`):

        * ``"fast"`` — evaluate all requested schemes in one pass of the
          column loop (:class:`~repro.cpu.fast.FastEngine`); a live
          program is captured for the window first, a replay is read as
          recorded.
        * ``"ooo"`` — the detailed core; exactly one scheme per pass.
        """
        check_engine(engine)
        if program.page_bytes != self.config.mem.page_bytes:
            raise ConfigError(
                f"program linked for {program.page_bytes}-byte pages but "
                f"machine uses {self.config.mem.page_bytes}-byte pages"
            )
        if engine == "fast":
            if getattr(program, "segment", None) is None:
                from repro.trace.record import capture_replay
                program = capture_replay(program,
                                         instructions=warmup + instructions)
            evaluator = COLUMN_EVALUATOR
            started = time.perf_counter()
            result = FastEngine(program, self.config,
                                schemes=schemes).run(instructions, warmup)
        else:
            selected = tuple(schemes) if schemes else (SchemeName.IA,)
            if len(selected) != 1:
                raise ConfigError(
                    "the detailed engine runs exactly one scheme per pass")
            evaluator = "ooo"
            started = time.perf_counter()
            result = OutOfOrderEngine(program, self.config,
                                      scheme=selected[0]).run(instructions,
                                                              warmup)
        elapsed = time.perf_counter() - started
        # phase accounting: the evaluator label ("batch" for the column
        # loop, "ooo"), not result.engine
        retired = result.shared.instructions
        telemetry.note_engine(evaluator, elapsed, retired)
        telemetry.emit("engine.run", level="debug", workload=program.name,
                       evaluator=evaluator, seconds=round(elapsed, 6),
                       instructions=retired)
        return attach_energy(result, self.energy_model)
