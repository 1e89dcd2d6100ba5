"""Execution engines.

Two engines share the same substrates (memory hierarchy, TLBs,
predictor, schemes):

* :mod:`repro.cpu.fast` — a single-pass engine that evaluates **all iTLB
  schemes side by side** and models timing with a dependency-aware
  list-scheduling approximation of the Table 1 core.  It runs one
  column loop over a committed stream — a live program's capture or a
  recorded trace's decoded segment — and :mod:`repro.cpu.grid` extends
  the same loop to N machine configurations.  This is what the
  experiment harness sweeps run on.  (:mod:`repro.cpu.batch` keeps the
  former ``BatchEngine`` name as an alias.)
* :mod:`repro.cpu.ooo` — a cycle-driven out-of-order model of the Table 1
  core (RUU + LSQ, 4-wide, speculative wrong-path fetch with squash) for
  one scheme at a time.  Slower; used for validation and examples.

:mod:`repro.cpu.functional` holds the architectural state and instruction
semantics both execute through: the fast engine's capture steps it, and
the detailed core fetches and retires through it, so they see identical
committed streams by construction (a property the tests assert anyway).
"""

from repro.cpu.functional import Executor, StepResult
from repro.cpu.results import (
    EngineResult,
    SchemeResult,
    SharedStats,
    summarize_result,
)
from repro.cpu.fast import FastEngine
from repro.cpu.batch import BatchEngine
from repro.cpu.ooo import OutOfOrderEngine

__all__ = [
    "BatchEngine",
    "EngineResult",
    "Executor",
    "FastEngine",
    "OutOfOrderEngine",
    "SchemeResult",
    "SharedStats",
    "StepResult",
    "summarize_result",
]
