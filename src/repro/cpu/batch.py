"""The former name of the column engine.

Replays once ran on a batched twin of a per-step engine; the two were
folded into :class:`~repro.cpu.fast.FastEngine`, which runs every pass —
live or replayed — over the committed stream's decoded columns.
``BatchEngine`` remains importable as an alias of that class.
"""

from repro.cpu.fast import FastEngine as BatchEngine

__all__ = ["BatchEngine"]
