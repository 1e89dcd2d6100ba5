"""Differential mutation fuzzing of trace decode.

Mutants of the golden mesa trace — one to three flipped bytes and/or a
truncation, applied to the decompressed body or to the gzip bytes — are
decoded eagerly and through 1-step and 93-step streaming windows, then
replayed.  Whatever the damage, only a typed
:class:`~repro.errors.ReproError` may escape, and the decode paths must
agree: identical statics and records from every path, or a
:class:`~repro.errors.TraceError` from every path.  Where decode
succeeds, the eager and the windowed replay must give the same result
or the same error.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.errors import ReproError, TraceError
from repro.sim.multi import run_all_schemes
from repro.trace.format import (
    COLUMN_BYTES_PER_STEP,
    TraceReader,
    load_trace,
)
from repro.trace.replay import TraceWorkload

GOLDEN_MESA = Path(__file__).parent / "golden" / "mesa.trace.gz"
PACKED = GOLDEN_MESA.read_bytes()
BODY = gzip.decompress(PACKED)

#: streaming windows, in step records: the worst case and a non-divisor
WINDOWS = (1, 93)


def _mutant(data: bytes, flips, cut) -> bytes:
    raw = bytearray(data)
    for position, mask in flips:
        raw[position % len(raw)] ^= mask
    return bytes(raw if cut is None else raw[:cut % (len(raw) + 1)])


def _decoded(path: Path, window_steps=None):
    """Every segment's meta, statics and records, decoded eagerly
    (``window_steps`` None) or by draining a streamed window source;
    the :class:`TraceError` instead if decode fails."""
    try:
        if window_steps is None:
            trace = TraceReader(path).read()
            return [(s.meta, s.instructions, s.records)
                    for s in trace.segments]
        trace = load_trace(path, use_cache=False,
                           stream=window_steps * COLUMN_BYTES_PER_STEP)
        segments = []
        for segment in trace.segments:
            statics, records = [], []
            for window in segment.window_source():
                assert len(window.records) <= window_steps
                statics = window.instructions
                records.extend(window.records)
            segments.append((segment.meta, statics, records))
        return segments
    except TraceError as exc:
        return exc


def _replayed(path: Path, trace):
    """The canonical result of a short replay, or the ReproError that
    stopped it."""
    try:
        run = run_all_schemes(TraceWorkload(path, trace), default_config(),
                              instructions=1_500, warmup=300)
    except ReproError as exc:
        return type(exc), str(exc)
    return json.dumps(run.to_dict(), sort_keys=True)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(packed=st.booleans(),
       flips=st.lists(st.tuples(st.integers(0, len(BODY) - 1),
                                st.integers(1, 255)),
                      max_size=3),
       cut=st.none() | st.integers(0, len(BODY)))
def test_mutants_decode_alike_and_fail_typed(tmp_path, packed, flips, cut):
    assume(flips or cut is not None)
    path = tmp_path / "mutant.trace"
    if packed:
        path.write_bytes(_mutant(PACKED, flips, cut))
    else:
        path.write_bytes(_mutant(BODY, flips, cut))

    eager = _decoded(path)
    for window_steps in WINDOWS:
        windowed = _decoded(path, window_steps)
        if isinstance(eager, TraceError):
            assert isinstance(windowed, TraceError), window_steps
        else:
            assert windowed == eager, window_steps
    if isinstance(eager, TraceError):
        return

    assert _replayed(path, load_trace(path, use_cache=False,
                                      stream=False)) \
        == _replayed(path, load_trace(
            path, use_cache=False,
            stream=WINDOWS[-1] * COLUMN_BYTES_PER_STEP))
