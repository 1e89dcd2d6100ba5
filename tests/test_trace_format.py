"""Trace format: writer/reader round trip and malformed-input handling.

Every way a trace file can be broken — wrong file, truncation, version
skew, gzip corruption, internally inconsistent streams — must surface as
a typed :class:`~repro.errors.TraceError`, never a bare ``struct.error``
or ``EOFError``.
"""

import gzip
import json
import struct

from pathlib import Path

import pytest

from repro.config import default_config
from repro.cpu.functional import StepResult
from repro.errors import TraceError
from repro.isa.instructions import Instruction, Opcode
from repro.trace.format import (
    COLUMN_BYTES_PER_STEP,
    MAGIC,
    TAG_SEGMENT,
    TAG_STATIC,
    TAG_STEP,
    TRACE_VERSION,
    TraceReader,
    TraceWriter,
    file_digest,
    load_trace,
)
from repro.sim.multi import run_all_schemes
from repro.trace.replay import TraceWorkload

GOLDEN_MESA = Path(__file__).parent / "golden" / "mesa.trace.gz"


def _meta(**overrides):
    meta = {
        "binary": "plain", "name": "t", "text_base": 0x400000,
        "text_words": 4, "data_base": 0x10000000, "data_size": 0,
        "entry": 0x400000, "page_bytes": 4096, "instrumented": False,
        "boundary_branch_count": 0,
    }
    meta.update(overrides)
    return meta


def _step(instr, **kw):
    defaults = dict(pc=instr.address, next_pc=instr.address + 4,
                    taken=False, mem_addr=None, is_store=False)
    defaults.update(kw)
    return StepResult(instr=instr, **defaults)


def _write_sample(path):
    """A small two-segment trace exercising every aux payload."""
    alu = Instruction(Opcode.ADDI, rd=8, rs=8, imm=1, address=0x400000)
    load = Instruction(Opcode.LW, rd=9, rs=8, imm=0, address=0x400004)
    br = Instruction(Opcode.BNE, rs=8, rt=0, target=0x400000,
                     address=0x400008)
    ret = Instruction(Opcode.JR, rs=31, address=0x40000C)
    with TraceWriter(path, header={"workload": "sample",
                                   "instructions": 4}) as writer:
        writer.begin_segment(_meta())
        writer.write_step(_step(alu))
        writer.write_step(_step(load, mem_addr=0x10000000))
        writer.write_step(_step(br, taken=True, next_pc=0x400000))
        writer.write_step(_step(alu))
        writer.write_step(_step(ret, taken=True, next_pc=0x400010))
        writer.begin_segment(_meta(binary="instrumented",
                                   instrumented=True))
        writer.write_step(_step(alu))
    return path


def _drain(path):
    """Decode ``path`` through 4-step streaming windows."""
    trace = load_trace(path, use_cache=False,
                       stream=4 * COLUMN_BYTES_PER_STEP)
    for segment in trace.segments:
        for _window in segment.window_source():
            pass


def _rejects(path, match=None):
    """Both decode paths, the eager read and streaming windows, reject
    ``path`` with a TraceError matching ``match``."""
    for decode in (lambda: TraceReader(path).read(), lambda: _drain(path)):
        with pytest.raises(TraceError, match=match):
            decode()


class TestRoundTrip:
    def test_all_record_shapes_survive(self, tmp_path):
        path = _write_sample(tmp_path / "t.trace")
        trace = TraceReader(path).read()
        assert trace.header["workload"] == "sample"
        assert [s.binary for s in trace.segments] == ["plain",
                                                      "instrumented"]
        plain = trace.segments[0]
        assert len(plain.records) == 5
        assert len(plain.instructions) == 4
        # interning: the repeated ALU step reuses index 0
        assert plain.records[0][0] == plain.records[3][0] == 0
        # aux payloads
        assert plain.records[1][1] == 0x10000000  # load address
        assert plain.records[2][1] == 1  # branch taken
        assert plain.records[4][1] == 0x400010  # indirect target
        ops = [i.op for i in plain.instructions]
        assert ops == [Opcode.ADDI, Opcode.LW, Opcode.BNE, Opcode.JR]

    def test_gzip_round_trip_and_sniffing(self, tmp_path):
        path = _write_sample(tmp_path / "t.trace.gz")
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        trace = TraceReader(path).read()
        assert len(trace.segments[0].records) == 5
        # gzip content is sniffed, not suffix-trusted
        renamed = tmp_path / "no_suffix.bin"
        renamed.write_bytes(path.read_bytes())
        assert len(TraceReader(renamed).read().segments) == 2

    def test_gzip_output_is_deterministic(self, tmp_path):
        a = _write_sample(tmp_path / "a.trace.gz").read_bytes()
        b = _write_sample(tmp_path / "b.trace.gz").read_bytes()
        assert a == b  # zeroed mtime: same stream -> same bytes

    def test_segment_selection_by_binary_and_page_size(self, tmp_path):
        path = _write_sample(tmp_path / "t.trace")
        trace = TraceReader(path).read()
        assert trace.segment_for(instrumented=True,
                                 page_bytes=4096).binary == "instrumented"
        with pytest.raises(TraceError, match="no instrumented segment"):
            trace.segment_for(instrumented=True, page_bytes=8192)


class TestMalformedInput:
    def test_missing_file(self, tmp_path):
        _rejects(tmp_path / "absent.trace", "cannot open")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_bytes(b"")
        _rejects(path, "truncated")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"NOTATRCE" + b"\x00" * 32)
        _rejects(path, "bad magic")

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v99.trace"
        path.write_bytes(struct.pack("<8sHHI", MAGIC, 99, 0, 2) + b"{}")
        _rejects(path, "version 99")

    def test_truncated_mid_stream(self, tmp_path):
        whole = _write_sample(tmp_path / "whole.trace").read_bytes()
        cut = tmp_path / "cut.trace"
        cut.write_bytes(whole[:int(len(whole) * 0.6)])
        _rejects(cut, "truncated")

    def test_missing_end_of_trace_marker(self, tmp_path):
        whole = _write_sample(tmp_path / "whole.trace").read_bytes()
        cut = tmp_path / "cut.trace"
        cut.write_bytes(whole[:-1])  # drop TAG_END_TRACE
        _rejects(cut, "truncated")

    def test_corrupt_gzip_payload(self, tmp_path):
        data = bytearray(_write_sample(tmp_path / "t.trace.gz")
                         .read_bytes())
        mid = len(data) // 2
        for i in range(mid, min(mid + 8, len(data))):
            data[i] ^= 0xFF
        bad = tmp_path / "bad.trace.gz"
        bad.write_bytes(bytes(data))
        _rejects(bad)

    def test_garbage_with_gz_suffix(self, tmp_path):
        bad = tmp_path / "bad.trace.gz"
        bad.write_bytes(b"\x1f\x8b" + b"\xde\xad\xbe\xef" * 16)
        _rejects(bad)

    def test_corrupt_header_json(self, tmp_path):
        path = tmp_path / "badjson.trace"
        payload = b"not json!"
        path.write_bytes(struct.pack("<8sHHI", MAGIC, TRACE_VERSION, 0,
                                     len(payload)) + payload)
        _rejects(path, "corrupt header")

    def test_step_before_static_definition(self, tmp_path):
        path = tmp_path / "dangling.trace"
        meta = json.dumps(_meta()).encode()
        body = (struct.pack("<B", TAG_SEGMENT)
                + struct.pack("<I", len(meta)) + meta
                + struct.pack("<B", TAG_STEP) + struct.pack("<I", 0))
        path.write_bytes(struct.pack("<8sHHI", MAGIC, TRACE_VERSION, 0, 2)
                         + b"{}" + body)
        _rejects(path, "before its definition")

    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "tag.trace"
        meta = json.dumps(_meta()).encode()
        body = (struct.pack("<B", TAG_SEGMENT)
                + struct.pack("<I", len(meta)) + meta
                + struct.pack("<B", 0x7F))
        path.write_bytes(struct.pack("<8sHHI", MAGIC, TRACE_VERSION, 0, 2)
                         + b"{}" + body)
        _rejects(path, "unknown record tag")

    def test_unknown_opcode_number(self, tmp_path):
        path = tmp_path / "opcode.trace"
        meta = json.dumps(_meta()).encode()
        static = struct.pack("<IBBBBiIB", 0x400000, 250, 0, 0, 0, 0,
                             0xFFFFFFFF, 0)
        body = (struct.pack("<B", TAG_SEGMENT)
                + struct.pack("<I", len(meta)) + meta
                + struct.pack("<B", TAG_STATIC) + static)
        path.write_bytes(struct.pack("<8sHHI", MAGIC, TRACE_VERSION, 0, 2)
                         + b"{}" + body)
        _rejects(path, "unknown opcode number 250")

    def test_direct_control_without_target_rejected(self, tmp_path):
        from repro.trace.format import _OP_TO_NUM
        path = tmp_path / "notarget.trace"
        meta = json.dumps(_meta()).encode()
        static = struct.pack("<IBBBBiIB", 0x400000,
                             _OP_TO_NUM[Opcode.J], 0, 0, 0, 0,
                             0xFFFFFFFF, 0)  # a jump with no target
        body = (struct.pack("<B", TAG_SEGMENT)
                + struct.pack("<I", len(meta)) + meta
                + struct.pack("<B", TAG_STATIC) + static)
        path.write_bytes(struct.pack("<8sHHI", MAGIC, TRACE_VERSION, 0, 2)
                         + b"{}" + body)
        _rejects(path, "has no target")

    @pytest.mark.parametrize("stream", [False, True],
                             ids=["eager", "streaming"])
    def test_register_byte_out_of_range_rejected(self, tmp_path, stream):
        """A static naming register 200 must fail as a TraceError from
        either decoder — not as an IndexError inside an engine."""
        raw = bytearray(gzip.decompress(GOLDEN_MESA.read_bytes()))
        (hlen,) = struct.unpack_from("<I", raw, 12)
        segment = struct.calcsize("<8sHHI") + hlen
        assert raw[segment] == TAG_SEGMENT
        (mlen,) = struct.unpack_from("<I", raw, segment + 1)
        static = segment + 5 + mlen
        assert raw[static] == TAG_STATIC  # statics precede their steps
        raw[static + 1 + 5] = 200  # the rd byte, after address and op
        path = tmp_path / "badreg.trace.gz"
        path.write_bytes(gzip.compress(bytes(raw)))
        with pytest.raises(TraceError, match="names register 200"):
            trace = load_trace(path, use_cache=False, stream=stream)
            run_all_schemes(TraceWorkload(path, trace), default_config(),
                            instructions=3000, warmup=500)

    def test_unwritable_output_is_a_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="cannot write"):
            TraceWriter(tmp_path / "no_such_dir" / "x.trace", header={})

    def test_aborted_writer_deletes_the_partial_file(self, tmp_path):
        path = tmp_path / "partial.trace.gz"
        with pytest.raises(RuntimeError):
            with TraceWriter(path, header={}) as writer:
                writer.begin_segment(_meta())
                raise RuntimeError("recording died")
        assert not path.exists()

    def test_write_step_outside_segment(self, tmp_path):
        writer = TraceWriter(tmp_path / "w.trace", header={})
        instr = Instruction(Opcode.NOP, address=0x400000)
        with pytest.raises(TraceError, match="outside a segment"):
            writer.write_step(_step(instr))
        writer.close()


class TestFileDigest:
    def test_digest_tracks_content(self, tmp_path):
        path = tmp_path / "d.trace"
        path.write_bytes(b"aaa")
        first = file_digest(path)
        assert first == file_digest(path)  # memoized, stable
        path.write_bytes(b"bbbb")  # new size: stat signature must change
        assert file_digest(path) != first

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceError, match="cannot stat"):
            file_digest(tmp_path / "absent")
