"""Compressed sketch frames for network-wide collection.

Every transfer — a leaf's sealed epoch, an aggregator's uplink, an
agent's ``DELTA`` reply — ships the whole sealed sketch as one FULL
frame: the :mod:`~repro.core.serialization` encoding, zlib-compressed
unless the encoder is configured raw.  The frame wraps it in the poll
protocol's integrity discipline (explicit length + CRC32 over the
payload, hard size ceilings before any allocation):

    frame: magic ``UMF1`` | u8 type | u8 flags | i64 epoch |
           i64 base_epoch | u32 payload_len | u32 crc32(payload) |
           payload

Why no deltas against the previous frame: the controller seals and
resets each switch's sketch every epoch (§5), so two consecutive frames
of one link never share a baseline.  A delta would also have to revert
the previous epoch's counters and always lost to the compressed full
frame; the wire savings come from sparsity plus zlib.  The header keeps
the layout of the earlier delta-capable format, so FULL frames keep
their size and body and either side reads the other's: ``type`` is
always FULL (type 2, the old DELTA, is rejected like any unknown type),
``base_epoch`` is always :data:`NO_BASE`, and ``epoch`` is written as 0
and not read.

Hostile input is a first-class concern: a decoder must *reject, never
corrupt*.  The body goes through :func:`~repro.core.serialization.loads`
(geometry ceilings, exact lengths, no trailing bytes, finite heap
estimates) plus the checks only an ingest sketch must pass (no negative
level counts), and decompression is bounded so a zlib bomb cannot
balloon memory.

The class names :class:`DeltaEncoder` / :class:`DeltaDecoder` predate
the single-frame design; they are kept because the benchmark's
per-layer tracer (``perfbench/layers.py``) times
``DeltaEncoder.encode`` and ``DeltaDecoder.decode`` by name.
"""

from __future__ import annotations

import struct
import zlib

from repro.errors import CodecError
from repro.errors import TraceFormatError
from repro.obs.metrics import get_registry
from repro.core import serialization
from repro.core.universal import UniversalSketch

__all__ = ["FRAME_FULL", "NO_BASE", "DeltaEncoder", "DeltaDecoder"]

_MAGIC = b"UMF1"
_HEADER = struct.Struct("<4sBBqqII")

#: The only frame type.
FRAME_FULL = 1

#: Flag bits.
_FLAG_ZLIB = 1

#: zlib compression level of compressed frames.
_ZLIB_LEVEL = 6

#: The ``base_epoch`` every frame carries, and the ack a receiver sends
#: in the poll protocol's ``DELTA <program> <base_epoch>`` request.
NO_BASE = -1

#: Hard ceiling on a frame payload and on its decompressed body.  Kept
#: in line with the poll protocol's MAX_FRAME_BYTES; a corrupt length or
#: a zlib bomb must never translate into a runaway allocation.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024


def _payload(frame: bytes) -> bytes:
    """Validate the header and CRC; return the decompressed body."""
    if len(frame) < _HEADER.size:
        raise CodecError(
            f"codec frame truncated: {len(frame)} bytes < "
            f"{_HEADER.size}-byte header")
    magic, ftype, flags, _, base_epoch, length, crc = _HEADER.unpack(
        frame[:_HEADER.size])
    if magic != _MAGIC:
        raise CodecError(f"bad codec frame magic {magic!r}")
    if ftype != FRAME_FULL:
        raise CodecError(f"unknown codec frame type {ftype}")
    if flags & ~_FLAG_ZLIB:
        raise CodecError(f"unknown codec frame flags 0x{flags:02x}")
    if base_epoch != NO_BASE:
        raise CodecError(
            f"codec frame claims base epoch {base_epoch}; full frames "
            f"carry no base")
    if length > MAX_PAYLOAD_BYTES:
        raise CodecError(
            f"codec payload length {length} exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte limit")
    if len(frame) - _HEADER.size != length:
        raise CodecError(
            f"codec frame length mismatch: header says {length} payload "
            f"bytes, frame carries {len(frame) - _HEADER.size}")
    payload = frame[_HEADER.size:]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CodecError("codec frame checksum mismatch (corrupt payload)")
    if not flags & _FLAG_ZLIB:
        return payload
    try:
        obj = zlib.decompressobj()
        body = obj.decompress(payload, MAX_PAYLOAD_BYTES)
    except zlib.error as exc:
        raise CodecError(f"codec body decompression failed: {exc}") \
            from exc
    if obj.unconsumed_tail:
        raise CodecError(
            f"decompressed codec body exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte limit")
    return body


class DeltaEncoder:
    """Frames sealed sketches for the wire.

    Stateless: every frame is a FULL frame of the sketch it is given.
    ``compress=False`` ships the bare serialization plus the frame
    header — the "raw transfer" baseline of the scale benchmarks.
    """

    def __init__(self, compress: bool = True) -> None:
        self.compress = compress

    def encode(self, sketch: UniversalSketch) -> bytes:
        """Frame ``sketch``; returns the wire bytes."""
        reg = get_registry()
        body = serialization.dumps(sketch)
        reg.counter("univmon_codec_raw_bytes_total",
                    help="uncompressed full-sketch bytes (the raw-"
                         "transfer baseline)").inc(len(body))
        flags = 0
        payload = body
        if self.compress:
            compressed = zlib.compress(body, _ZLIB_LEVEL)
            if len(compressed) < len(body):
                payload = compressed
                flags |= _FLAG_ZLIB
        frame = _HEADER.pack(_MAGIC, FRAME_FULL, flags, 0, NO_BASE,
                             len(payload),
                             zlib.crc32(payload) & 0xFFFFFFFF) + payload
        reg.counter("univmon_codec_frames_total",
                    help="codec frames emitted", kind="full").inc()
        reg.counter("univmon_codec_wire_bytes_total",
                    help="framed (possibly compressed) bytes on the "
                         "wire").inc(len(frame))
        return frame


class DeltaDecoder:
    """Turns frames back into sketches.

    Stateless: each frame decodes on its own, and the returned sketch
    is freshly built from the frame, owned by the caller.
    """

    def decode(self, frame: bytes) -> UniversalSketch:
        """Decode one frame into a sketch.

        Raises :class:`~repro.errors.CodecError` on any invalid frame.
        """
        reg = get_registry()
        try:
            sketch = self._load(_payload(frame))
        except CodecError:
            reg.counter("univmon_codec_rejects_total",
                        help="codec frames rejected by the decoder",
                        reason="invalid").inc()
            raise
        reg.counter("univmon_codec_frames_decoded_total",
                    help="codec frames decoded", kind="full").inc()
        return sketch

    @staticmethod
    def _load(body: bytes) -> UniversalSketch:
        try:
            sketch = serialization.loads(body)
        except TraceFormatError as exc:
            raise CodecError(f"full frame body rejected: {exc}") from exc
        if not isinstance(sketch, UniversalSketch):
            raise CodecError(
                f"full frame carried a {type(sketch).__name__}, expected "
                f"a UniversalSketch")
        # loads round-trips difference sketches too; a frame ships an
        # ingest sketch, whose level counts cannot be negative.
        for j, level in enumerate(sketch.levels):
            if level.packets < 0 or level.weight < 0:
                raise CodecError(
                    f"level {j} carries a negative packet count or "
                    f"weight ({level.packets}, {level.weight})")
        return sketch
