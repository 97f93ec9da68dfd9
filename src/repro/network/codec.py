"""Delta-encoded, compressed sketch transfer for network-wide collection.

ROADMAP's scale-out item observes that "most level counters are sparse
between polls": each poll seals a fresh per-epoch sketch, and with a
5-second cadence the deep sampled levels of a universal sketch see only
a handful of keys, so successive epochs touch a small, similar set of
counters.  Shipping the full counter tables every epoch (as
:mod:`repro.core.serialization` does) wastes almost all of its bytes on
zeros and near-repeats.

This module defines a self-contained frame format on top of the v2 poll
protocol's integrity discipline (explicit length + CRC32 over the
payload, hard size ceilings before any allocation):

    frame: magic ``UMF1`` | u8 type | u8 flags | i64 epoch |
           i64 base_epoch | u32 payload_len | u32 crc32(payload) |
           payload

Two frame types:

- **FULL** — the :mod:`~repro.core.serialization` encoding of the whole
  sketch (zlib-compressed unless the encoder is configured raw).  Sent
  when the receiver holds no usable base, or when the delta would be
  larger than the full frame.
- **DELTA** — sparse ``(flat index, delta)`` pairs per level against the
  *last-acked* epoch, plus per-level packet/weight deltas and the (small)
  heaps shipped whole.  Appliable only when the receiver's base epoch
  matches ``base_epoch``; anything else raises
  :class:`~repro.errors.StaleBaseError` and the sender falls back to a
  full frame.

Ack discipline: the *receiver* states which epoch it holds in every
request (``DELTA <program> <base_epoch>`` on the wire, the
``base_epoch`` argument of :meth:`DeltaEncoder.encode` in-process).  The
encoder only emits a delta when that claim matches the epoch it last
sent — so a lost response, a restarted peer, or a re-parented collector
(whose decoder state starts empty) all degrade safely to a full frame
instead of a corrupt apply.

Hostile input is a first-class concern: a decoder must *reject, never
corrupt*.  Every index is bounds-checked, every delta overflow-checked,
every count ceiling-checked before a single counter of the (copied)
base state is touched; decompression is bounded so a zlib bomb cannot
balloon memory.
"""

from __future__ import annotations

import io
import struct
import zlib
from typing import Optional

import numpy as np

from repro.errors import CodecError, StaleBaseError
from repro.errors import TraceFormatError
from repro.obs.metrics import get_registry
from repro.core import serialization
from repro.core.universal import UniversalSketch
from repro.sketches.topk import TopK

__all__ = ["FRAME_FULL", "FRAME_DELTA", "NO_BASE", "FrameInfo",
           "frame_info", "DeltaEncoder", "DeltaDecoder"]

_MAGIC = b"UMF1"
_HEADER = struct.Struct("<4sBBqqII")

#: Frame types.
FRAME_FULL = 1
FRAME_DELTA = 2

#: Flag bits.
_FLAG_ZLIB = 1

#: The "I hold no base" epoch — what a fresh decoder reports, and what a
#: receiver sends to force a full frame.
NO_BASE = -1

#: Hard ceiling on a frame payload and on its decompressed body.  Kept
#: in line with the poll protocol's MAX_FRAME_BYTES; a corrupt length or
#: a zlib bomb must never translate into a runaway allocation.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

_INT64_MAX = np.iinfo(np.int64).max
_INT64_MIN = np.iinfo(np.int64).min


class FrameInfo:
    """Parsed header of one codec frame (no payload validation)."""

    __slots__ = ("kind", "epoch", "base_epoch", "compressed",
                 "payload_len", "nbytes")

    def __init__(self, kind: str, epoch: int, base_epoch: int,
                 compressed: bool, payload_len: int, nbytes: int) -> None:
        self.kind = kind
        self.epoch = epoch
        self.base_epoch = base_epoch
        self.compressed = compressed
        self.payload_len = payload_len
        self.nbytes = nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FrameInfo(kind={self.kind!r}, epoch={self.epoch}, "
                f"base_epoch={self.base_epoch}, nbytes={self.nbytes})")


def _parse_header(frame: bytes) -> FrameInfo:
    if len(frame) < _HEADER.size:
        raise CodecError(
            f"codec frame truncated: {len(frame)} bytes < "
            f"{_HEADER.size}-byte header")
    magic, ftype, flags, epoch, base_epoch, length, crc = _HEADER.unpack(
        frame[:_HEADER.size])
    if magic != _MAGIC:
        raise CodecError(f"bad codec frame magic {magic!r}")
    if ftype not in (FRAME_FULL, FRAME_DELTA):
        raise CodecError(f"unknown codec frame type {ftype}")
    if flags & ~_FLAG_ZLIB:
        raise CodecError(f"unknown codec frame flags 0x{flags:02x}")
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
    return FrameInfo(
        kind="full" if ftype == FRAME_FULL else "delta",
        epoch=epoch, base_epoch=base_epoch,
        compressed=bool(flags & _FLAG_ZLIB), payload_len=length,
        nbytes=len(frame))


def frame_info(frame: bytes) -> FrameInfo:
    """Validate framing/CRC and return the parsed header."""
    return _parse_header(frame)


def _read_exact(buf: io.BytesIO, n: int, what: str) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise CodecError(
            f"truncated codec body: wanted {n} bytes for {what}, "
            f"got {len(data)}")
    return data


# --------------------------------------------------------------------- #
# encoder
# --------------------------------------------------------------------- #

class DeltaEncoder:
    """Sender-side state of one sketch stream (one uplink).

    Remembers the last sketch it framed and that frame's epoch; when the
    receiver's acked base matches, the next sketch ships as a sparse
    delta, otherwise as a full frame.  Epoch numbers are local to the
    encoder (they only ever need to match the encoder's own history), so
    a restarted sender — whose encoder state is gone — naturally starts
    a fresh lineage of full frames.

    Parameters
    ----------
    delta:
        ``False`` disables delta encoding entirely (every frame is FULL)
        — the "raw transfer" baseline of the scale benchmarks.
    compress:
        zlib-compress frame payloads.  ``delta=False, compress=False``
        is byte-for-byte the old full-sketch transfer plus the frame
        header.
    level:
        zlib compression level.
    """

    def __init__(self, delta: bool = True, compress: bool = True,
                 level: int = 6) -> None:
        self.delta = delta
        self.compress = compress
        self.level = level
        self._base: Optional[UniversalSketch] = None
        self._base_epoch = NO_BASE
        self._next_epoch = 0

    def reset(self) -> None:
        """Forget the stored base (a restarted sender)."""
        self._base = None
        self._base_epoch = NO_BASE

    def _frame(self, ftype: int, body: bytes, epoch: int,
               base_epoch: int) -> bytes:
        flags = 0
        payload = body
        if self.compress:
            compressed = zlib.compress(body, self.level)
            if len(compressed) < len(body):
                payload = compressed
                flags |= _FLAG_ZLIB
        header = _HEADER.pack(_MAGIC, ftype, flags, epoch, base_epoch,
                              len(payload),
                              zlib.crc32(payload) & 0xFFFFFFFF)
        return header + payload

    def _delta_body(self, sketch: UniversalSketch) -> bytes:
        base = self._base
        out = io.BytesIO()
        out.write(struct.pack(
            "<IIIIq", sketch.num_levels, sketch.rows, sketch.width,
            sketch.heap_size, int(sketch.seed)))
        out.write(struct.pack("<q", sketch.packets - base.packets))
        for lvl, base_lvl in zip(sketch.levels, base.levels):
            out.write(struct.pack(
                "<qq", lvl.packets - base_lvl.packets,
                lvl.weight - base_lvl.weight))
            diff = (lvl.sketch.table.ravel().astype(np.int64)
                    - base_lvl.sketch.table.ravel().astype(np.int64))
            changed = np.flatnonzero(diff)
            out.write(struct.pack("<I", len(changed)))
            out.write(changed.astype(np.uint32).tobytes())
            out.write(diff[changed].astype(np.int64).tobytes())
            items = lvl.topk.items()
            out.write(struct.pack("<I", len(items)))
            for key, estimate in items:
                out.write(struct.pack("<Qd", key, estimate))
        return out.getvalue()

    def encode(self, sketch: UniversalSketch,
               base_epoch: int = NO_BASE) -> bytes:
        """Frame ``sketch`` for a receiver that claims to hold
        ``base_epoch``; returns the wire bytes.

        The full serialization is always produced (it is the fallback
        and the raw-bytes accounting baseline); the delta is used only
        when the receiver's claim matches this encoder's last epoch
        *and* the delta actually saves bytes.
        """
        reg = get_registry()
        epoch = self._next_epoch
        self._next_epoch += 1
        full_body = serialization.dumps(sketch)
        reg.counter("univmon_codec_raw_bytes_total",
                    help="uncompressed full-sketch bytes (the raw-"
                         "transfer baseline)").inc(len(full_body))

        frame = None
        if self.delta and self._base is not None:
            if base_epoch == self._base_epoch:
                delta_frame = self._frame(
                    FRAME_DELTA, self._delta_body(sketch), epoch,
                    self._base_epoch)
                full_frame = self._frame(FRAME_FULL, full_body, epoch,
                                         NO_BASE)
                if len(delta_frame) <= len(full_frame):
                    frame = delta_frame
                else:
                    frame = full_frame
                    reg.counter(
                        "univmon_codec_fallbacks_total",
                        help="full frames sent where a delta was "
                             "possible but not worthwhile",
                        reason="delta_larger").inc()
            else:
                reg.counter("univmon_codec_fallbacks_total",
                            help="full frames sent where a delta was "
                                 "possible but not worthwhile",
                            reason="stale_ack").inc()
        if frame is None:
            frame = self._frame(FRAME_FULL, full_body, epoch, NO_BASE)
        if self.delta:
            self._base = sketch.copy()
            self._base_epoch = epoch
        kind = "delta" if frame[4] == FRAME_DELTA else "full"
        reg.counter("univmon_codec_frames_total",
                    help="codec frames emitted", kind=kind).inc()
        reg.counter("univmon_codec_wire_bytes_total",
                    help="framed (possibly compressed) bytes on the "
                         "wire").inc(len(frame))
        return frame


# --------------------------------------------------------------------- #
# decoder
# --------------------------------------------------------------------- #

class DeltaDecoder:
    """Receiver-side state of one sketch stream.

    Holds the last successfully decoded sketch as the delta base.  Every
    frame is fully validated *before* any state changes: a rejected
    frame leaves the decoder exactly as it was (the caller may re-poll
    with ``base_epoch=NO_BASE`` to force a full frame).
    """

    def __init__(self) -> None:
        self._base: Optional[UniversalSketch] = None
        self._base_epoch = NO_BASE

    @property
    def base_epoch(self) -> int:
        """The epoch this decoder can apply deltas against."""
        return self._base_epoch

    def reset(self) -> None:
        self._base = None
        self._base_epoch = NO_BASE

    # -- body decoding -------------------------------------------------- #

    @staticmethod
    def _decompress(info: FrameInfo, payload: bytes) -> bytes:
        if not info.compressed:
            return payload
        try:
            obj = zlib.decompressobj()
            body = obj.decompress(payload, MAX_PAYLOAD_BYTES)
            if obj.unconsumed_tail:
                raise CodecError(
                    f"decompressed codec body exceeds the "
                    f"{MAX_PAYLOAD_BYTES}-byte limit")
            return body
        except zlib.error as exc:
            raise CodecError(f"codec body decompression failed: {exc}") \
                from exc

    def _decode_full(self, info: FrameInfo, body: bytes) -> UniversalSketch:
        try:
            sketch = serialization.loads(body)
        except TraceFormatError as exc:
            raise CodecError(f"full frame body rejected: {exc}") from exc
        if not isinstance(sketch, UniversalSketch):
            raise CodecError(
                f"full frame carried a {type(sketch).__name__}, expected "
                f"a UniversalSketch")
        return sketch

    def _decode_delta(self, info: FrameInfo, body: bytes) -> UniversalSketch:
        base = self._base
        if base is None or info.base_epoch != self._base_epoch:
            raise StaleBaseError(
                f"delta frame against epoch {info.base_epoch}, but this "
                f"decoder holds "
                f"{'nothing' if base is None else self._base_epoch}")
        if info.epoch <= self._base_epoch:
            raise StaleBaseError(
                f"non-monotonic delta epoch {info.epoch} "
                f"(base is {self._base_epoch})")
        buf = io.BytesIO(body)
        levels, rows, width, heap_size, seed = struct.unpack(
            "<IIIIq", _read_exact(buf, 24, "geometry header"))
        serialization.check_geometry(levels, rows, width, heap_size)
        if (levels, rows, width, heap_size, seed) != (
                base.num_levels, base.rows, base.width, base.heap_size,
                base.seed):
            raise CodecError(
                "delta frame geometry does not match the held base "
                f"(frame {(levels, rows, width, heap_size, seed)}, base "
                f"{(base.num_levels, base.rows, base.width, base.heap_size, base.seed)})")
        (packets_delta,) = struct.unpack(
            "<q", _read_exact(buf, 8, "packet delta"))
        if base.packets + packets_delta < 0:
            raise CodecError(
                f"delta frame drives the packet count negative "
                f"({base.packets} + {packets_delta})")

        # Validate every level completely before touching any state.
        counters = rows * width
        parsed = []
        for j in range(levels + 1):
            lvl_packets_delta, lvl_weight_delta = struct.unpack(
                "<qq", _read_exact(buf, 16, f"level {j} header"))
            (nchanged,) = struct.unpack(
                "<I", _read_exact(buf, 4, f"level {j} change count"))
            if nchanged > counters:
                raise CodecError(
                    f"level {j} delta claims {nchanged} changed counters "
                    f"but the level only has {counters}")
            idx = np.frombuffer(
                _read_exact(buf, 4 * nchanged, f"level {j} indices"),
                dtype=np.uint32).astype(np.int64)
            deltas = np.frombuffer(
                _read_exact(buf, 8 * nchanged, f"level {j} deltas"),
                dtype=np.int64)
            if nchanged:
                if int(idx.max()) >= counters:
                    raise CodecError(
                        f"level {j} delta index {int(idx.max())} out of "
                        f"range (level has {counters} counters)")
                if len(np.unique(idx)) != nchanged:
                    raise CodecError(
                        f"level {j} delta carries duplicate indices")
                base_vals = base.levels[j].sketch.table.ravel()[idx] \
                    .astype(np.int64)
                overflow = ((deltas > 0)
                            & (base_vals > _INT64_MAX - deltas)) \
                    | ((deltas < 0) & (base_vals < _INT64_MIN - deltas))
                if bool(overflow.any()):
                    raise CodecError(
                        f"level {j} delta overflows an int64 counter")
            base_lvl = base.levels[j]
            if base_lvl.packets + lvl_packets_delta < 0:
                raise CodecError(
                    f"level {j} delta drives its packet count negative")
            if base_lvl.weight + lvl_weight_delta < 0:
                raise CodecError(
                    f"level {j} delta drives its weight negative "
                    f"(the codec ships ingest sketches, not differences)")
            (heap_count,) = struct.unpack(
                "<I", _read_exact(buf, 4, f"level {j} heap count"))
            if heap_count > heap_size:
                raise CodecError(
                    f"level {j} heap holds {heap_count} items but its "
                    f"capacity is {heap_size}")
            heap_items = []
            for _ in range(heap_count):
                key, estimate = struct.unpack(
                    "<Qd", _read_exact(buf, 16, f"level {j} heap item"))
                if not np.isfinite(estimate):
                    raise CodecError(
                        f"level {j} heap carries a non-finite estimate")
                heap_items.append((key, estimate))
            parsed.append((lvl_packets_delta, lvl_weight_delta, idx,
                           deltas, heap_items))
        if buf.read(1):
            raise CodecError("trailing bytes after delta body")

        # All validated: apply onto an independent copy of the base.
        out = base.copy()
        for j, (lvl_packets_delta, lvl_weight_delta, idx, deltas,
                heap_items) in enumerate(parsed):
            lvl = out.levels[j]
            if len(idx):
                flat = lvl.sketch.table.reshape(-1)
                flat[idx] += deltas
            lvl.packets += lvl_packets_delta
            lvl.weight += lvl_weight_delta
            heap = TopK(heap_size)
            for key, estimate in heap_items:
                heap.offer(key, estimate)
            lvl.topk = heap
        out.packets = base.packets + packets_delta
        out.invalidate_snapshot()
        return out

    # -- public API ------------------------------------------------------ #

    def decode(self, frame: bytes) -> UniversalSketch:
        """Decode one frame into a sketch, updating the held base.

        Raises :class:`~repro.errors.CodecError` (or its
        :class:`~repro.errors.StaleBaseError` subclass) on any invalid
        frame, leaving the decoder state untouched.
        """
        reg = get_registry()
        try:
            info = _parse_header(frame)
            body = self._decompress(info, frame[_HEADER.size:])
            if info.kind == "full":
                sketch = self._decode_full(info, body)
            else:
                sketch = self._decode_delta(info, body)
        except StaleBaseError:
            reg.counter("univmon_codec_rejects_total",
                        help="codec frames rejected by the decoder",
                        reason="stale_base").inc()
            raise
        except CodecError:
            reg.counter("univmon_codec_rejects_total",
                        help="codec frames rejected by the decoder",
                        reason="invalid").inc()
            raise
        self._base = sketch
        self._base_epoch = info.epoch
        reg.counter("univmon_codec_frames_decoded_total",
                    help="codec frames decoded", kind=info.kind).inc()
        return sketch.copy()
