"""Tests for the compressed full-frame sketch codec (reject, never
corrupt)."""

import struct

import numpy as np
import pytest

from repro.errors import CodecError
from repro.network.codec import (
    FRAME_FULL,
    NO_BASE,
    DeltaDecoder,
    DeltaEncoder,
)
from repro.network.faults import SimulatedSwitch
from repro.core.universal import UniversalSketch

from tests.network.conftest import (
    FRAME_HEADER,
    HOSTILE_KINDS,
    frame_body,
    hostile_frame,
    reframe,
    zlib_bomb_frame,
)


def factory():
    return UniversalSketch(levels=4, rows=2, width=64, heap_size=8, seed=11)


def fill(sketch, seed=0, packets=200, universe=500):
    rng = np.random.default_rng(seed)
    sketch.update_array(
        rng.integers(0, universe, size=packets).astype(np.uint64))
    return sketch


def assert_equal_state(a, b):
    assert a.packets == b.packets
    for la, lb in zip(a.levels, b.levels):
        assert la.packets == lb.packets
        assert la.weight == lb.weight
        assert np.array_equal(la.sketch.table, lb.sketch.table)
        assert sorted(la.topk.items()) == sorted(lb.topk.items())


def header(frame):
    """``(type, flags, epoch, base_epoch)`` of a frame."""
    _, ftype, flags, epoch, base_epoch, _, _ = FRAME_HEADER.unpack(
        frame[:FRAME_HEADER.size])
    return ftype, flags, epoch, base_epoch


class TestRoundTrips:
    def test_full_frame_round_trip(self):
        enc, dec = DeltaEncoder(), DeltaDecoder()
        sketch = fill(factory())
        got = dec.decode(enc.encode(sketch))
        assert_equal_state(sketch, got)

    def test_empty_sketch_round_trip(self):
        enc, dec = DeltaEncoder(), DeltaDecoder()
        got = dec.decode(enc.encode(factory()))
        assert_equal_state(factory(), got)

    def test_sealed_stream_falls_back_to_full(self):
        # Per-epoch sealed sketches share no baseline with the previous
        # epoch, so every frame of the stream is a full frame.
        enc, dec = DeltaEncoder(), DeltaDecoder()
        for epoch in range(4):
            sketch = fill(factory(), seed=epoch)
            frame = enc.encode(sketch)
            assert header(frame)[0] == FRAME_FULL
            assert_equal_state(sketch, dec.decode(frame))

    def test_stale_ack_downgrades_to_full(self):
        # The poll protocol's ack is not read: a switch polled with an
        # ack it never sent still ships a full frame that decodes alone.
        switch = SimulatedSwitch("s0", factory)
        fill(switch.sketch, seed=1)
        expected = switch.sketch.copy()
        frame = switch.poll(999)
        assert header(frame)[0] == FRAME_FULL
        assert_equal_state(expected, DeltaDecoder().decode(frame))

    def test_decoded_sketch_is_independent_of_decoder_state(self):
        enc, dec = DeltaEncoder(), DeltaDecoder()
        frame = enc.encode(fill(factory()))
        got = dec.decode(frame)
        got.update(7)  # mutating the result must not affect a decode
        again = dec.decode(frame)
        assert again is not got
        assert_equal_state(fill(factory()), again)

    def test_raw_mode_never_stores_a_base(self):
        # Raw frames are uncompressed full frames with no base, and the
        # encoder keeps nothing between frames: the same sketch always
        # frames to the same bytes.
        enc = DeltaEncoder(compress=False)
        for epoch in range(3):
            sketch = fill(factory(), seed=epoch)
            frame = enc.encode(sketch)
            ftype, flags, _, base_epoch = header(frame)
            assert (ftype, flags, base_epoch) == (FRAME_FULL, 0, NO_BASE)
            assert enc.encode(sketch) == frame

    def test_compression_shrinks_sparse_sketches(self):
        raw = DeltaEncoder(compress=False)
        packed = DeltaEncoder(compress=True)
        sketch = fill(factory(), packets=30)
        assert len(packed.encode(sketch.copy())) \
            < len(raw.encode(sketch)) / 3


class TestFraming:
    def test_truncated_header_rejected(self):
        with pytest.raises(CodecError):
            DeltaDecoder().decode(b"UMF1\x01")

    def test_bad_magic_rejected(self):
        frame = DeltaEncoder().encode(factory())
        with pytest.raises(CodecError):
            DeltaDecoder().decode(b"XXXX" + frame[4:])

    def test_corrupt_payload_rejected_by_crc(self):
        frame = bytearray(DeltaEncoder().encode(fill(factory())))
        frame[-1] ^= 0xFF
        with pytest.raises(CodecError):
            DeltaDecoder().decode(bytes(frame))

    def test_unknown_type_and_flags_rejected(self):
        frame = DeltaEncoder().encode(fill(factory()))
        with pytest.raises(CodecError):
            DeltaDecoder().decode(reframe(frame, ftype=99))
        with pytest.raises(CodecError, match="type 2"):
            # The retired DELTA type is just another unknown type.
            DeltaDecoder().decode(reframe(frame, ftype=2))
        with pytest.raises(CodecError):
            DeltaDecoder().decode(reframe(frame, flags=0x80))

    def test_length_mismatch_rejected(self):
        frame = DeltaEncoder().encode(fill(factory()))
        with pytest.raises(CodecError):
            DeltaDecoder().decode(frame + b"extra")

    def test_truncation_at_every_offset_rejected(self):
        frame = DeltaEncoder(compress=False).encode(fill(factory()))
        dec = DeltaDecoder()
        for cut in range(len(frame) - 1):
            with pytest.raises(CodecError):
                dec.decode(frame[:cut])
        # A body cut short under a consistent header is rejected too.
        body = frame_body(frame)
        for cut in range(0, len(body), 97):
            with pytest.raises(CodecError):
                dec.decode(reframe(frame, body=body[:cut]))


class TestHostileDeltas:
    """Hand-corrupted full frames: each is rejected, and the decoder
    decodes the next good frame exactly."""

    def assert_rejected_cleanly(self, corrupt):
        dec = DeltaDecoder()
        with pytest.raises(CodecError):
            dec.decode(corrupt)
        sketch = fill(factory(), seed=123)
        assert_equal_state(sketch, dec.decode(DeltaEncoder().encode(sketch)))

    def hostile(self, kind):
        return hostile_frame(DeltaEncoder().encode(fill(factory())), kind)

    @pytest.mark.parametrize("kind", HOSTILE_KINDS)
    def test_hostile_full_frame_rejected(self, kind):
        self.assert_rejected_cleanly(self.hostile(kind))

    def test_stale_base_epoch_rejected(self):
        # Full frames carry no base; a frame claiming one is malformed.
        frame = DeltaEncoder().encode(fill(factory()))
        self.assert_rejected_cleanly(reframe(frame, base_epoch=3))

    def test_geometry_mismatch_rejected(self):
        # The geometry header disagrees with the table blocks after it.
        frame = DeltaEncoder().encode(fill(factory()))
        body = bytearray(frame_body(frame))
        struct.pack_into("<I", body, 4 + 1 + 4 + 4, 63)  # width 64 -> 63
        self.assert_rejected_cleanly(
            reframe(frame, flags=0, body=bytes(body)))

    def test_heap_count_above_capacity_rejected(self):
        self.assert_rejected_cleanly(self.hostile("heap_count"))

    def test_full_frame_carrying_garbage_rejected(self):
        frame = DeltaEncoder().encode(fill(factory()))
        self.assert_rejected_cleanly(
            reframe(frame, flags=0, body=b"UMS1garbage"))

    def test_zlib_bomb_bounded(self):
        # 128 MiB of zeros compresses tiny; decompression must stop at
        # the payload ceiling instead of ballooning.
        with pytest.raises(CodecError, match="exceeds"):
            DeltaDecoder().decode(zlib_bomb_frame())

    def test_trailing_bytes_rejected(self):
        self.assert_rejected_cleanly(self.hostile("trailing"))

    def test_difference_sketch_frame_rejected(self):
        # loads round-trips a difference sketch (negative level weight);
        # the codec only ships ingest sketches.
        a, b = fill(factory(), seed=1), fill(factory(), seed=2, packets=400)
        with pytest.raises(CodecError, match="negative"):
            DeltaDecoder().decode(DeltaEncoder().encode(a.subtract(b)))

    def test_recovery_after_reject_via_full_repoll(self):
        dec = DeltaDecoder()
        with pytest.raises(CodecError):
            dec.decode(self.hostile("trailing"))
        enc = DeltaEncoder()
        sketch = fill(factory(), seed=123)
        got = dec.decode(enc.encode(sketch))
        assert_equal_state(sketch, got)
