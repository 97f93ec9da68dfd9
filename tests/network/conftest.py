"""Hostile codec frames shared by the codec and coordinator tests."""

import struct
import zlib

from repro.network.codec import FRAME_FULL, NO_BASE

FRAME_HEADER = struct.Struct("<4sBBqqII")

#: Offset of level 0 in a serialized universal sketch: magic + the
#: ``<BIIIIqq`` geometry/seed/packets header.
_LEVEL0 = 4 + struct.calcsize("<BIIIIqq")

#: Every way a hostile full frame is built by :func:`hostile_frame`.
HOSTILE_KINDS = ("trailing", "nan", "negative_packets", "negative_weight",
                 "heap_count", "truncated", "bad_crc", "zlib_bomb")


def reframe(frame, *, ftype=None, flags=None, epoch=None, base_epoch=None,
            body=None):
    """Rebuild a frame with selected header fields (CRC recomputed, so
    the *decoder's semantic checks* are what reject it)."""
    magic, t, f, e, b, _, _ = FRAME_HEADER.unpack(frame[:FRAME_HEADER.size])
    payload = frame[FRAME_HEADER.size:] if body is None else body
    t = t if ftype is None else ftype
    f = f if flags is None else flags
    e = e if epoch is None else epoch
    b = b if base_epoch is None else base_epoch
    header = FRAME_HEADER.pack(magic, t, f, e, b, len(payload),
                               zlib.crc32(payload) & 0xFFFFFFFF)
    return header + payload


def frame_body(frame):
    """The serialized sketch a frame carries (decompressed)."""
    flags = frame[5]
    payload = frame[FRAME_HEADER.size:]
    return zlib.decompress(payload) if flags & 1 else payload


def level0_heap(body):
    """``(count offset, capacity)`` of level 0's heap in a serialized
    universal sketch; its first item follows the count."""
    (nbytes,) = struct.unpack_from("<I", body, _LEVEL0 + 16)
    capacity_at = _LEVEL0 + 20 + nbytes
    (capacity,) = struct.unpack_from("<I", body, capacity_at)
    return capacity_at + 4, capacity


def zlib_bomb_frame():
    """A FULL frame whose payload inflates to 128 MiB of zeros (built a
    megabyte at a time, so making it costs no big allocation)."""
    packer = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    bomb = b"".join(packer.compress(zeros) for _ in range(128))
    bomb += packer.flush()
    return FRAME_HEADER.pack(b"UMF1", FRAME_FULL, 1, 0, NO_BASE, len(bomb),
                             zlib.crc32(bomb) & 0xFFFFFFFF) + bomb


def hostile_frame(frame, kind):
    """``frame`` (a valid FULL frame of a universal sketch whose level-0
    heap is non-empty) turned hostile in the way ``kind`` names."""
    if kind == "truncated":
        return frame[:len(frame) // 2]
    if kind == "bad_crc":
        corrupt = bytearray(frame)
        corrupt[-1] ^= 0xFF
        return bytes(corrupt)
    if kind == "zlib_bomb":
        return zlib_bomb_frame()
    body = bytearray(frame_body(frame))
    count_at, capacity = level0_heap(body)
    if kind == "trailing":
        body += b"\x00"
    elif kind == "nan":
        (count,) = struct.unpack_from("<I", body, count_at)
        assert count > 0, "fixture needs a non-empty level-0 heap"
        struct.pack_into("<d", body, count_at + 4 + 8, float("nan"))
    elif kind == "negative_packets":
        struct.pack_into("<q", body, _LEVEL0, -1)
    elif kind == "negative_weight":
        struct.pack_into("<q", body, _LEVEL0 + 8, -1)
    elif kind == "heap_count":
        struct.pack_into("<I", body, count_at, capacity + 1)
    else:
        raise ValueError(f"unknown hostile kind {kind!r}")
    return reframe(frame, flags=0, body=bytes(body))
