"""Sketch (de)serialization — the wire format of the poll protocol.

The controller "periodically retrieves the counters being maintained by
the data plane"; in any real deployment those counters cross a network.
This module defines a compact, versioned binary encoding for the
sketches the poll loop ships:

- header: magic ``b"UMS1"`` + a type tag,
- fixed little-endian struct fields for the geometry and seed,
- raw numpy counter blocks,
- heaps as ``(key, estimate)`` arrays.

Only seeded sketches can be serialized: the hash functions are *not*
shipped (they are large and derivable), so the receiver reconstructs
them from the seed — which is also what keeps the format compact enough
for a 5-second polling cadence.
"""

from __future__ import annotations

import io
import math
import struct
from typing import BinaryIO, Union

import numpy as np

from repro.errors import ConfigurationError, TraceFormatError
from repro.core.level import SketchLevel
from repro.core.universal import UniversalSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.kary import KArySketch
from repro.sketches.topk import TopK

_MAGIC = b"UMS1"

_TYPE_COUNT_SKETCH = 1
_TYPE_COUNT_MIN = 2
_TYPE_KARY = 3
_TYPE_UNIVERSAL = 4

# Sanity ceilings for deserialized geometry.  A corrupt or hostile header
# must not translate into a multi-gigabyte allocation or a numpy reshape
# traceback; anything outside these bounds is rejected as a format error.
# The largest geometry the experiments use is orders of magnitude smaller.
MAX_LEVELS = 64
MAX_ROWS = 512
MAX_WIDTH = 1 << 24
MAX_HEAP = 1 << 20


def _check_range(name: str, value: int, lo: int, hi: int) -> int:
    if not lo <= value <= hi:
        raise TraceFormatError(
            f"corrupt sketch payload: {name}={value} outside [{lo}, {hi}]")
    return value


def check_geometry(levels: int, rows: int, width: int,
                   heap_size: int) -> None:
    """Reject universal-sketch geometry outside the sanity ceilings.

    Raises :class:`~repro.errors.TraceFormatError` — the caller decides
    whether that means a corrupt file or a hostile peer.
    """
    _check_range("levels", levels, 0, MAX_LEVELS)
    _check_range("rows", rows, 1, MAX_ROWS)
    _check_range("width", width, 1, MAX_WIDTH)
    _check_range("heap_size", heap_size, 1, MAX_HEAP)


def _require_seed(sketch) -> int:
    if sketch.seed is None:
        raise ConfigurationError(
            f"{type(sketch).__name__} must have an explicit seed to be "
            f"serialized (hash functions are reconstructed from it)")
    return int(sketch.seed)


def _write_table(out: BinaryIO, table: np.ndarray) -> None:
    data = np.ascontiguousarray(table, dtype=np.int64).tobytes()
    out.write(struct.pack("<I", len(data)))
    out.write(data)


def _read_table(buf: BinaryIO, rows: int, width: int) -> np.ndarray:
    (nbytes,) = struct.unpack("<I", _read_exact(buf, 4))
    expected = rows * width * 8
    if nbytes != expected:
        raise TraceFormatError(
            f"corrupt sketch payload: table block is {nbytes} bytes, "
            f"expected {expected} for {rows}x{width} int64 counters")
    raw = _read_exact(buf, nbytes)
    table = np.frombuffer(raw, dtype=np.int64).reshape(rows, width).copy()
    return table


def _read_exact(buf: BinaryIO, n: int) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise TraceFormatError(
            f"truncated sketch payload: wanted {n} bytes, got {len(data)}")
    return data


def _write_topk(out: BinaryIO, topk: TopK) -> None:
    items = topk.items()
    out.write(struct.pack("<II", topk.capacity, len(items)))
    for key, estimate in items:
        out.write(struct.pack("<Qd", key, estimate))


def _read_topk(buf: BinaryIO, heap_size: int) -> TopK:
    capacity, count = struct.unpack("<II", _read_exact(buf, 8))
    if capacity != heap_size:
        raise TraceFormatError(
            f"corrupt sketch payload: heap capacity {capacity} differs "
            f"from the sketch's heap size {heap_size}")
    if count > capacity:
        raise TraceFormatError(
            f"corrupt sketch payload: heap holds {count} items but its "
            f"capacity is {capacity}")
    topk = TopK(capacity)
    for _ in range(count):
        key, estimate = struct.unpack("<Qd", _read_exact(buf, 16))
        if not math.isfinite(estimate):
            raise TraceFormatError(
                f"corrupt sketch payload: non-finite heap estimate "
                f"{estimate} for key {key}")
        topk.offer(key, estimate)
    return topk


# --------------------------------------------------------------------- #
# per-type encoders
# --------------------------------------------------------------------- #

def _dump_count_sketch(out: BinaryIO, sketch: CountSketch,
                       type_tag: int) -> None:
    out.write(_MAGIC)
    out.write(struct.pack("<BIIq", type_tag, sketch.rows, sketch.width,
                          _require_seed(sketch)))
    _write_table(out, sketch.table)


def _load_tableau(buf: BinaryIO, cls, type_name: str):
    rows, width, seed = struct.unpack("<IIq", _read_exact(buf, 16))
    _check_range("rows", rows, 1, MAX_ROWS)
    _check_range("width", width, 1, MAX_WIDTH)
    sketch = cls(rows=rows, width=width, seed=seed)
    sketch.table = _read_table(buf, rows, width)
    return sketch


def _dump_universal(out: BinaryIO, sketch: UniversalSketch) -> None:
    out.write(_MAGIC)
    out.write(struct.pack(
        "<BIIIIqq", _TYPE_UNIVERSAL, sketch.num_levels, sketch.rows,
        sketch.width, sketch.heap_size, _require_seed(sketch),
        sketch.packets))
    for level in sketch.levels:
        out.write(struct.pack("<qq", level.packets, level.weight))
        _write_table(out, level.sketch.table)
        _write_topk(out, level.topk)


def _load_universal(buf: BinaryIO) -> UniversalSketch:
    levels, rows, width, heap_size, seed, packets = struct.unpack(
        "<IIIIqq", _read_exact(buf, 32))
    check_geometry(levels, rows, width, heap_size)
    if packets < 0:
        raise TraceFormatError(
            f"corrupt sketch payload: negative packet count {packets}")
    sketch = UniversalSketch(levels=levels, rows=rows, width=width,
                             heap_size=heap_size, seed=seed)
    sketch.packets = packets
    for level in sketch.levels:
        level.packets, level.weight = struct.unpack(
            "<qq", _read_exact(buf, 16))
        level.sketch.table = _read_table(buf, rows, width)
        level.topk = _read_topk(buf, heap_size)
    return sketch


# --------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------- #

def dumps(sketch) -> bytes:
    """Serialize a seeded sketch to bytes."""
    out = io.BytesIO()
    if isinstance(sketch, UniversalSketch):
        _dump_universal(out, sketch)
    elif isinstance(sketch, CountSketch):
        _dump_count_sketch(out, sketch, _TYPE_COUNT_SKETCH)
    elif isinstance(sketch, CountMinSketch):
        if sketch.conservative:
            raise ConfigurationError(
                "conservative CountMin carries no extra state but is "
                "flagged non-linear; serialize the plain variant")
        _dump_count_sketch(out, sketch, _TYPE_COUNT_MIN)
    elif isinstance(sketch, KArySketch):
        _dump_count_sketch(out, sketch, _TYPE_KARY)
    else:
        raise ConfigurationError(
            f"no serializer for {type(sketch).__name__}")
    return out.getvalue()


def loads(data: Union[bytes, bytearray]):
    """Reconstruct a sketch serialized by :func:`dumps`.

    Truncated or corrupt payloads raise :class:`TraceFormatError` — never
    a raw ``struct.error`` or numpy reshape traceback — so transport
    layers can treat any decode failure uniformly.  So do bytes left
    over after the sketch, a heap whose capacity is not the sketch's
    heap size, and non-finite heap estimates.
    """
    buf = io.BytesIO(bytes(data))
    magic = buf.read(4)
    if magic != _MAGIC:
        raise TraceFormatError(f"bad sketch magic {magic!r}")
    try:
        (type_tag,) = struct.unpack("<B", _read_exact(buf, 1))
        if type_tag == _TYPE_UNIVERSAL:
            sketch = _load_universal(buf)
        elif type_tag == _TYPE_COUNT_SKETCH:
            sketch = _load_tableau(buf, CountSketch, "CountSketch")
        elif type_tag == _TYPE_COUNT_MIN:
            sketch = _load_tableau(buf, CountMinSketch, "CountMinSketch")
        elif type_tag == _TYPE_KARY:
            sketch = _load_tableau(buf, KArySketch, "KArySketch")
        else:
            raise TraceFormatError(f"unknown sketch type tag {type_tag}")
    except (struct.error, ValueError, OverflowError) as exc:
        raise TraceFormatError(f"corrupt sketch payload: {exc}") from exc
    if buf.read(1):
        raise TraceFormatError(
            "corrupt sketch payload: trailing bytes after the sketch")
    return sketch
