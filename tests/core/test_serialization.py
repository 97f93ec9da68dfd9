"""Round-trip tests for the sketch wire format."""

import struct

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceFormatError
from repro.core import serialization
from repro.core.gsum import estimate_cardinality, estimate_entropy
from repro.core.universal import UniversalSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.kary import KArySketch


def filled_universal(seed=5):
    u = UniversalSketch(levels=6, rows=3, width=256, heap_size=16, seed=seed)
    rng = np.random.default_rng(1)
    u.update_array(rng.integers(0, 2000, size=5000).astype(np.uint64))
    return u


class TestRoundTrips:
    def test_count_sketch(self):
        cs = CountSketch(rows=3, width=64, seed=2)
        cs.update(42, 10)
        back = serialization.loads(serialization.dumps(cs))
        assert isinstance(back, CountSketch)
        assert np.array_equal(back.table, cs.table)
        assert back.query(42) == cs.query(42)  # hashes rebuilt from seed

    def test_count_min(self):
        cm = CountMinSketch(rows=3, width=64, seed=3)
        cm.update(7, 5)
        back = serialization.loads(serialization.dumps(cm))
        assert isinstance(back, CountMinSketch)
        assert back.query(7) == 5

    def test_kary(self):
        ks = KArySketch(rows=3, width=64, seed=4)
        ks.update(9, 100)
        back = serialization.loads(serialization.dumps(ks))
        assert isinstance(back, KArySketch)
        assert abs(back.query(9) - 100) < 10

    def test_universal_full_state(self):
        u = filled_universal()
        back = serialization.loads(serialization.dumps(u))
        assert isinstance(back, UniversalSketch)
        assert back.packets == u.packets
        assert back.total_weight == u.total_weight
        for la, lb in zip(u.levels, back.levels):
            assert np.array_equal(la.sketch.table, lb.sketch.table)
            assert dict(la.topk.items()) == dict(lb.topk.items())
            assert (la.packets, la.weight) == (lb.packets, lb.weight)

    def test_universal_estimates_survive(self):
        u = filled_universal()
        back = serialization.loads(serialization.dumps(u))
        assert estimate_cardinality(back) == \
            pytest.approx(estimate_cardinality(u))
        assert estimate_entropy(back) == pytest.approx(estimate_entropy(u))

    def test_deserialized_is_mergeable_with_original(self):
        """The point of reconstructing hashes from the seed."""
        u = filled_universal(seed=6)
        back = serialization.loads(serialization.dumps(u))
        merged = u.merge(back)
        assert merged.total_weight == 2 * u.total_weight


class TestSparseAndEmptyStates:
    """Boundary states the delta codec leans on: empty sketches (a
    restarted switch's first poll), heap-only occupancy, and geometry
    at the serializer's documented limits."""

    def assert_round_trips(self, u):
        back = serialization.loads(serialization.dumps(u))
        assert back.packets == u.packets
        assert len(back.levels) == len(u.levels)
        for la, lb in zip(u.levels, back.levels):
            assert np.array_equal(la.sketch.table, lb.sketch.table)
            assert dict(la.topk.items()) == dict(lb.topk.items())
            assert (la.packets, la.weight) == (lb.packets, lb.weight)
        return back

    def test_empty_universal_round_trip(self):
        u = UniversalSketch(levels=4, rows=2, width=64, heap_size=8, seed=1)
        back = self.assert_round_trips(u)
        assert back.packets == 0
        assert all(not lv.sketch.table.any() for lv in back.levels)

    def test_zero_levels_round_trip(self):
        u = UniversalSketch(levels=0, rows=2, width=32, heap_size=4, seed=1)
        u.update(11)
        self.assert_round_trips(u)

    def test_single_key_sparse_round_trip(self):
        # One update leaves all-but-rows counters zero per level and a
        # single heap entry; the sparse state must survive exactly.
        u = UniversalSketch(levels=4, rows=2, width=64, heap_size=8, seed=1)
        u.update(42, 3)
        back = self.assert_round_trips(u)
        assert back.levels[0].topk.items() == [(42, 3.0)]

    def test_heap_only_levels_round_trip(self):
        # Deep levels often have heap entries but near-empty tables.
        u = UniversalSketch(levels=8, rows=1, width=8, heap_size=4, seed=2)
        for key in range(4):
            u.update(key)
        self.assert_round_trips(u)

    def test_max_levels_geometry_round_trip(self):
        u = UniversalSketch(levels=serialization.MAX_LEVELS, rows=1,
                            width=8, heap_size=2, seed=3)
        u.update(5)
        self.assert_round_trips(u)

    def test_empty_tableau_sketches_round_trip(self):
        for cls in (CountSketch, CountMinSketch, KArySketch):
            sk = cls(rows=2, width=8, seed=9)
            back = serialization.loads(serialization.dumps(sk))
            assert isinstance(back, cls)
            assert np.array_equal(back.table, sk.table)
            assert not back.table.any()


class TestErrors:
    def test_unseeded_rejected(self):
        with pytest.raises(ConfigurationError):
            serialization.dumps(CountSketch(rows=2, width=8))

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            serialization.dumps(object())

    def test_conservative_cm_rejected(self):
        cm = CountMinSketch(rows=2, width=8, seed=1, conservative=True)
        with pytest.raises(ConfigurationError):
            serialization.dumps(cm)

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceFormatError):
            serialization.loads(b"NOPE" + b"\x00" * 40)

    def test_truncated_payload_rejected(self):
        data = serialization.dumps(CountSketch(rows=2, width=8, seed=1))
        with pytest.raises(TraceFormatError):
            serialization.loads(data[:len(data) // 2])

    def test_unknown_tag_rejected(self):
        data = bytearray(serialization.dumps(
            CountSketch(rows=2, width=8, seed=1)))
        data[4] = 99  # corrupt the type tag
        with pytest.raises(TraceFormatError):
            serialization.loads(bytes(data))


class TestHardening:
    """Hostile payloads must raise TraceFormatError — never a raw
    struct/numpy traceback or a giant allocation."""

    # magic(4) | tag(1) | levels(4) rows(4) width(4) heap(4) seed(8)
    # packets(8) | per level: packets(8) weight(8) nbytes(4) table ...
    _HDR = struct.Struct("<BIIIIqq")

    def _universal_header(self, levels=1, rows=1, width=8, heap=4,
                          seed=1, packets=0):
        return b"UMS1" + self._HDR.pack(4, levels, rows, width, heap,
                                        seed, packets)

    def test_truncation_at_every_offset_rejected(self):
        data = serialization.dumps(filled_universal())
        for cut in range(0, len(data), max(1, len(data) // 64)):
            with pytest.raises(TraceFormatError):
                serialization.loads(data[:cut])

    def test_hostile_width_rejected_before_allocation(self):
        # A 2**31 width would mean a multi-GB table allocation.
        with pytest.raises(TraceFormatError, match="width"):
            serialization.loads(self._universal_header(width=2 ** 31))

    def test_hostile_level_count_rejected(self):
        with pytest.raises(TraceFormatError, match="levels"):
            serialization.loads(self._universal_header(levels=10_000))

    def test_hostile_heap_capacity_rejected(self):
        with pytest.raises(TraceFormatError, match="heap"):
            serialization.loads(self._universal_header(heap=2 ** 30))

    def test_negative_packets_rejected(self):
        with pytest.raises(TraceFormatError):
            serialization.loads(self._universal_header(packets=-1))

    def test_table_size_mismatch_rejected(self):
        data = bytearray(serialization.dumps(
            CountSketch(rows=2, width=8, seed=1)))
        # tableau layout: magic(4) tag(1) rows(4) width(4) seed(8)
        # then table nbytes(4); lie about the table length.
        struct.pack_into("<I", data, 21, 8)
        with pytest.raises(TraceFormatError, match="table"):
            serialization.loads(bytes(data))

    def test_heap_count_above_capacity_rejected(self):
        u = UniversalSketch(levels=1, rows=1, width=8, heap_size=4, seed=1)
        data = bytearray(serialization.dumps(u))
        # First level's topk header follows the 37-byte universal header
        # plus packets/weight (16) and the length-prefixed table.
        table_off = 37 + 16
        (nbytes,) = struct.unpack_from("<I", data, table_off)
        count_off = table_off + 4 + nbytes + 4  # skip capacity field
        struct.pack_into("<I", data, count_off, u.heap_size + 1)
        with pytest.raises(TraceFormatError, match="capacity"):
            serialization.loads(bytes(data))

    def test_heap_capacity_other_than_heap_size_rejected(self):
        u = filled_universal()
        data = bytearray(serialization.dumps(u))
        table_off = 37 + 16
        (nbytes,) = struct.unpack_from("<I", data, table_off)
        capacity_off = table_off + 4 + nbytes
        struct.pack_into("<I", data, capacity_off, 1 << 20)
        with pytest.raises(TraceFormatError, match="capacity"):
            serialization.loads(bytes(data))

    @pytest.mark.parametrize("sketch", [
        filled_universal(), CountSketch(rows=2, width=8, seed=1),
        CountMinSketch(rows=2, width=8, seed=1),
        KArySketch(rows=2, width=8, seed=1)], ids=lambda s: type(s).__name__)
    def test_trailing_bytes_rejected(self, sketch):
        data = serialization.dumps(sketch)
        serialization.loads(data)
        with pytest.raises(TraceFormatError, match="trailing"):
            serialization.loads(data + b"xyz")

    @pytest.mark.parametrize("estimate", [float("nan"), float("inf"),
                                          float("-inf")])
    def test_non_finite_heap_estimate_rejected(self, estimate):
        u = filled_universal()
        data = bytearray(serialization.dumps(u))
        # Level 0's first heap item: key(8) then estimate(8), right after
        # the heap's capacity and count fields.
        table_off = 37 + 16
        (nbytes,) = struct.unpack_from("<I", data, table_off)
        count_off = table_off + 4 + nbytes + 4
        assert struct.unpack_from("<I", data, count_off)[0] > 0
        struct.pack_into("<d", data, count_off + 4 + 8, estimate)
        with pytest.raises(TraceFormatError, match="non-finite"):
            serialization.loads(bytes(data))


class TestCompactness:
    def test_size_dominated_by_counters(self):
        """The wire size should be ~ counters * 8B, not hash tables."""
        u = UniversalSketch(levels=4, rows=3, width=256, heap_size=16,
                            seed=7)
        payload = serialization.dumps(u)
        counter_bytes = (4 + 1) * 3 * 256 * 8
        assert len(payload) < counter_bytes * 1.3
