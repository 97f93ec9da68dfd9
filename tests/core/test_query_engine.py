"""Tests for the vectorised query engine: snapshot parity with the
scalar reference, the version-guarded cache, and batched evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.core.gfunctions import (
    ABS,
    CARDINALITY,
    ENTROPY_SUM,
    IDENTITY,
    SQUARE,
    GFunction,
    make_moment,
)
from repro.core.gsum import (
    estimate_cardinality,
    estimate_entropy,
    estimate_f2,
    estimate_gsum,
    estimate_gsum_scalar,
    estimate_l1,
    g_core,
)
from repro.core.query import (
    DEFAULT_STATISTICS,
    QueryEngine,
    Statistic,
)
from repro.core.universal import UniversalSketch
from repro.obs import MetricsRegistry, use_registry

STOCK_GS = (IDENTITY, SQUARE, ABS, CARDINALITY, ENTROPY_SUM,
            make_moment(0.5), make_moment(1.5))


def build_sketch(keys, seed=1, levels=8, width=1024, heap=64, rows=5):
    u = UniversalSketch(levels=levels, rows=rows, width=width,
                        heap_size=heap, seed=seed)
    if len(keys):
        u.update_array(np.asarray(keys, dtype=np.uint64))
    return u


@pytest.fixture(scope="module")
def zipf_sketch(zipf_keys_factory):
    return build_sketch(zipf_keys_factory(packets=20_000, flows=2_000,
                                          skew=1.2, seed=7))


def assert_close(a, b):
    assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9), (a, b)


# --------------------------------------------------------------------- #
# snapshot correctness vs the scalar reference
# --------------------------------------------------------------------- #


class TestSnapshotParity:
    @pytest.mark.parametrize("g", STOCK_GS, ids=lambda g: g.name)
    def test_gsum_matches_scalar_reference(self, zipf_sketch, g):
        assert_close(estimate_gsum(zipf_sketch, g),
                     estimate_gsum_scalar(zipf_sketch, g))

    def test_user_g_without_vec_matches_scalar(self, zipf_sketch):
        g = GFunction("sqrt_test",
                      lambda x: math.sqrt(x) if x > 0 else 0.0)
        assert_close(estimate_gsum(zipf_sketch, g),
                     estimate_gsum_scalar(zipf_sketch, g))

    def test_gcore_byte_identical_to_heap_walk(self, zipf_sketch):
        threshold = 0.005 * zipf_sketch.total_weight
        walked = [(int(k), float(w))
                  for k, w in zipf_sketch.levels[0].heavy_hitters()
                  if abs(w) >= threshold]
        assert g_core(zipf_sketch, 0.005) == walked

    def test_min_weight_filter_matches(self, zipf_sketch):
        for mw in (0.0, 0.5, 10.0):
            assert_close(
                estimate_gsum(zipf_sketch, IDENTITY, min_weight=mw),
                estimate_gsum_scalar(zipf_sketch, IDENTITY, min_weight=mw))

    def test_empty_sketch(self):
        u = build_sketch([], levels=4, width=64, heap=8)
        snapshot = u.query_snapshot()
        assert snapshot.heap_entries() == 0
        assert snapshot.gsum(CARDINALITY) == 0.0
        assert snapshot.gcore(0.01) == []

    def test_snapshot_records_sketch_state(self, zipf_sketch):
        snapshot = zipf_sketch.query_snapshot()
        assert snapshot.total_weight == zipf_sketch.total_weight
        assert snapshot.version == zipf_sketch.version
        assert snapshot.deepest == len(zipf_sketch.levels) - 1
        assert snapshot.heap_entries() == sum(
            len(level.topk) for level in zipf_sketch.levels)

    def test_difference_sketch_parity(self, zipf_keys_factory):
        a = build_sketch(zipf_keys_factory(packets=8_000, seed=3), seed=2)
        b = build_sketch(zipf_keys_factory(packets=6_000, seed=4), seed=2)
        diff = a.subtract(b)
        for g in (ABS, CARDINALITY, SQUARE):
            assert_close(estimate_gsum(diff, g),
                         estimate_gsum_scalar(diff, g))


KEY_LISTS = st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1),
                     min_size=0, max_size=250)


class TestPropertyParity:
    """Vectorised == scalar at 1e-12 across random sketches and g's."""

    @given(keys=KEY_LISTS, seed=st.integers(min_value=0, max_value=7),
           g_index=st.integers(min_value=0, max_value=len(STOCK_GS) - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_sketches(self, keys, seed, g_index):
        u = build_sketch(keys, seed=seed, levels=5, width=128, heap=16,
                         rows=3)
        g = STOCK_GS[g_index]
        assert_close(estimate_gsum(u, g), estimate_gsum_scalar(u, g))
        # Past 63 levels the parity words cannot hold every sampling
        # bit, so the snapshot gathers them one level at a time.
        deep = build_sketch(keys, seed=seed, levels=64, width=32, heap=4,
                            rows=2)
        assert deep.sampler.parity_words(np.zeros(1, np.uint64)) is None
        assert_close(estimate_gsum(deep, g), estimate_gsum_scalar(deep, g))

    @given(keys_a=KEY_LISTS, keys_b=KEY_LISTS)
    @settings(max_examples=20, deadline=None)
    def test_random_difference_sketches(self, keys_a, keys_b):
        a = build_sketch(keys_a, seed=3, levels=5, width=128, heap=16,
                         rows=3)
        b = build_sketch(keys_b, seed=3, levels=5, width=128, heap=16,
                         rows=3)
        diff = a.subtract(b)
        assert_close(estimate_gsum(diff, ABS),
                     estimate_gsum_scalar(diff, ABS))

    @given(keys=KEY_LISTS, p=st.floats(min_value=0.0, max_value=2.0,
                                       allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_random_user_moments(self, keys, p):
        u = build_sketch(keys, seed=5, levels=4, width=128, heap=16,
                         rows=3)
        # Fresh GFunction without vec: exercises the np.vectorize path.
        g = GFunction(f"user_moment_{p}",
                      lambda x, _p=p: float(x) ** _p if x > 0 else 0.0)
        assert_close(estimate_gsum(u, g), estimate_gsum_scalar(u, g))


# --------------------------------------------------------------------- #
# the version-guarded snapshot cache
# --------------------------------------------------------------------- #


class TestSnapshotCache:
    def test_repeat_queries_share_one_build(self, zipf_keys_factory):
        u = build_sketch(zipf_keys_factory(packets=2_000, seed=11))
        reg = MetricsRegistry()
        with use_registry(reg):
            first = u.query_snapshot()
            assert u.query_snapshot() is first
            estimate_cardinality(u)
            estimate_entropy(u)
            g_core(u, 0.01)
        assert reg.get("univmon_query_snapshot_builds_total").value == 1
        assert reg.get("univmon_query_snapshot_cache_hits_total").value >= 4

    def test_update_invalidates(self, zipf_keys_factory):
        u = build_sketch(zipf_keys_factory(packets=2_000, seed=12))
        reg = MetricsRegistry()
        with use_registry(reg):
            stale = u.query_snapshot()
            before = estimate_cardinality(u)
            u.update(12345)
            fresh = u.query_snapshot()
            assert fresh is not stale
            assert fresh.version == u.version > stale.version
            assert estimate_l1(u) >= 0.0
        assert reg.get("univmon_query_snapshot_builds_total").value == 2
        assert reg.get(
            "univmon_query_snapshot_invalidations_total").value == 1
        assert before >= 0.0

    def test_scalar_update_then_query_sees_new_state(self):
        u = build_sketch([], levels=4, width=256, heap=8)
        assert estimate_cardinality(u) == 0.0
        for _ in range(10):
            u.update(7)
        assert estimate_cardinality(u) == pytest.approx(1, abs=0.1)
        assert estimate_l1(u) == pytest.approx(10, abs=0.5)

    def test_explicit_invalidation_forces_rebuild(self, zipf_keys_factory):
        u = build_sketch(zipf_keys_factory(packets=1_000, seed=13))
        first = u.query_snapshot()
        u.invalidate_snapshot()
        second = u.query_snapshot()
        assert second is not first
        assert np.array_equal(first.weights[0], second.weights[0])

    def test_copy_does_not_share_cache(self, zipf_keys_factory):
        u = build_sketch(zipf_keys_factory(packets=1_000, seed=14))
        original = u.query_snapshot()
        clone = u.copy()
        clone.update(999)
        assert u.query_snapshot() is original
        assert_close(original.gsum(IDENTITY),
                     estimate_gsum_scalar(u, IDENTITY))


# --------------------------------------------------------------------- #
# batched evaluation
# --------------------------------------------------------------------- #


class TestEvaluateMany:
    def test_matches_individual_estimators_exactly(self, zipf_sketch):
        results = QueryEngine(zipf_sketch).evaluate_many([
            Statistic.heavy_hitters(0.005),
            Statistic.cardinality(),
            Statistic.l1(),
            Statistic.entropy(),
            Statistic.f2(),
        ])
        assert results["heavy_hitters"] == g_core(zipf_sketch, 0.005)
        assert results["cardinality"] == estimate_cardinality(zipf_sketch)
        assert results["l1"] == estimate_l1(zipf_sketch)
        assert results["entropy"] == estimate_entropy(zipf_sketch)
        assert results["f2"] == estimate_f2(zipf_sketch)

    def test_default_batch_is_the_paper_task_set(self, zipf_sketch):
        results = QueryEngine(zipf_sketch).evaluate_many()
        assert set(results) == {s.name for s in DEFAULT_STATISTICS} == \
            {"heavy_hitters", "cardinality", "l1", "entropy", "f2"}

    def test_batch_shares_one_snapshot_build(self, zipf_keys_factory):
        u = build_sketch(zipf_keys_factory(packets=2_000, seed=15))
        reg = MetricsRegistry()
        with use_registry(reg):
            QueryEngine(u).evaluate_many()
        assert reg.get("univmon_query_snapshot_builds_total").value == 1
        assert reg.get("univmon_query_statistics_total").value == 5
        assert reg.get("univmon_query_batch_size").count == 1
        assert reg.get("univmon_query_batch_seconds").count == 1

    def test_entropy_bases_and_moments(self, zipf_sketch):
        results = QueryEngine(zipf_sketch).evaluate_many([
            Statistic.entropy(base=math.e),
            Statistic.moment(1.5),
            Statistic.l2(),
        ])
        assert results["entropy"] == \
            estimate_entropy(zipf_sketch, base=math.e)
        assert_close(results["moment_1.5"],
                     max(0.0, estimate_gsum_scalar(zipf_sketch,
                                                   make_moment(1.5))))
        assert results["l2"] == \
            zipf_sketch.levels[0].sketch.l2_estimate()

    def test_custom_gsum_statistic(self, zipf_sketch):
        stat = Statistic.gsum(SQUARE)
        value = QueryEngine(zipf_sketch).evaluate(stat)
        assert_close(value, estimate_gsum_scalar(zipf_sketch, SQUARE))

    def test_unsketchable_g_still_rejected(self, zipf_sketch):
        from repro.errors import NotSketchableError
        cube = GFunction("cube_query_test", lambda x: x ** 3)
        with pytest.raises(NotSketchableError):
            QueryEngine(zipf_sketch).evaluate(Statistic.gsum(cube))

    def test_unknown_kind_rejected(self, zipf_sketch):
        bogus = Statistic(name="x", kind="nope")
        with pytest.raises(ConfigurationError):
            QueryEngine(zipf_sketch).evaluate(bogus)


class TestStatisticParse:
    def test_simple_names_and_aliases(self):
        assert Statistic.parse("cardinality").name == "cardinality"
        assert Statistic.parse("f0").g is CARDINALITY
        assert Statistic.parse("ddos").g is CARDINALITY
        assert Statistic.parse("l1").g is ABS
        assert Statistic.parse("l2").kind == "l2"
        assert Statistic.parse("f2").kind == "f2"

    def test_heavy_hitters_fraction(self):
        assert Statistic.parse("hh").fraction == 0.005
        assert Statistic.parse("hh:0.02").fraction == 0.02
        assert Statistic.parse("heavy_hitters:0.1").fraction == 0.1

    def test_entropy_bases(self):
        assert Statistic.parse("entropy").base == 2.0
        assert Statistic.parse("entropy:10").base == 10.0
        assert Statistic.parse("entropy:e").base == math.e
        assert Statistic.parse("entropy:nats").base == math.e

    def test_moment_requires_order(self):
        assert Statistic.parse("moment:1.5").name == "moment_1.5"
        with pytest.raises(ConfigurationError):
            Statistic.parse("moment")

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ConfigurationError):
            Statistic.parse("bogus")

    def test_spurious_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            Statistic.parse("l1:3")

    @pytest.mark.parametrize("spec", ["hh:abc", "entropy:x", "moment:x",
                                      "hh:0", "hh:1", "hh:-0.1", "hh:nan",
                                      "entropy:1", "entropy:0",
                                      "entropy:-2", "entropy:inf"])
    def test_bad_numbers_are_configuration_errors(self, spec):
        with pytest.raises(ConfigurationError):
            Statistic.parse(spec)
