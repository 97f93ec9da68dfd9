"""The program's layers as the traced run sees them.

:func:`install` wraps the public callables of each layer (module) of
``repro`` in timing spans; :func:`derive` turns the recorded spans into
the per-layer metrics named in ``BENCHMARK.json``.  A layer that does
not run on a workload reports 0 for its metrics.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from tracing import SpanSet, Tracer


def _level_sizes(self, keys, weights=None, distinct=None) -> dict:
    return {"n": len(keys),
            "d": -1 if distinct is None else len(distinct)}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are built from."""
    from repro.controlplane.apps.cardinality import CardinalityApp
    from repro.controlplane.apps.change import ChangeDetectionApp
    from repro.controlplane.apps.ddos import DDoSApp
    from repro.controlplane.apps.entropy import EntropyApp
    from repro.controlplane.apps.heavy_hitters import HeavyHitterApp
    from repro.controlplane.controller import Controller
    from repro.core import serialization
    from repro.core.level import SketchLevel
    from repro.core.query import QueryEngine, QuerySnapshot
    from repro.core.universal import UniversalSketch
    from repro.dataplane.keys import KeyFunction
    from repro.dataplane.switch import MonitoredSwitch
    from repro.dataplane.trace import Trace
    from repro.detect.pipeline import DetectionPipeline
    from repro.hashing.sampling import LevelSampler
    from repro.network.codec import DeltaDecoder, DeltaEncoder
    from repro.network.faults import SimulatedSwitch
    from repro.network.hierarchy import HierarchicalCoordinator
    from repro.service import service as service_module
    from repro.service.http import ServiceHttp
    from repro.service.ring import EpochRing
    from repro.sketches.countsketch import CountSketch
    from repro.sketches.topk import TopK

    wraps = [
        # dataplane.keys / hashing.sampling / core.universal / core.level
        (KeyFunction, "of_trace", "keys.of_trace", None),
        (LevelSampler, "deepest_level_array",
         "sampling.deepest_level_array", None),
        (UniversalSketch, "update_array", "universal.update_array", None),
        (SketchLevel, "update_array", "level.update_array", _level_sizes),
        # sketches.countsketch / sketches.topk
        (CountSketch, "update_array", "countsketch.update_array", None),
        (CountSketch, "query_many", "countsketch.query_many", None),
        (TopK, "offer_many", "topk.offer_many", None),
        # dataplane.switch / controlplane.controller
        (Controller, "ingest", "controller.ingest", None),
        (Controller, "seal_epoch", "controller.seal_epoch", None),
        (MonitoredSwitch, "poll", "switch.poll", None),
        # core.query
        (QuerySnapshot, "build", "query.snapshot_build", None),
        (QueryEngine, "evaluate_many", "query.evaluate_many", None),
        # detect / controlplane.apps
        (DetectionPipeline, "observe_trace", "detect.observe_trace", None),
        (DetectionPipeline, "on_sketch", "detect.on_sketch", None),
        # service
        (ServiceHttp, "handle", "service.http_handle", None),
        (service_module, "make_record", "service.make_record", None),
        (EpochRing, "publish", "service.ring_publish", None),
        (Trace, "concat", "trace.concat", None),
        # network.codec / core.serialization
        (DeltaEncoder, "encode", "codec.encode", None),
        (DeltaDecoder, "decode", "codec.decode", None),
        (serialization, "loads", "serialization.loads", None),
        (serialization, "dumps", "serialization.dumps", None),
        # core.universal merge / network.hierarchy / network.faults
        (UniversalSketch, "__init__", "universal.construct", None),
        (UniversalSketch, "merge", "universal.merge", None),
        (UniversalSketch, "copy", "universal.copy", None),
        (HierarchicalCoordinator, "run_epoch", "hierarchy.run_epoch", None),
        (SimulatedSwitch, "poll", "fleet.leaf_poll", None),
        (SimulatedSwitch, "feed", "fleet.leaf_feed", None),
    ]
    wraps += [(app, "on_sketch", "apps.on_sketch", None)
              for app in (HeavyHitterApp, DDoSApp, ChangeDetectionApp,
                          EntropyApp, CardinalityApp)]
    for owner, attr, name, attrs in wraps:
        tracer.wrap(owner, attr, name, attrs)


def _distinct_ratio(spans: SpanSet, ingest_root: str) -> float:
    """Distinct keys over keys per chunk, read off each chunk's level-0
    update (level 0 sees every key and the chunk's distinct set)."""
    universal = {r["id"] for r in spans.named("universal.update_array",
                                              ingest_root)}
    keys = distinct = 0
    seen = set()
    for rec in spans.named("level.update_array"):
        parent = rec["parent"]
        if parent in universal and parent not in seen:
            seen.add(parent)  # the first level call of a chunk is level 0
            attrs = rec["attrs"] or {}
            if attrs.get("d", -1) >= 0:
                keys += attrs["n"]
                distinct += attrs["d"]
    return distinct / keys if keys else 0.0


def derive(spans: SpanSet, ingest_root: str, epochs: int,
           extra: Optional[Dict[str, Tuple[float, str]]] = None) \
        -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from one traced run's spans.

    ``ingest_root`` names the span under which a chunk enters the sketch
    (``controller.ingest`` for the controller paths, ``fleet.leaf_feed``
    on the fleet); per-chunk metrics count only spans beneath it, so a
    sketch update made elsewhere (a merge rebuilding a heap) does not
    pollute them.  ``epochs`` normalises the per-epoch metrics.
    ``extra`` carries the metrics a workload measures itself (ratios read
    from the program's counters, quality against ground truth, ...).
    """
    chunks = spans.count("universal.update_array", ingest_root)

    def per_chunk_us(name: str, self_time: bool = False) -> float:
        if not chunks:
            return 0.0
        return spans.total_ms(name, ingest_root, self_time) * 1e3 / chunks

    def per_epoch_ms(name: str) -> float:
        return spans.total_ms(name) / epochs if epochs else 0.0

    out: Dict[str, Tuple[float, str]] = {
        "keys.extract_us_per_chunk": (per_chunk_us("keys.of_trace"), "us"),
        "sampling.depth_us_per_chunk":
            (per_chunk_us("sampling.deepest_level_array"), "us"),
        "universal.dispatch_self_us_per_chunk":
            (per_chunk_us("universal.update_array", self_time=True), "us"),
        "universal.levels_per_chunk":
            (spans.count("level.update_array", ingest_root) / chunks
             if chunks else 0.0, "count"),
        "universal.distinct_ratio":
            (_distinct_ratio(spans, ingest_root), "ratio"),
        "level.self_us_per_chunk":
            (per_chunk_us("level.update_array", self_time=True), "us"),
        "countsketch.update_us_per_chunk":
            (per_chunk_us("countsketch.update_array"), "us"),
        "countsketch.query_many_us_per_chunk":
            (per_chunk_us("countsketch.query_many"), "us"),
        "topk.offer_many_us_per_chunk":
            (per_chunk_us("topk.offer_many"), "us"),
        "controller.ingest_self_us_per_chunk":
            (spans.total_ms("controller.ingest", self_time=True) * 1e3
             / chunks if chunks else 0.0, "us"),
        "switch.poll_ms": (spans.mean_ms("switch.poll"), "ms"),
        "controller.seal_ms": (spans.mean_ms("controller.seal_epoch"), "ms"),
        "query.snapshot_build_ms":
            (spans.mean_ms("query.snapshot_build"), "ms"),
        "query.evaluate_many_ms":
            (spans.mean_ms("query.evaluate_many"), "ms"),
        "detect.observe_trace_ms":
            (spans.mean_ms("detect.observe_trace"), "ms"),
        "detect.on_sketch_ms": (spans.mean_ms("detect.on_sketch"), "ms"),
        "apps.on_sketch_ms": (per_epoch_ms("apps.on_sketch"), "ms"),
        "service.publish_ms":
            (per_epoch_ms("service.make_record")
             + per_epoch_ms("service.ring_publish"), "ms"),
        "service.epoch_concat_ms": (spans.mean_ms("trace.concat"), "ms"),
        "codec.encode_ms": (spans.mean_ms("codec.encode"), "ms"),
        "codec.decode_ms": (spans.mean_ms("codec.decode"), "ms"),
        "serialization.loads_ms":
            (spans.mean_ms("serialization.loads"), "ms"),
        "universal.merge_ms": (spans.mean_ms("universal.merge"), "ms"),
        "universal.copy_ms": (spans.mean_ms("universal.copy"), "ms"),
        "hierarchy.self_ms":
            (spans.mean_ms("hierarchy.run_epoch", self_time=True), "ms"),
    }
    out.update(extra or {})
    return out

