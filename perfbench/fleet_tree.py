"""Workload ``fleet-tree``: network-wide collection over an aggregation tree.

An in-process :class:`~repro.network.hierarchy.HierarchicalCoordinator`
collects 16 :class:`~repro.network.faults.SimulatedSwitch` leaves over
lossless :class:`~repro.network.faults.SimLink`\\ s at fanout 4 (16
leaves -> 4 racks -> root), with the service geometry and delta+zlib
transfer.  Each epoch every leaf is fed 3000 Zipf(1.1) keys outside the
timed region; the timed operation is ``run_epoch``, where codec encode,
decode and sketch merges do nearly all the work.

Correctness, per epoch: packet conservation on every leaf
(``fed == polled + lost + pending``), full coverage with the epoch
published, the root covering every fed packet, and the root's merged
counter tables bit-identical to one sketch fed every leaf's keys (merge
is exact by linearity).
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro.controlplane.apps.base import MonitoringApp

from common import (Outcome, f1, median, percentile, relerr, service_sketch,
                    vm_hwm_mib)
from hostspeed import HostClock

LEAVES = 16
FANOUT = 4
KEYS_PER_LEAF = 3000
FLOWS_PER_RACK = 2000
ALPHA = 0.005
TAIL_Q = 80.0            # reported tail percentile of collect latency
MIN_EPOCHS = 50          # so that p80 has >= 10 samples beyond it
SETUP_REPEATS = 5
INGEST_ROOT = "fleet.leaf_feed"     # where a chunk enters the sketch
#: Metric -> power of the host speed it is scaled by (hostspeed.py).
HOST_SCALED = {"setup_s": 1, "ingest_pps": -1, "latency_p50_ms": 1,
               "latency_tail_ms": 1}
LABELS = {"latency_p50_ms": "collect_p50_ms",
          "latency_tail_ms": "collect_p80_ms",
          "ingest_pps": "ingest_pps (leaf feed)"}


class RootCapture(MonitoringApp):
    """A root app that keeps the merged epoch sketch for checking."""

    name = "bench_capture"

    def __init__(self) -> None:
        self.sketch = None

    def on_sketch(self, sketch, epoch_index: int) -> dict:
        self.sketch = sketch
        return {}

    def reset(self) -> None:
        self.sketch = None


def build_fleet():
    """``(switches, coordinator, capture)`` for one fleet."""
    from repro.network.faults import SimLink, SimulatedSwitch
    from repro.network.hierarchy import HierarchicalCoordinator

    switches = {f"leaf{i:02d}": SimulatedSwitch(f"leaf{i:02d}",
                                                service_sketch)
                for i in range(LEAVES)}
    links = {name: SimLink(sw) for name, sw in switches.items()}
    coordinator = HierarchicalCoordinator(links, service_sketch,
                                          fanout=FANOUT, transfer="delta")
    capture = RootCapture()
    coordinator.register(capture)
    return switches, coordinator, capture


def epoch_keys(rng) -> List[np.ndarray]:
    """One epoch of keys per leaf.  The leaves of a rack share a flow
    population, which overlaps the next rack's by half."""
    from repro.network.faults import zipf_keys
    return [zipf_keys(rng, KEYS_PER_LEAF, flows=FLOWS_PER_RACK, skew=1.1,
                      key_base=(leaf // FANOUT) * FLOWS_PER_RACK // 2)
            for leaf in range(LEAVES)]


def check_epoch(out: Outcome, index: int, switches, report, merged,
                keys: List[np.ndarray], fed: int) -> None:
    problems = []
    for name, sw in switches.items():
        if sw.fed_total != sw.polled_total + sw.lost_total + sw.pending:
            problems.append(f"{name} conservation fed={sw.fed_total} "
                            f"polled={sw.polled_total} lost={sw.lost_total} "
                            f"pending={sw.pending}")
    coverage = report.results["coverage"]
    if coverage["status"] != "published" or coverage["coverage"] != 1.0:
        problems.append(f"status {coverage['status']} coverage "
                        f"{coverage['coverage']}")
    if merged is None or merged.packets != fed \
            or coverage["packets_covered"] != fed:
        problems.append(f"root covers {coverage['packets_covered']} of "
                        f"{fed} fed packets")
    else:
        reference = service_sketch()
        reference.update_array(np.concatenate(keys))
        for j, (got, want) in enumerate(zip(merged.levels,
                                            reference.levels)):
            if not np.array_equal(got.sketch.table, want.sketch.table) \
                    or got.weight != want.weight:
                problems.append(f"root level {j} counters differ from "
                                f"the single-sketch reference")
                break
    out.check(not problems, f"epoch {index}: " + "; ".join(problems))


def quality(merged, keys: List[np.ndarray]) -> tuple:
    """(cardinality rel. error, entropy rel. error, HH F1) of the root."""
    from repro.core.gsum import estimate_cardinality, estimate_entropy, g_core
    from repro.dataplane.scenarios import EpochTruth

    allkeys = np.concatenate(keys)
    truth = EpochTruth(allkeys, np.ones(len(allkeys), dtype=np.int64))
    return (relerr(estimate_cardinality(merged), truth.distinct),
            relerr(estimate_entropy(merged), truth.entropy()),
            f1(truth.heavy_hitter_keys(ALPHA),
               {k for k, _ in g_core(merged, ALPHA)}))


def run(seed: int, seconds: float, tracer, out: Outcome) -> dict:
    setups = []
    setup_clock, clock = HostClock(), HostClock()
    with tracer.paused():  # set-up is timed here, not traced
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            switches, coordinator, capture = build_fleet()
            rng = np.random.default_rng([seed, 0xF1EE7])
            keys = epoch_keys(rng)  # the first epoch's input
            setups.append(time.perf_counter() - t0)
            setup_clock.sample(5)

    collect_s: List[float] = []
    feed_rates: List[float] = []
    wire = frames = delta_frames = 0
    evictions = offers = 0
    errors = {"f0": [], "entropy": [], "hh_f1": []}
    start = time.perf_counter()
    deadline = start + seconds
    hard_stop = start + 1.5 * seconds
    index = 0
    while True:
        if index:
            keys = epoch_keys(rng)
        t0 = time.perf_counter()
        for sw, leaf_keys in zip(switches.values(), keys):
            sw.feed(leaf_keys)
        fed = sum(len(k) for k in keys)
        feed_rates.append(fed / (time.perf_counter() - t0))
        for sw in switches.values():
            for level in sw.sketch.levels:
                evictions += level.topk.evictions
                offers += level.topk.offers

        capture.reset()
        t0 = time.perf_counter()
        with tracer.span("fleet.epoch", epoch=index):
            report = coordinator.run_epoch()
        collect_s.append(time.perf_counter() - t0)

        coverage = report.results["coverage"]
        wire += coverage["bytes_wire"]
        frames += coverage["frames_full"] + coverage["frames_delta"]
        delta_frames += coverage["frames_delta"]
        with tracer.paused():
            check_epoch(out, index, switches, report, capture.sketch, keys,
                        fed)
            if capture.sketch is not None:
                for name, value in zip(("f0", "entropy", "hh_f1"),
                                       quality(capture.sketch, keys)):
                    errors[name].append(value)
            clock.sample()
        index += 1
        now = time.perf_counter()
        if now >= hard_stop or (now >= deadline
                                and len(collect_s) >= MIN_EPOCHS):
            break

    collect_ms = [1e3 * s for s in collect_s]
    return {
        "setup_s": median(setups),
        "setup_speed": setup_clock.speed(),
        "speed": clock.speed(),
        "ingest_pps": median(feed_rates),
        "latency_p50_ms": percentile(collect_ms, 50),
        "latency_tail_ms": percentile(collect_ms, TAIL_Q),
        "peak_rss_mb": vm_hwm_mib(),
        "epochs": index,
        "wire_bytes_per_epoch": wire / index,
        "bytes_per_frame": wire / frames if frames else 0.0,
        "delta_frame_share": delta_frames / frames if frames else 0.0,
        "eviction_ratio": evictions / offers if offers else 0.0,
        "card_relerr": median(errors["f0"]) if errors["f0"] else 0.0,
        "entropy_relerr": median(errors["entropy"])
        if errors["entropy"] else 0.0,
        "hh_f1": median(errors["hh_f1"]) if errors["hh_f1"] else 0.0,
    }


def coverage(spans, raw: dict) -> float:
    """Share of the timed collection spent inside ``run_epoch``."""
    timed = spans.total_ms("fleet.epoch")
    covered = spans.covered_ms({"hierarchy.run_epoch"})
    return covered / timed if timed else 0.0
