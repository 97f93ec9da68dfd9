"""Workload ``pipeline-zipf``: the offline controller epoch loop.

One process feeds a :class:`~repro.controlplane.controller.Controller`
4096-packet chunks (the service's chunk size) and closes every scenario
epoch with ``seal_epoch``, with the default estimation apps and the
detection pipeline registered.  The traffic is the ``heavy_churn``
scenario at scale 2 (~96k packets and ~10k sources per epoch): a Zipf
population with rotating elephant cohorts, so keys repeat heavily and
the detection rules stay idle.  Scenario instances are generated one at
a time, outside the timed region, from seeds derived from the run seed.

Correctness, per epoch: the sealed sketch and the report cover exactly
the epoch's packets, and the heavy-hitter FP/FN rates stay inside the
acceptance matrix's calibrated ceilings for ``heavy_churn``.  The
cardinality and entropy errors are held to the matrix's ceilings too,
but per run: those ceilings are 1.8x the worst of the 10 epochs the
matrix was calibrated on, not tail bounds, and a stray epoch crosses one
(about 1 in 1000 at other seeds).  A run fails that check when more
than one epoch plus 5% of its epochs cross, which a regression that
shifts the error distribution does and sampling noise does not.
"""

from __future__ import annotations

import time
from typing import List, Tuple

from common import (Outcome, f1, median, percentile, relerr, service_sketch,
                    vm_hwm_mib)
from hostspeed import HostClock

SCENARIO = "heavy_churn"
SCALE = 2.0
CHUNK = 4096
ALPHA = 0.005            # heavy-hitter threshold (HeavyHitterApp default)
TAIL_Q = 90.0            # reported tail percentile of seal latency
MIN_SEALS = 100          # so that p90 has >= 10 samples beyond it
SETUP_REPEATS = 5
INGEST_ROOT = "controller.ingest"   # where a chunk enters the sketch
#: Metric -> power of the host speed it is scaled by (hostspeed.py).
HOST_SCALED = {"setup_s": 1, "ingest_pps": -1, "latency_p50_ms": 1,
               "latency_tail_ms": 1}
LABELS = {"latency_p50_ms": "seal_p50_ms", "latency_tail_ms": "seal_p90_ms",
          "ingest_pps": "ingest_pps (epoch loop, seals in)"}

# Per-epoch ceilings of tests/acceptance/test_scenarios.py for
# heavy_churn: 1.8x the worst error observed on its calibration panel,
# with a 0.15 floor for the detection rates.
MARGIN = 1.8
RATE_FLOOR = 0.15
MAX_OVER_SHARE = 0.05
CEILING = {"hh_fp": max(MARGIN * 0.0714, RATE_FLOOR),
           "hh_fn": max(MARGIN * 0.0, RATE_FLOOR),
           "f0": MARGIN * 0.5264, "entropy": MARGIN * 0.0332}


def build_controller():
    """The controller under test: service geometry, default apps."""
    from repro.controlplane.apps.cardinality import CardinalityApp
    from repro.controlplane.apps.change import ChangeDetectionApp
    from repro.controlplane.apps.ddos import DDoSApp
    from repro.controlplane.apps.entropy import EntropyApp
    from repro.controlplane.apps.heavy_hitters import HeavyHitterApp
    from repro.controlplane.controller import Controller
    from repro.detect import DetectionPipeline, default_rules

    controller = Controller(sketch_factory=service_sketch, workers=1)
    for app in (HeavyHitterApp(alpha=ALPHA), DDoSApp(threshold_k=5000),
                ChangeDetectionApp(phi=0.05), EntropyApp(),
                CardinalityApp(), DetectionPipeline(default_rules())):
        controller.register(app)
    return controller


def make_instance(seed: int, index: int) -> List[Tuple]:
    """One scenario instance as ``[(epoch trace, chunks, truth), ...]``."""
    from repro.dataplane.scenarios import make_scenario
    from repro.dataplane.trace import Trace

    scenario = make_scenario(SCENARIO, seed=seed * 1000 + index,
                             scale=SCALE)
    epochs = []
    for trace, truth in zip(scenario.epoch_traces(), scenario.truths):
        chunks = [Trace(trace.timestamps[lo:lo + CHUNK],
                        trace.src[lo:lo + CHUNK], trace.dst[lo:lo + CHUNK],
                        trace.sport[lo:lo + CHUNK],
                        trace.dport[lo:lo + CHUNK],
                        trace.proto[lo:lo + CHUNK],
                        trace.size[lo:lo + CHUNK])
                  for lo in range(0, len(trace), CHUNK)]
        epochs.append((trace, chunks, truth))
    return epochs


def check_epoch(out: Outcome, index: int, trace, truth, sealed,
                report, errors: dict) -> None:
    """Per-epoch correctness; one checked operation per epoch."""
    from repro.eval.metrics import detection_rates

    problems = []
    if not (sealed.packets == report.packets == len(trace)
            == truth.packets):
        problems.append(f"packets sealed={sealed.packets} "
                        f"report={report.packets} trace={len(trace)} "
                        f"truth={truth.packets}")
    results = report.results
    true_hh = truth.heavy_hitter_keys(ALPHA)
    got_hh = set(results["heavy_hitters"]["keys"])
    fp, fn = detection_rates(true_hh, got_hh)
    f0 = relerr(results["cardinality"]["distinct"], truth.distinct)
    entropy = relerr(results["entropy"]["entropy"], truth.entropy(base=2.0))
    errors["f0"].append(f0)
    errors["entropy"].append(entropy)
    errors["hh_f1"].append(f1(true_hh, got_hh))
    for name, value in (("hh_fp", fp), ("hh_fn", fn)):
        if not value <= CEILING[name]:
            problems.append(f"{name} {value:.4f} > ceiling "
                            f"{CEILING[name]:.4f}")
    for name, value in (("f0", f0), ("entropy", entropy)):
        if not value <= CEILING[name]:
            errors["over"].append(f"epoch {index}: {name} {value:.4f} > "
                                  f"ceiling {CEILING[name]:.4f}")
    if results["detect"].get("events"):
        errors["detections"] += len(results["detect"]["events"])
    out.check(not problems, f"epoch {index}: " + "; ".join(problems))


def run(seed: int, seconds: float, tracer, out: Outcome) -> dict:
    """Measure the epoch loop for ``seconds``; returns raw measurements."""
    setups = []
    setup_clock, clock = HostClock(), HostClock()
    with tracer.paused():  # set-up is timed here, not traced
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            controller = build_controller()
            instance = make_instance(seed, 0)
            setups.append(time.perf_counter() - t0)
            setup_clock.sample(5)

    errors = {"f0": [], "entropy": [], "hh_f1": [], "over": [],
              "detections": 0}
    seal_s: List[float] = []
    rates: List[float] = []
    packets = 0
    evictions = offers = 0
    index = 0
    inst = 0
    start = time.perf_counter()
    deadline = start + seconds
    hard_stop = start + 1.5 * seconds
    while True:
        for trace, chunks, truth in instance:
            t0 = time.perf_counter()
            with tracer.span("pipeline.epoch", epoch=index):
                for chunk in chunks:
                    controller.ingest(chunk)
                t1 = time.perf_counter()
                sealed, report = controller.seal_epoch(index, trace=trace)
            t2 = time.perf_counter()
            rates.append(len(trace) / (t2 - t0))
            seal_s.append(t2 - t1)
            packets += len(trace)
            for level in sealed.levels:
                evictions += level.topk.evictions
                offers += level.topk.offers
            check_epoch(out, index, trace, truth, sealed, report, errors)
            clock.sample()
            index += 1
        now = time.perf_counter()
        if now >= hard_stop or (now >= deadline
                                and len(seal_s) >= MIN_SEALS):
            break
        inst += 1
        with tracer.paused():
            instance = make_instance(seed, inst)
        controller.reset()  # new scenario instance: no cross-epoch state

    controller.close()
    over = errors["over"]
    out.check(len(over) <= 1 + MAX_OVER_SHARE * index,
              f"{len(over)} of {index} epochs over a calibrated ceiling: "
              + "; ".join(over[:5]))
    seal_ms = [1e3 * s for s in seal_s]
    return {
        "setup_s": median(setups),
        "setup_speed": setup_clock.speed(),
        "speed": clock.speed(),
        "ingest_pps": median(rates),
        "latency_p50_ms": percentile(seal_ms, 50),
        "latency_tail_ms": percentile(seal_ms, TAIL_Q),
        "peak_rss_mb": vm_hwm_mib(),
        "epochs": index,
        "packets": packets,
        "eviction_ratio": evictions / offers if offers else 0.0,
        "card_relerr": median(errors["f0"]),
        "entropy_relerr": median(errors["entropy"]),
        "hh_f1": median(errors["hh_f1"]),
        "detections": errors["detections"],
        "ceiling_crossings": len(over),
    }


def coverage(spans, raw: dict) -> float:
    """Share of the timed epoch loop spent inside the controller's
    layer calls (ingest and seal)."""
    timed = spans.total_ms("pipeline.epoch")
    covered = spans.covered_ms({"controller.ingest", "controller.seal_epoch"})
    return covered / timed if timed else 0.0
