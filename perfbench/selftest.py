"""Self-tests of the benchmark's correctness checks and per-layer table.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Each correctness check is run once on a clean input (it must pass) and
once on a deliberately corrupted one (it must count a failed operation):

- ``fleet-tree``: one flipped counter in one leaf's frame;
- ``pipeline-zipf``: one dropped chunk;
- ``serve-flood``: one truncated HTTP response from a live service.

Then a short traced run of every workload must report every per-layer
metric of ``BENCHMARK.json``, and a non-zero value for each metric whose
layer runs on that workload.  Exits 1 if any test fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from common import WORK_DIR, Outcome  # noqa: E402

#: Per-layer metrics that must be non-zero on each workload, because the
#: layer they measure runs there.
_INGEST = {"sampling.depth_us_per_chunk",
           "universal.dispatch_self_us_per_chunk",
           "universal.levels_per_chunk", "universal.distinct_ratio",
           "level.self_us_per_chunk", "countsketch.update_us_per_chunk",
           "countsketch.query_many_us_per_chunk",
           "topk.offer_many_us_per_chunk", "query.snapshot_build_ms",
           "quality.card_relerr", "quality.entropy_relerr",
           "quality.hh_f1", "trace.coverage",
           "trace.ingest_overhead_ratio", "trace.latency_overhead_ratio"}
_CONTROLLER = {"keys.extract_us_per_chunk",
               "controller.ingest_self_us_per_chunk", "switch.poll_ms",
               "controller.seal_ms", "query.evaluate_many_ms",
               "detect.observe_trace_ms", "detect.on_sketch_ms",
               "topk.eviction_ratio"}
RUNS_ON = {
    "pipeline-zipf": _INGEST | _CONTROLLER | {"apps.on_sketch_ms",
                                              "universal.copy_ms"},
    "serve-flood": _INGEST | _CONTROLLER | {
        "query.memo_hit_ratio", "service.http_handle_ms",
        "service.queue_wait_ms", "service.publish_ms",
        "service.epoch_concat_ms"},
    "fleet-tree": _INGEST | {
        "codec.encode_ms", "codec.decode_ms", "serialization.loads_ms",
        "codec.bytes_per_frame", "universal.merge_ms", "universal.copy_ms",
        "hierarchy.self_ms", "hierarchy.wire_bytes_per_epoch"},
}


def test_fleet_flipped_counter() -> None:
    import fleet_tree
    import numpy as np
    from repro.network.faults import SimLink

    class FlippingLink(SimLink):
        """Flips one counter of the leaf's sketch as it seals, so the
        frame it ships is valid but wrong."""

        def poll(self, base_epoch: int) -> bytes:
            self.switch.sketch.levels[0].sketch.table[0, 0] += 1
            return super().poll(base_epoch)

    for link, should_fail in ((SimLink, False), (FlippingLink, True)):
        switches, coordinator, capture = fleet_tree.build_fleet()
        name = sorted(switches)[0]
        coordinator.links[name] = link(switches[name])
        keys = fleet_tree.epoch_keys(np.random.default_rng(5))
        for sw, leaf_keys in zip(switches.values(), keys):
            sw.feed(leaf_keys)
        report = coordinator.run_epoch()
        out = Outcome()
        fleet_tree.check_epoch(out, 0, switches, report, capture.sketch,
                               keys, sum(len(k) for k in keys))
        assert (out.failed == 1) == should_fail, (link.__name__,
                                                  out.failures)


def test_pipeline_dropped_chunk() -> None:
    import pipeline_zipf

    for drop, should_fail in ((None, False), (3, True)):
        controller = pipeline_zipf.build_controller()
        trace, chunks, truth = pipeline_zipf.make_instance(7, 0)[0]
        for i, chunk in enumerate(chunks):
            if i != drop:
                controller.ingest(chunk)
        sealed, report = controller.seal_epoch(0, trace=trace)
        out = Outcome()
        errors = {"f0": [], "entropy": [], "hh_f1": [], "over": [],
                  "detections": 0}
        pipeline_zipf.check_epoch(out, 0, trace, truth, sealed, report,
                                  errors)
        assert (out.failed == 1) == should_fail, (drop, out.failures)


def test_serve_truncated_response() -> None:
    import serve_flood

    os.makedirs(WORK_DIR, exist_ok=True)
    stem = os.path.join(WORK_DIR, f"selftest-{os.getpid()}")
    child, _ = serve_flood.start(3, stem + ".csv", None, stem + ".log")
    try:
        request = {"id": 0, "specs": serve_flood.DEFAULT_SPECS,
                   "epoch": None}
        raw = serve_flood.http_exchange(
            child.host, child.port, "POST", "/query",
            json.dumps({"statistics": request["specs"]}).encode("utf-8"))
    finally:
        child.stop()
        os.remove(stem + ".csv")
        os.remove(stem + ".log")
    for body, should_fail in ((raw, False), (raw[:-5], True)):
        out = Outcome()
        state = {"latest": -1, "events": {}, "past_answers": []}
        serve_flood.check_response(out, body, request, state)
        assert (out.failed == 1) == should_fail, out.failures


def test_layer_tables() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as src:
        declared = [m["name"] for m in json.load(src)["per_layer"]]
    for workload, expected in RUNS_ON.items():
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "1", "--seconds", "6", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, (workload, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"], (workload, proc.stdout[-2000:])
        metrics = result["metrics"]
        assert list(metrics) == declared, (workload, sorted(
            set(declared) ^ set(metrics)))
        table = "\n".join(lines[:-1])
        unnamed = [name for name in declared if name not in table]
        assert not unnamed, (workload, unnamed)
        idle = [name for name in sorted(expected)
                if not metrics[name]["value"] > 0]
        assert not idle, (workload, idle)


TESTS = [test_fleet_flipped_counter, test_pipeline_dropped_chunk,
         test_serve_truncated_response, test_layer_tables]


def main() -> int:
    os.chdir(ROOT)
    failed = 0
    for test in TESTS:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(TESTS) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
