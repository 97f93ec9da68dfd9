"""One layered benchmark for the epoch pipeline, the live service and the
aggregation tree.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing.  Metrics
that move with the host's speed are reported at a reference host speed
(``hostspeed.py``); the measured values are printed beside them.
``--trace 1`` runs the workload twice for ``S/2`` seconds each, first
untraced and then with every layer wrapped in timing spans, and reports
the per-layer metrics plus the tracing overhead between the two.  Both
modes check every output for correctness.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the names and units of ``BENCHMARK.json``).  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: workload name -> module in this directory
WORKLOADS = {"pipeline-zipf": "pipeline_zipf",
             "serve-flood": "serve_flood",
             "fleet-tree": "fleet_tree"}

#: Run-level figures printed beside the end-to-end metrics.
DETAILS = ("epochs", "packets", "requests", "card_relerr", "entropy_relerr",
           "hh_f1", "ceiling_crossings", "wire_bytes_per_epoch",
           "query_p99_ms", "generator_lag_p99_ms", "generator_lag_max_ms",
           "memo_hit_ratio", "detections")

WATCHDOG_S = 170


class Watchdog(Exception):
    pass


def _on_alarm(signum, frame):
    raise Watchdog(f"run exceeded {WATCHDOG_S} s")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as src:
        return json.load(src)


def at_reference_speed(raw: dict, powers: dict) -> dict:
    """``raw`` with each metric of ``powers`` multiplied by the host
    speed to that power (a workload's ``HOST_SCALED``: 1 for a time, -1
    for a rate, or a measured elasticity); ``setup_s`` by the set-up
    clock's speed, the rest by the run's.  The measured values stay
    under ``measured``."""
    scaled = dict(raw, measured={name: raw[name] for name in powers})
    for name, power in powers.items():
        clock = "setup_speed" if name == "setup_s" else "speed"
        scaled[name] = raw[name] * raw[clock] ** power
    return scaled


def layer_metrics(module, raw: dict, base: dict, tracer) -> tuple:
    """``(per-layer metrics, spans)`` of a traced run (``raw``), with the
    tracing overhead against its untraced twin (``base``)."""
    import layers
    from tracing import SpanSet, load_records

    if raw.get("spans_path"):  # recorded by a child process
        spans = SpanSet(load_records(raw["spans_path"]))
        handle_ms, wait_ms = module.queue_wait_ms(spans, raw["records"])
    else:
        spans = SpanSet(tracer.records())
        handle_ms = wait_ms = 0.0
    extra = {
        "topk.eviction_ratio": (raw["eviction_ratio"], "ratio"),
        "query.memo_hit_ratio": (raw.get("memo_hit_ratio", 0.0), "ratio"),
        "service.http_handle_ms": (handle_ms, "ms"),
        "service.queue_wait_ms": (wait_ms, "ms"),
        "codec.bytes_per_frame": (raw.get("bytes_per_frame", 0.0), "bytes"),
        "codec.delta_frame_share":
            (raw.get("delta_frame_share", 0.0), "ratio"),
        "hierarchy.wire_bytes_per_epoch":
            (raw.get("wire_bytes_per_epoch", 0.0), "bytes"),
        "quality.card_relerr": (raw.get("card_relerr", 0.0), "ratio"),
        "quality.entropy_relerr": (raw.get("entropy_relerr", 0.0), "ratio"),
        "quality.hh_f1": (raw.get("hh_f1", 0.0), "ratio"),
        "trace.coverage": (module.coverage(spans, raw), "ratio"),
        "trace.ingest_overhead_ratio":
            (base["ingest_pps"] / raw["ingest_pps"], "ratio"),
        "trace.latency_overhead_ratio":
            (raw["latency_p50_ms"] / base["latency_p50_ms"], "ratio"),
    }
    metrics = layers.derive(spans, module.INGEST_ROOT, raw["epochs"], extra)
    return metrics, spans


def print_layer_table(workload: str, metrics: dict, spans) -> None:
    print(f"per-layer metrics, {workload} (traced run; 0 where the layer "
          f"does not run on this workload):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:16.6g} {unit}")
    print("  span self-time breakdown (calls, total ms, self ms):")
    for row in spans.table():
        print(f"    {row['name']:34s} {row['calls']:8d} "
              f"{row['total_ms']:12.1f} {row['self_ms']:12.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources at {os.path.join('src', 'repro')}"
              " next to this benchmark; run it from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    os.chdir(ROOT)

    from common import (WORK_DIR, Outcome, RunRejected, cpu_ticks,
                        host_fingerprint)
    from tracing import NullTracer, Tracer
    import layers

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)
    module = importlib.import_module(WORKLOADS[args.workload])
    fingerprint = host_fingerprint(ROOT)
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}")
    print("host " + "  ".join(f"{k}={v}" for k, v in fingerprint.items()))

    out = Outcome()
    started = time.time()
    steal0, total0 = cpu_ticks()
    try:
        if args.trace == 0:
            raw = at_reference_speed(
                module.run(args.seed, args.seconds, NullTracer(), out),
                module.HOST_SCALED)
            names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
            metrics = {name: (raw[name], unit) for name, unit in names}
            base = None
        else:
            half = args.seconds / 2
            base = at_reference_speed(
                module.run(args.seed, half, NullTracer(), out),
                module.HOST_SCALED)
            tracer = Tracer()
            if getattr(module, "TRACED_IN_CHILD", False):
                # the program runs in a child, which installs the wrappers
                raw = module.run(args.seed, half, tracer, out)
            else:
                layers.install(tracer)
                try:
                    raw = module.run(args.seed, half, tracer, out)
                finally:
                    tracer.close()
                os.makedirs(WORK_DIR, exist_ok=True)
                tracer.write(os.path.join(
                    WORK_DIR, f"{args.workload}-{args.seed}.spans.jsonl"))
            raw = at_reference_speed(raw, module.HOST_SCALED)
            metrics, spans = layer_metrics(module, raw, base, tracer)
    except Watchdog as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RunRejected as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    runs = [raw] if base is None else [base, raw]
    print("end-to-end (untraced)" if base is None
          else "end-to-end, untraced vs traced run", end="")
    print(", at the reference host speed [measured]:")
    for m in spec["end_to_end"]:
        name = m["name"]
        label = module.LABELS.get(name, name)
        row = "".join(f" {r[name]:14.6g}" for r in runs)
        if name in module.HOST_SCALED:
            row += "  [" + " ".join(f"{r['measured'][name]:.6g}"
                                    for r in runs) + "]"
        print(f"  {label:42s}{row} {m['unit']}")
    for clock in ("speed", "setup_speed"):
        if clock in raw:
            print(f"  {'host ' + clock.replace('_', ' '):42s}"
                  + "".join(f" {r[clock]:14.6g}" for r in runs))
    for key in DETAILS:
        if key in raw:
            print(f"  {key:42s} {raw[key]:14.6g}")
    if base is not None:
        print_layer_table(args.workload, metrics, spans)
        declared = [m["name"] for m in spec["per_layer"]]
        missing = set(declared) - set(metrics)
        if missing:
            raise RuntimeError(f"per-layer metrics not measured: {missing}")
        metrics = {name: metrics[name] for name in declared}
    steal1, total1 = cpu_ticks()
    steal = (steal1 - steal0) / max(1, total1 - total0)
    print(f"  {'host CPU steal during the run':42s} {100 * steal:13.2f}%")
    print(f"checks: {out.attempted} attempted, {out.failed} failed")
    for failure in out.failures:
        print(f"  FAILED {failure}")

    os.makedirs(WORK_DIR, exist_ok=True)
    record = {"time": started, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": fingerprint, "steal_share": steal,
              "host_speed": raw["speed"],
              "setup_host_speed": raw.get("setup_speed"),
              "measured": raw["measured"],
              "attempted": out.attempted,
              "failed": out.failed, "failures": out.failures,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    with open(os.path.join(WORK_DIR, "results.jsonl"), "a",
              encoding="utf-8") as log:
        log.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": out.failed == 0, "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
