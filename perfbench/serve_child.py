"""Child process of the ``serve-flood`` workload: ``univmon serve``.

Usage::

    python3 perfbench/serve_child.py [--spans PATH] -- serve ARGS...

Runs the ``univmon`` command line (``repro.cli.main``) unchanged.  Two
things are added from outside the program:

- after the service stops, one ``BENCH-LEDGER {json}`` line on stdout
  lists every published epoch still in the ring (index, packets, heap
  offer/eviction counters) with the final ``packets_ingested``, so the
  benchmark can check packet accounting after shutdown;
- the ingest thread times the host clock of ``hostspeed.py`` three
  times per epoch, right after it publishes the epoch into the ring, and the
  ledger line carries the samples: a clock run beside the service
  instead would time its contention with the ingest thread, not the
  host;
- with ``--spans PATH`` (the traced run) the layer wrappers of
  ``layers.py`` are installed and the spans are written to ``PATH`` when
  the command returns.
"""

from __future__ import annotations

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def _report_ledger(service, clock) -> None:
    epochs = []
    for record in service.ring.records():
        levels = getattr(record.sketch, "levels", ())
        epochs.append({
            "epoch": record.epoch_index, "packets": record.packets,
            "offers": sum(level.topk.offers for level in levels),
            "evictions": sum(level.topk.evictions for level in levels)})
    health = service.health()
    print("BENCH-LEDGER " + json.dumps({
        "epochs": epochs, "epochs_sealed": health["epochs_sealed"],
        "packets_ingested": health["packets_ingested"],
        "clock_ms": clock.samples}), flush=True)


def main(argv) -> int:
    # SIGINT is the service's graceful stop.  A parent started without
    # job control (e.g. in the background of a script) may have passed
    # it on as ignored, which Python would keep; take it back.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    from repro import cli
    from repro.service.ring import EpochRing
    from repro.service.service import MonitoringService
    from hostspeed import HostClock

    stop = MonitoringService.stop
    reported = set()

    def stop_and_report(self, *args, **kwargs):
        stop(self, *args, **kwargs)
        if id(self) not in reported:  # stop() may be called twice
            reported.add(id(self))
            _report_ledger(self, clock)

    MonitoringService.stop = stop_and_report
    tracer = None
    if spans_path:
        import layers
        from tracing import Tracer
        tracer = Tracer()
        layers.install(tracer)
    # wrapped after the spans, so that no span covers the clock
    clock = HostClock()
    publish = EpochRing.publish

    def publish_and_sample(self, *args, **kwargs):
        result = publish(self, *args, **kwargs)
        clock.sample(3)
        return result

    EpochRing.publish = publish_and_sample
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.close()
            tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
