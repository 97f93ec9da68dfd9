"""The UnivMon controller: epoch-driven poll loop over a monitored switch.

Mirrors Figure 2: the data plane (a :class:`MonitoredSwitch` running a
universal-sketch program) is polled every ``epoch_seconds``; the sealed
sketch is handed to every registered estimation app, and the per-epoch
results are collected into :class:`EpochReport`s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs import observe_sketch
from repro.obs.metrics import get_registry
from repro.controlplane.apps.base import MonitoringApp
from repro.dataplane.keys import KeyFunction, src_ip_key
from repro.dataplane.switch import MonitoredSwitch
from repro.dataplane.trace import Trace
from repro.core.query import QueryEngine
from repro.core.universal import UniversalSketch


@dataclass
class EpochReport:
    """Everything the control plane learned from one polling interval."""

    epoch_index: int
    start_time: float
    end_time: float
    packets: int
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def __getitem__(self, app_name: str) -> Dict[str, Any]:
        return self.results[app_name]


class AppFanout:
    """The estimation apps of one epoch loop and their per-epoch run.

    Shared by both epoch loops — :class:`Controller` for one switch and
    :class:`~repro.network.hierarchy.HierarchicalCoordinator` for a
    fleet — so a sealed or merged sketch reaches the apps the same way:
    sketch-health gauges, one snapshot build shared by every app, then
    each app under its own ``univmon_app_seconds`` span.
    """

    def __init__(self) -> None:
        self.apps: List[MonitoringApp] = []

    def register(self, app: MonitoringApp) -> None:
        if any(existing.name == app.name for existing in self.apps):
            raise ConfigurationError(f"duplicate app name {app.name!r}")
        self.apps.append(app)

    def run(self, sketch, report: EpochReport,
            trace: Optional[Trace] = None) -> None:
        """Fill ``report.results`` with every app's answer on ``sketch``."""
        reg = get_registry()
        observe_sketch(sketch, reg)
        if not self.apps:
            return
        # Materialise the epoch's query snapshot once, up front: every
        # app below reads the sealed (immutable-from-here) sketch, so
        # they all share this build via the version-guarded cache.
        QueryEngine(sketch).warm()
        if trace is not None:
            for app in self.apps:
                # Trace-aware apps (e.g. the detection pipeline, which
                # feeds zoom and reversible sketches from raw packets) get
                # the epoch's trace before estimation; sketch-only apps
                # don't implement the hook.
                observe = getattr(app, "observe_trace", None)
                if observe is not None:
                    observe(trace)
        for app in self.apps:
            with reg.span("univmon_app_seconds",
                          help="per-app estimation latency",
                          app=app.name):
                report.results[app.name] = app.on_sketch(
                    sketch, report.epoch_index)


class Controller:
    """Drives the poll loop and fans sealed sketches out to the apps.

    Parameters
    ----------
    sketch_factory:
        Produces the per-epoch universal sketch; defaults to a moderate
        :class:`UniversalSketch` geometry.
    key_function:
        The feature to monitor (the paper's evaluation uses source IP).
    epoch_seconds:
        Polling interval (the paper uses 5 seconds).
    workers:
        Shard each epoch's ingest across this many worker processes
        (sketch linearity makes the shard merge exact; see
        :mod:`repro.dataplane.parallel`).  1 = in-process ingest.
    """

    def __init__(self,
                 sketch_factory: Optional[Callable[[], UniversalSketch]] = None,
                 key_function: KeyFunction = src_ip_key,
                 epoch_seconds: float = 5.0,
                 switch: Optional[MonitoredSwitch] = None,
                 workers: int = 1) -> None:
        if epoch_seconds <= 0:
            raise ConfigurationError(
                f"epoch_seconds must be > 0, got {epoch_seconds}")
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}")
        self.workers = workers
        if sketch_factory is None:
            sketch_factory = lambda: UniversalSketch(  # noqa: E731
                levels=12, rows=5, width=2048, heap_size=64, seed=1)
        self.epoch_seconds = epoch_seconds
        self.switch = switch or MonitoredSwitch("s1")
        self.program = self.switch.attach("univmon", sketch_factory,
                                          key_function)
        self._apps = AppFanout()

    def register(self, app: MonitoringApp) -> "Controller":
        """Add an estimation app (chainable)."""
        self._apps.register(app)
        return self

    @property
    def apps(self) -> List[MonitoringApp]:
        return list(self._apps.apps)

    # ------------------------------------------------------------------ #
    # the poll loop
    # ------------------------------------------------------------------ #

    def run_trace(self, trace: Trace) -> List[EpochReport]:
        """Process a whole trace epoch by epoch; returns all reports."""
        reports = []
        for index, epoch in enumerate(trace.epochs(self.epoch_seconds)):
            reports.append(self.run_epoch(epoch, index))
        return reports

    def run_epoch(self, epoch_trace: Trace, epoch_index: int) -> EpochReport:
        """Feed one epoch through the switch, poll, and estimate."""
        self.ingest(epoch_trace)
        _sealed, report = self.seal_epoch(epoch_index, trace=epoch_trace)
        return report

    # ------------------------------------------------------------------ #
    # the epoch loop, decomposed (reused by repro.service)
    # ------------------------------------------------------------------ #

    def ingest(self, trace: Trace) -> None:
        """Feed packets into the live sketch (no epoch boundary).

        The batch loop calls this once per epoch; the always-on service
        calls it per arriving chunk and seals on a wall-clock timer via
        :meth:`seal_epoch` — same data path, different pacing.
        """
        with get_registry().span(
                "univmon_epoch_ingest_seconds",
                help="wall time feeding one epoch into the switch"):
            self.switch.process_trace(trace, workers=self.workers)

    def seal_epoch(self, epoch_index: int,
                   trace: Optional[Trace] = None) -> tuple:
        """Poll the live sketch (sealing the epoch) and run every app.

        Returns ``(sealed_sketch, EpochReport)`` — callers that need the
        sealed sketch itself (the service publishes its query snapshot)
        get it without a second poll.  ``trace`` is optional: it powers
        the per-epoch timestamps and trace-aware apps (detection zoom /
        recovery); timer-driven callers that do not retain packets pass
        None and those apps degrade as documented.
        """
        sealed = self.switch.poll("univmon")
        report = self.evaluate_sealed(sealed, epoch_index, trace=trace)
        return sealed, report

    def evaluate_sealed(self, sealed, epoch_index: int,
                        trace: Optional[Trace] = None) -> EpochReport:
        """Account one sealed sketch and fan it out to the apps."""
        reg = get_registry()
        packets = len(trace) if trace is not None \
            else int(getattr(sealed, "packets", 0))
        reg.counter("univmon_epochs_total",
                    help="epochs sealed by the controller").inc()
        reg.counter("univmon_epoch_packets_total",
                    help="packets covered across all sealed epochs").inc(
                        packets)
        reg.gauge("univmon_epoch_packets",
                  help="packets in the last sealed epoch").set(packets)
        # min/max, not [0]/[-1]: traces are not guaranteed time-sorted.
        t0 = float(trace.timestamps.min()) \
            if trace is not None and len(trace) else 0.0
        t1 = float(trace.timestamps.max()) \
            if trace is not None and len(trace) else 0.0
        report = EpochReport(epoch_index=epoch_index, start_time=t0,
                             end_time=t1, packets=packets)
        self._apps.run(sealed, report, trace=trace)
        return report

    def reset(self) -> None:
        """Drop cross-epoch app state (trace boundary)."""
        for app in self._apps.apps:
            app.reset()

    def close(self) -> None:
        """Release the switch's persistent shard worker pool (no-op for
        ``workers=1`` controllers that never started one)."""
        self.switch.close()

    def __enter__(self) -> "Controller":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
