"""Network-wide epoch coordination over an in-process fleet: a flat
(one-tier) HierarchicalCoordinator over SimLinks, incl. switch loss."""

import pytest

from repro.errors import ConfigurationError
from repro.controlplane.apps.base import MonitoringApp
from repro.controlplane.apps.cardinality import CardinalityApp
from repro.controlplane.apps.entropy import EntropyApp
from repro.dataplane.keys import src_ip_key
from repro.network.faults import SimLink, SimulatedSwitch
from repro.network.hierarchy import HierarchicalCoordinator
from repro.network.topology import NetworkTopology
from repro.core.universal import UniversalSketch

SWITCHES = ("edge0", "edge1", "edge2")


def factory():
    return UniversalSketch(levels=6, rows=3, width=512, heap_size=32, seed=5)


class Fleet:
    """Three simulated switches, each seeing a disjoint third of the
    traffic, collected flat by the root every epoch."""

    def __init__(self):
        self.switches = {name: SimulatedSwitch(name, factory)
                         for name in SWITCHES}
        self.coordinator = HierarchicalCoordinator(
            {name: SimLink(sw) for name, sw in self.switches.items()},
            factory, fanout=len(SWITCHES))
        assert self.coordinator.plan.depth == 1

    def run_trace(self, trace, epoch_seconds):
        """Feed each epoch of ``trace`` (split across the switches by
        key) and collect it; returns ``[(report, packets_fed), ...]``."""
        out = []
        for epoch in trace.epochs(epoch_seconds):
            keys = epoch.key_array(src_ip_key)
            fed = 0
            for i, sw in enumerate(self.switches.values()):
                fed += sw.feed(keys[keys % len(SWITCHES) == i])
            out.append((self.coordinator.run_epoch(), fed))
        return out


class TestConfiguration:
    def test_duplicate_app_rejected(self):
        coordinator = Fleet().coordinator
        coordinator.register(EntropyApp())
        with pytest.raises(ConfigurationError):
            coordinator.register(EntropyApp())


class TestEpochLoop:
    def test_full_coverage_reports(self, small_trace):
        fleet = Fleet()
        fleet.coordinator.register(CardinalityApp()).register(EntropyApp())
        results = fleet.run_trace(small_trace, 2.0)
        assert len(results) == len(small_trace.epochs(2.0))
        assert sum(fed for _, fed in results) == len(small_trace)
        for report, fed in results:
            coverage = report["coverage"]
            assert coverage["failed"] == []
            assert coverage["packets_covered"] == report.packets == fed
            assert "cardinality" in report.results
            assert "entropy" in report.results

    def test_network_wide_close_to_single_controller(self, small_trace):
        """Merged multi-switch estimate ~= one central sketch's.

        Counters are bit-identical (linearity), but the merged Q_j heaps
        are rebuilt from the union of per-switch heap keys, which can
        differ slightly from a central streaming heap — so the estimates
        agree approximately, not exactly.
        """
        fleet = Fleet()
        fleet.coordinator.register(CardinalityApp())
        report, _ = fleet.run_trace(small_trace, 10.0)[0]

        central = factory()
        central.update_array(small_trace.key_array(src_ip_key))
        from repro.core.gsum import estimate_cardinality
        assert report["cardinality"]["distinct"] == \
            pytest.approx(estimate_cardinality(central), rel=0.15)


class _Mutator(MonitoringApp):
    """An app that scribbles on the epoch sketch it is handed."""

    name = "mutator"

    def on_sketch(self, sketch, epoch_index):
        sketch.update(12345, 10_000)
        return {}


class TestMergeAliasing:
    def test_single_survivor_merge_is_a_copy(self, tiny_trace):
        """With one surviving switch the epoch sketch must not *be* the
        collector's decoded frame: an app mutating it would otherwise
        corrupt the delta base the next epoch's frame is applied to."""
        fleet = Fleet()
        fleet.coordinator.register(_Mutator())
        for name in ("edge1", "edge2"):
            fleet.switches[name].kill()
        keys = tiny_trace.key_array(src_ip_key)
        for _ in range(3):
            fed = fleet.switches["edge0"].feed(keys)
            coverage = fleet.coordinator.run_epoch()["coverage"]
            # The mutation happened after accounting, and never leaks
            # into the next epoch's reconstruction.
            assert coverage["packets_covered"] == fed
        assert coverage["frames_delta"] == 1

    def test_single_switch_network_sketch_is_a_copy(self, tiny_trace):
        from repro.network.distributed import DistributedMonitor
        monitor = DistributedMonitor(NetworkTopology.line(1),
                                     sketch_factory=factory)
        monitor.process_trace(tiny_trace)
        live = monitor.sketches[monitor.topology.switches[0]]
        before = live.total_weight
        merged = monitor.network_sketch()
        assert merged is not live
        merged.update(12345, 10_000)
        assert live.total_weight == before
        # The snapshot itself is fully functional.
        assert merged.total_weight == before + 10_000


class TestFailureInjection:
    def test_failed_switch_degrades_coverage(self, small_trace):
        fleet = Fleet()
        fleet.coordinator.register(CardinalityApp())
        fleet.switches["edge1"].kill()
        fleet.coordinator.run_epoch()  # consecutive-failure threshold
        report, fed = fleet.run_trace(small_trace, 10.0)[0]
        coverage = report["coverage"]
        assert coverage["failed"] == ["edge1"]
        assert coverage["missing_switches"] == ["edge1"]
        assert coverage["packets_covered"] == fed
        assert 0 < fed < len(small_trace)
        # Apps still run on the surviving traffic.
        assert report["cardinality"]["distinct"] > 0

    def test_recovery_restores_coverage(self, small_trace):
        fleet = Fleet()
        fleet.switches["edge0"].kill()
        fleet.coordinator.run_epoch()
        fleet.coordinator.run_epoch()
        assert fleet.coordinator.run_epoch()["coverage"]["failed"] == \
            ["edge0"]
        fleet.switches["edge0"].restart()
        report, fed = fleet.run_trace(small_trace, 10.0)[0]
        assert report["coverage"]["recovered"] == ["edge0"]
        assert fed == len(small_trace)
        assert report["coverage"]["packets_covered"] == len(small_trace)

    def test_all_switches_failed_yields_empty_epoch(self, tiny_trace):
        fleet = Fleet()
        fleet.coordinator.register(CardinalityApp())
        for switch in fleet.switches.values():
            switch.kill()
        report, fed = fleet.run_trace(tiny_trace, 10.0)[0]
        assert fed == 0
        assert report["coverage"]["packets_covered"] == 0
        assert report["coverage"]["switches_covered"] == 0
        assert "cardinality" not in report.results
