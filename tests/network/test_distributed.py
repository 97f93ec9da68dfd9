"""Distributed monitoring via sketch merging: each switch of a topology
sketches the traffic entering through it (ingress assignment) and a flat
(one-tier) HierarchicalCoordinator merges them into the network view."""

import numpy as np

from repro.controlplane.apps.base import MonitoringApp
from repro.controlplane.apps.cardinality import CardinalityApp
from repro.controlplane.apps.entropy import EntropyApp
from repro.controlplane.apps.heavy_hitters import HeavyHitterApp
from repro.dataplane.keys import src_ip_key
from repro.eval.groundtruth import GroundTruth
from repro.network.faults import SimLink, SimulatedSwitch
from repro.network.hierarchy import HierarchicalCoordinator
from repro.network.topology import NetworkTopology
from repro.core.universal import UniversalSketch


def factory():
    return UniversalSketch(levels=6, rows=5, width=512, heap_size=32, seed=3)


class _Capture(MonitoringApp):
    """An app that keeps the epoch sketch it is handed."""

    name = "capture"

    def on_sketch(self, sketch, epoch_index):
        self.sketch = sketch
        return {}


def run(topology, trace, *apps):
    """Ingress-assign ``trace`` over ``topology``, run one epoch with
    ``apps``; returns ``(report, merged_sketch, switches, shares)``."""
    switches = {name: SimulatedSwitch(name, factory)
                for name in topology.switches}
    shares = topology.ingress_assignment(trace)
    for name, share in shares.items():
        switches[name].feed(share.key_array(src_ip_key))
    coordinator = HierarchicalCoordinator(
        {name: SimLink(sw) for name, sw in switches.items()},
        factory, fanout=len(switches))
    assert coordinator.plan.depth == 1
    capture = _Capture()
    coordinator.register(capture)
    for app in apps:
        coordinator.register(app)
    report = coordinator.run_epoch()
    return report, capture.sketch, switches, shares


class TestConstruction:
    def test_one_sketch_per_switch(self, tiny_trace):
        report, _, switches, _ = run(NetworkTopology.star(3), tiny_trace)
        assert set(switches) == {"core", "edge0", "edge1", "edge2"}
        assert report["coverage"]["switches_covered"] == len(switches)
        sketches = [sw.sketch for sw in switches.values()]
        assert len({id(s) for s in sketches}) == len(sketches)


class TestNetworkWideView:
    def test_no_double_counting(self, small_trace):
        report, merged, _, _ = run(NetworkTopology.line(4), small_trace)
        assert merged.total_weight == len(small_trace)
        assert report["coverage"]["packets_covered"] == len(small_trace)

    def test_network_sketch_equals_single_switch_sketch(self, small_trace):
        """Distributing then merging must equal sketching centrally —
        the exactness that linearity buys."""
        _, merged, _, _ = run(NetworkTopology.star(3), small_trace)
        central = factory()
        central.update_array(small_trace.key_array(src_ip_key))
        assert len(merged.levels) == len(central.levels)
        for lc, lm in zip(central.levels, merged.levels):
            assert np.array_equal(lc.sketch.table, lm.sketch.table)
            assert lc.weight == lm.weight

    def test_network_wide_heavy_hitters(self, small_trace):
        report, _, _, _ = run(NetworkTopology.line(3), small_trace,
                              HeavyHitterApp(alpha=0.02))
        truth = GroundTruth(small_trace, src_ip_key)
        true_keys = truth.heavy_hitter_keys(0.02)
        reported = set(report["heavy_hitters"]["keys"])
        assert len(true_keys - reported) <= max(1, len(true_keys) // 4)

    def test_cardinality_and_entropy_queries(self, small_trace):
        report, _, _, _ = run(NetworkTopology.line(2), small_trace,
                              CardinalityApp(), EntropyApp())
        true_distinct = small_trace.distinct(src_ip_key)
        assert abs(report["cardinality"]["distinct"] - true_distinct) \
            / true_distinct < 0.5
        assert report["entropy"]["entropy"] > 0


class TestLoadBalance:
    def test_load_reported_per_switch(self, small_trace):
        _, _, switches, shares = run(NetworkTopology.star(4), small_trace)
        load = {name: sw.polled_total for name, sw in switches.items()}
        assert load == {name: len(share) for name, share in shares.items()}
        assert sum(load.values()) == len(small_trace)
