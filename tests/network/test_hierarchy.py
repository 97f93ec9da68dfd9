"""Tests for the resilient aggregation tree (in-process simulation)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network.faults import SimLink, SimulatedSwitch, zipf_keys
from repro.network.hierarchy import (
    ROOT,
    HierarchicalCoordinator,
    ResiliencePolicy,
    TreePlan,
)
from repro.core.universal import UniversalSketch


def factory():
    return UniversalSketch(levels=4, rows=2, width=64, heap_size=8, seed=7)


class Net:
    """A small simulated deployment the tests drive epoch by epoch."""

    def __init__(self, n=20, fanout=4, drop_rate=0.0, policy=None,
                 transfer="delta"):
        self.names = [f"sw{i:03d}" for i in range(n)]
        self.switches = {n_: SimulatedSwitch(n_, factory)
                         for n_ in self.names}
        self.links = {
            n_: SimLink(self.switches[n_], drop_rate=drop_rate,
                        max_attempts=6, seed=i)
            for i, n_ in enumerate(self.names)}
        self.coord = HierarchicalCoordinator(
            self.links, factory, fanout=fanout, policy=policy,
            transfer=transfer)
        self.rng = np.random.default_rng(42)
        self.fed = 0
        self.lost_in_flight = 0

    def feed(self, per_switch=50):
        for name in self.names:
            self.fed += self.switches[name].feed(
                zipf_keys(self.rng, per_switch, flows=128))

    def epoch(self, on_tier=None):
        report = self.coord.run_epoch(on_tier=on_tier)
        self.lost_in_flight += \
            report.results["coverage"]["lost_in_flight_packets"]
        return report

    def conservation_holds(self, packets_at_root):
        lost_kill = sum(s.lost_total for s in self.switches.values())
        pending = sum(s.pending for s in self.switches.values())
        return packets_at_root + lost_kill + pending \
            + self.lost_in_flight == self.fed


class TestTreePlan:
    def test_shape_and_naming(self):
        plan = TreePlan.build([f"s{i}" for i in range(20)], fanout=4)
        assert len(plan.tiers) == 3
        assert [a for a, _ in plan.tiers[0]] == [
            "rack00", "rack01", "rack02", "rack03", "rack04"]
        assert [a for a, _ in plan.tiers[1]] == ["pod00", "pod01"]
        assert plan.tiers[-1][0][0] == ROOT
        assert plan.parent["rack00"] == "pod00"
        assert plan.parent["pod01"] == ROOT
        assert len(plan.leaves_under[ROOT]) == 20
        assert len(plan.leaves_under["rack00"]) == 4

    def test_every_leaf_has_exactly_one_parent(self):
        plan = TreePlan.build([f"s{i}" for i in range(100)], fanout=8)
        for leaf in plan.leaves:
            assert leaf in plan.parent
        covered = [leaf for agg, kids in plan.tiers[0] for leaf in kids]
        assert sorted(covered) == sorted(plan.leaves)

    def test_fanout_wider_than_leaves_is_flat(self):
        plan = TreePlan.build(["a", "b", "c"], fanout=8)
        assert plan.depth == 1
        assert plan.children[ROOT] == ("a", "b", "c")

    def test_deep_tree_tier_names(self):
        plan = TreePlan.build([f"s{i:03d}" for i in range(32)], fanout=2)
        prefixes = [tier[0][0] for tier in plan.tiers[:-1]]
        assert prefixes[0].startswith("rack")
        assert prefixes[1].startswith("pod")
        assert prefixes[2].startswith("zone")
        assert prefixes[3].startswith("t3")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TreePlan.build([], fanout=4)
        with pytest.raises(ConfigurationError):
            TreePlan.build(["a", "a"], fanout=4)
        with pytest.raises(ConfigurationError):
            TreePlan.build(["a", "b"], fanout=1)
        with pytest.raises(ConfigurationError):
            TreePlan.build(["a", ROOT], fanout=2)


class TestResiliencePolicy:
    def test_full_coverage_publishes(self):
        policy = ResiliencePolicy(min_coverage=0.9, quorum=1.0,
                                  fail_open=False)
        assert policy.decide(1.0, 1.0) == ("published", False)

    def test_degraded_above_thresholds(self):
        policy = ResiliencePolicy(min_coverage=0.5, quorum=0.5)
        assert policy.decide(0.8, 0.6) == ("published_degraded", False)

    def test_fail_open_publishes_violations(self):
        policy = ResiliencePolicy(min_coverage=0.9, fail_open=True)
        assert policy.decide(0.2, 1.0) == ("published_degraded", True)

    def test_fail_closed_withholds_violations(self):
        policy = ResiliencePolicy(min_coverage=0.9, fail_open=False)
        assert policy.decide(0.2, 1.0) == ("withheld", True)
        policy = ResiliencePolicy(quorum=0.9, fail_open=False)
        assert policy.decide(0.95, 0.5) == ("withheld", True)

    def test_thresholds_validated(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(min_coverage=1.5)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(quorum=-0.1)


class TestHealthyTree:
    def test_full_coverage_and_packet_exactness(self):
        net = Net()
        net.feed()
        report = net.epoch()
        cov = report.results["coverage"]
        assert cov["coverage"] == 1.0
        assert cov["status"] == "published"
        assert not cov["degraded"]
        assert cov["missing_switches"] == []
        assert report.packets == net.fed
        assert net.conservation_holds(report.packets)
        # One full frame per leaf and per non-root aggregator uplink
        # (20 leaves -> 5 racks -> 2 pods -> root).
        assert (cov["frames_full"], cov["frames_delta"]) == (27, 0)

    def test_tree_merge_equals_flat_merge(self):
        # Linearity: aggregating rack-then-pod-then-root must equal the
        # flat all-at-once merge, and both must equal one sketch fed
        # every switch's keys, counter for counter.
        from repro.controlplane.apps.base import MonitoringApp

        class Capture(MonitoringApp):
            name = "capture"

            def on_sketch(self, sketch, epoch_index):
                self.sketch = sketch
                return {}

        net = Net(n=12, fanout=3)
        flat = Net(n=12, fanout=100)
        assert net.coord.plan.depth == 3 and flat.coord.plan.depth == 1
        rng = np.random.default_rng(5)
        keys = [zipf_keys(rng, 80, flows=64) for _ in range(12)]
        single = factory()
        single.update_array(np.concatenate(keys))
        for coord_net in (net, flat):
            capture = Capture()
            coord_net.coord.register(capture)
            for i, name in enumerate(coord_net.names):
                coord_net.switches[name].feed(keys[i])
            assert coord_net.epoch().packets == sum(map(len, keys))
            merged = capture.sketch
            assert len(merged.levels) == len(single.levels)
            for got, want in zip(merged.levels, single.levels):
                assert np.array_equal(got.sketch.table, want.sketch.table)
                assert got.weight == want.weight

    def test_apps_run_on_published_epochs(self):
        from repro.controlplane.apps.cardinality import CardinalityApp
        net = Net(n=8, fanout=3)
        net.coord.register(CardinalityApp())
        net.feed()
        report = net.epoch()
        assert report.results["cardinality"]["distinct"] > 0

    def test_transfer_raw_forces_full_frames(self):
        wire = {}
        for transfer in ("raw", "delta"):
            net = Net(n=6, fanout=3, transfer=transfer)
            for _ in range(3):
                net.feed()
                cov = net.epoch().results["coverage"]
                # 6 leaves + 2 rack uplinks, every one a full frame.
                assert (cov["frames_full"], cov["frames_delta"]) == (8, 0)
            wire[transfer] = cov["bytes_wire"]
        # Raw uplinks are uncompressed; leaf frames are the same.
        assert wire["raw"] > wire["delta"]


class TestDegradation:
    def test_dead_rack_reported_as_missing_subtree(self):
        net = Net()
        rack0 = net.coord.plan.children["rack00"]
        for name in rack0:
            net.switches[name].kill()
        net.feed()
        net.epoch()  # consecutive-failure threshold
        net.feed()
        cov = net.epoch().results["coverage"]
        assert "rack00" in cov["missing_subtrees"]
        assert set(cov["missing_switches"]) == set(rack0)
        assert cov["coverage"] == pytest.approx(16 / 20)
        assert cov["degraded"]

    def test_aggregator_death_reparents_to_sibling(self):
        net = Net()
        net.coord.kill_aggregator("rack01")
        net.feed()
        cov = net.epoch().results["coverage"]
        # rack01's leaves were adopted by the first live sibling.
        adopted = {cov["reparented"][leaf]
                   for leaf in net.coord.plan.children["rack01"]}
        assert adopted == {"rack00"}
        assert cov["coverage"] == 1.0  # re-parenting loses nothing

    def test_whole_tier_dead_escalates_to_parent(self):
        net = Net()
        for agg, _ in net.coord.plan.tiers[0]:
            net.coord.kill_aggregator(agg)
        net.feed()
        cov = net.epoch().results["coverage"]
        assert cov["coverage"] == 1.0
        assert set(cov["reparented"].values()) <= {"pod00", "pod01", ROOT}

    def test_mid_epoch_kill_loses_collected_data(self):
        net = Net()
        net.feed()

        def chaos(tier, coord):
            if tier == 0:
                coord.kill_aggregator("rack02")

        report = net.epoch(on_tier=chaos)
        cov = report.results["coverage"]
        assert cov["lost_in_flight_packets"] > 0
        assert set(cov["lost_in_flight_switches"]) == set(
            net.coord.plan.children["rack02"])
        assert cov["coverage"] == pytest.approx(16 / 20)
        assert net.conservation_holds(report.packets)

    def test_root_cannot_be_killed(self):
        net = Net()
        with pytest.raises(ConfigurationError):
            net.coord.kill_aggregator(ROOT)

    def test_withheld_epoch_skips_apps(self):
        from repro.controlplane.apps.cardinality import CardinalityApp
        net = Net(policy=ResiliencePolicy(min_coverage=0.99,
                                          fail_open=False))
        net.coord.register(CardinalityApp())
        for name in net.coord.plan.children["rack00"]:
            net.switches[name].kill()
        net.feed()
        net.epoch()
        net.feed()
        report = net.epoch()
        assert report.results["coverage"]["status"] == "withheld"
        assert "cardinality" not in report.results


class TestRecovery:
    def test_coverage_recovers_within_two_epochs(self):
        net = Net(drop_rate=0.1)
        rack0 = net.coord.plan.children["rack00"]
        net.feed()
        net.epoch()
        for name in rack0:
            net.switches[name].kill()
        for _ in range(3):
            net.feed()
            net.epoch()
        for name in rack0:
            net.switches[name].restart()
        coverages = []
        for _ in range(2):
            net.feed()
            coverages.append(
                net.epoch().results["coverage"]["coverage"])
        assert coverages[-1] == 1.0

    def test_aggregator_restart_returns_children(self):
        net = Net()
        net.coord.kill_aggregator("rack01")
        net.feed()
        net.epoch()
        net.coord.restart_aggregator("rack01")
        net.feed()
        cov = net.epoch().results["coverage"]
        assert cov["reparented"] == {}
        assert cov["coverage"] == 1.0

    def test_reparenting_degrades_codec_to_full_then_recovers(self):
        # While adopted, a leaf ships the same full frame to its
        # stand-in collector; nothing is lost either way.
        net = Net()
        net.feed()
        net.epoch()
        net.coord.kill_aggregator("rack00")
        total = 0
        for _ in range(3):
            net.feed()
            report = net.epoch()
            total += report.packets
            assert report.results["coverage"]["coverage"] == 1.0
        net.coord.restart_aggregator("rack00")
        net.feed()
        report = net.epoch()
        assert report.results["coverage"]["coverage"] == 1.0
        assert net.conservation_holds(
            net.fed - sum(s.pending for s in net.switches.values()))


class TestDeterminism:
    def test_identical_seeds_identical_reports(self):
        def run():
            net = Net(drop_rate=0.3)
            out = []
            for epoch in range(4):
                net.feed(per_switch=40)
                if epoch == 1:
                    net.coord.kill_aggregator("rack03")
                cov = net.epoch().results["coverage"]
                out.append((cov["coverage"], cov["bytes_wire"],
                            tuple(cov["missing_switches"]),
                            cov["frames_full"], cov["frames_delta"]))
            return out
        assert run() == run()


class TestConfigurationErrors:
    def test_needs_links(self):
        with pytest.raises(ConfigurationError):
            HierarchicalCoordinator({}, factory)

    def test_needs_seeded_factory(self):
        unseeded = lambda: UniversalSketch(  # noqa: E731
            levels=3, rows=2, width=32, seed=None)
        sw = SimulatedSwitch("a", factory)
        with pytest.raises(ConfigurationError):
            HierarchicalCoordinator({"a": SimLink(sw)}, unseeded)

    def test_bad_transfer_mode(self):
        sw = SimulatedSwitch("a", factory)
        with pytest.raises(ConfigurationError):
            HierarchicalCoordinator({"a": SimLink(sw)}, factory,
                                    transfer="gzip")

    def test_plan_must_match_links(self):
        plan = TreePlan.build(["a", "b"], fanout=2)
        sw = SimulatedSwitch("a", factory)
        with pytest.raises(ConfigurationError):
            HierarchicalCoordinator({"a": SimLink(sw)}, factory,
                                    plan=plan)
