"""Remote collection: a flat (one-tier) HierarchicalCoordinator over
TCP switch agents reached through AgentLinks (real sockets)."""

import contextlib
import random

import numpy as np
import pytest

from repro.errors import ConfigurationError, TransportError
from repro.controlplane.apps.base import MonitoringApp
from repro.controlplane.apps.cardinality import CardinalityApp
from repro.controlplane.rpc import RemoteSwitchClient, RetryPolicy, SwitchAgent
from repro.network.health import HealthState, HealthTracker
from repro.network.hierarchy import AgentLink, HierarchicalCoordinator
from repro.dataplane.keys import src_ip_key
from repro.dataplane.switch import MonitoredSwitch
from repro.core.universal import UniversalSketch


def factory():
    return UniversalSketch(levels=5, rows=3, width=256, heap_size=16, seed=3)


def make_agent(name="s0", port=0):
    switch = MonitoredSwitch(name)
    switch.attach("univmon", factory, src_ip_key)
    return SwitchAgent(switch, port=port).start()


NO_SLEEP = lambda seconds: None  # noqa: E731
FAST = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


@contextlib.contextmanager
def make_coordinator(agents, health=None, **kwargs):
    """A flat tree (every agent reports to the root) over AgentLinks;
    the clients are closed on exit."""
    kwargs.setdefault("sketch_factory", factory)
    kwargs.setdefault("transfer", "raw")
    if health is None:
        health = HealthTracker(agents, suspect_after=1, fail_after=1)
    clients = {name: RemoteSwitchClient(*agent.address, timeout=5.0,
                                        retry=FAST, sleep=NO_SLEEP)
               for name, agent in agents.items()}
    try:
        coordinator = HierarchicalCoordinator(
            {name: AgentLink(client) for name, client in clients.items()},
            fanout=max(2, len(agents)), health=health, **kwargs)
        assert coordinator.plan.depth == 1  # flat: the root only
        yield coordinator
    finally:
        for client in clients.values():
            client.close()


def transport_calls(coordinator):
    return sum(link.counters["calls"]
               for link in coordinator.links.values())


@pytest.fixture()
def two_agents():
    agents = {"s0": make_agent("s0"), "s1": make_agent("s1")}
    yield agents
    for agent in agents.values():
        agent.stop()


class TestConfiguration:
    def test_needs_agents(self):
        with pytest.raises(ConfigurationError):
            HierarchicalCoordinator({}, factory)

    def test_needs_seeded_factory(self, two_agents):
        with pytest.raises(ConfigurationError):
            with make_coordinator(
                    two_agents,
                    sketch_factory=lambda: UniversalSketch(
                        levels=3, rows=3, width=64, seed=None)):
                pass

    def test_duplicate_app_rejected(self, two_agents):
        with make_coordinator(two_agents) as coordinator:
            coordinator.register(CardinalityApp())
            with pytest.raises(ConfigurationError):
                coordinator.register(CardinalityApp())


class TestHappyPath:
    def test_full_coverage_epoch(self, two_agents, tiny_trace):
        for agent in two_agents.values():
            agent.switch.process_trace(tiny_trace)
        with make_coordinator(two_agents) as coordinator:
            coordinator.register(CardinalityApp())
            report = coordinator.run_epoch()
        coverage = report["coverage"]
        assert coverage["switches_covered"] == 2
        assert coverage["lost"] == [] and coverage["failed"] == []
        assert coverage["packets_covered"] == 2 * len(tiny_trace)
        assert report.packets == 2 * len(tiny_trace)
        assert coverage["retries"] == 0
        assert coverage["transport_failures"] == 0
        assert report["cardinality"]["distinct"] > 0

    def test_epoch_indices_autoincrement(self, two_agents):
        with make_coordinator(two_agents) as coordinator:
            reports = coordinator.run_epochs(3)
        assert [r.epoch_index for r in reports] == [0, 1, 2]

    def test_poll_resets_between_epochs(self, two_agents, tiny_trace):
        with make_coordinator(two_agents) as coordinator:
            two_agents["s0"].switch.process_trace(tiny_trace)
            first = coordinator.run_epoch()
            second = coordinator.run_epoch()
        assert first["coverage"]["packets_covered"] == len(tiny_trace)
        assert second["coverage"]["packets_covered"] == 0


class TestDegradation:
    def test_dead_agent_auto_marked_failed(self, two_agents, tiny_trace):
        two_agents["s0"].switch.process_trace(tiny_trace)
        with make_coordinator(two_agents) as coordinator:
            coordinator.register(CardinalityApp())
            two_agents["s1"].stop()
            report = coordinator.run_epoch()
        coverage = report["coverage"]
        assert coverage["lost"] == ["s1"]
        assert coverage["failed"] == ["s1"]
        assert coverage["switches_covered"] == 1
        assert coverage["missing_switches"] == ["s1"]
        assert coverage["packets_covered"] == len(tiny_trace)
        # Retries were burned on the dead switch and reported.
        assert coverage["retries"] == FAST.max_attempts - 1
        assert coverage["transport_failures"] == 1
        # Apps still run on the surviving coverage.
        assert report["cardinality"]["distinct"] > 0

    def test_failed_switch_skipped_not_retried(self, two_agents):
        with make_coordinator(
                two_agents,
                health=HealthTracker(two_agents, fail_after=1,
                                     probe_every=3)) as coordinator:
            two_agents["s1"].stop()
            coordinator.run_epoch()  # marks s1 FAILED (epochs_failed -> 1)
            before = transport_calls(coordinator)
            report = coordinator.run_epoch()  # probe not due: s1 skipped
            after = transport_calls(coordinator)
        assert report["coverage"]["switches_covered"] == 1
        assert report["coverage"]["transport_failures"] == 0
        assert after - before == 1  # only s0 was contacted at all

    def test_all_agents_dead_yields_empty_epoch(self, two_agents):
        with make_coordinator(two_agents) as coordinator:
            coordinator.register(CardinalityApp())
            for agent in two_agents.values():
                agent.stop()
            report = coordinator.run_epoch()
        assert report["coverage"]["switches_covered"] == 0
        assert report["coverage"]["packets_covered"] == 0
        assert report["coverage"]["transport_failures"] == 2
        assert "cardinality" not in report.results


class TestRecovery:
    def test_restarted_agent_is_probed_back(self, two_agents, tiny_trace):
        with make_coordinator(two_agents) as coordinator:
            host, port = two_agents["s1"].address
            two_agents["s1"].stop()
            report = coordinator.run_epoch()
            assert report["coverage"]["failed"] == ["s1"]

            two_agents["s1"] = make_agent("s1", port=port)
            two_agents["s1"].switch.process_trace(tiny_trace)
            report = coordinator.run_epoch()
        coverage = report["coverage"]
        assert coverage["recovered"] == ["s1"]
        assert coverage["failed"] == []
        assert coverage["switches_covered"] == 2
        assert coverage["packets_covered"] == len(tiny_trace)
        assert coverage["health"]["s1"]["recoveries"] == 1

    def test_probe_is_single_shot(self, two_agents):
        """A still-dead FAILED switch costs one connect, not a retry storm."""
        with make_coordinator(two_agents) as coordinator:
            two_agents["s1"].stop()
            coordinator.run_epoch()
            report = coordinator.run_epoch()  # probe_every=1: fails fast
        assert report["coverage"]["retries"] == 0
        assert report["coverage"]["failed"] == ["s1"]


class TestDeterministicBackoff:
    def test_retry_delays_follow_seeded_policy(self):
        """The slept delays are exactly the policy's seeded schedule."""
        policy = RetryPolicy(max_attempts=4, base_delay=0.05, multiplier=2.0,
                             max_delay=10.0, jitter=0.25, seed=42)
        slept = []
        client = RemoteSwitchClient("127.0.0.1", 1, retry=policy,
                                    sleep=slept.append, timeout=0.2)
        with pytest.raises(TransportError):
            client._call("PING")

        rng = random.Random(42)
        expected = [policy.backoff(i, rng) for i in range(3)]
        assert slept == expected
        assert client.counters["retries"] == 3
        assert client.counters["failures"] == 1

    def test_two_clients_same_seed_same_schedule(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, seed=7)
        schedules = []
        for _ in range(2):
            slept = []
            client = RemoteSwitchClient("127.0.0.1", 1, retry=policy,
                                        sleep=slept.append, timeout=0.2)
            with pytest.raises(TransportError):
                client.ping()
            schedules.append(slept)
        assert schedules[0] == schedules[1]


class TestMetricsHygiene:
    def test_stale_per_agent_series_cleared_on_construction(self, two_agents):
        """Regression: a rebuilt coordinator with a different agent set
        must not leave the old coordinator's per-switch poll timings in
        the registry (they read as live series for absent agents)."""
        from repro.obs.metrics import MetricsRegistry, use_registry
        registry = MetricsRegistry()
        with use_registry(registry):
            with make_coordinator(two_agents) as coordinator:
                coordinator.run_epoch()
            assert registry.get("univmon_tree_poll_seconds",
                                switch="s0") is not None
            assert registry.get("univmon_tree_poll_seconds",
                                switch="s1") is not None

            survivor = {"s0": two_agents["s0"]}
            with make_coordinator(
                    survivor,
                    health=HealthTracker(survivor,
                                         fail_after=1)) as coordinator:
                # construction alone must have dropped the stale series
                assert registry.get("univmon_tree_poll_seconds",
                                    switch="s1") is None
                coordinator.run_epoch()
            assert registry.get("univmon_tree_poll_seconds",
                                switch="s0") is not None
            assert registry.get("univmon_tree_poll_seconds",
                                switch="s1") is None

    def test_flat_loop_signals_published(self, two_agents, tiny_trace):
        """Retries, failures, lost/recovered switches and app spans land
        under ``univmon_tree_*`` / ``univmon_app_seconds``."""
        from repro.obs.metrics import MetricsRegistry, use_registry
        registry = MetricsRegistry()
        two_agents["s0"].switch.process_trace(tiny_trace)
        with use_registry(registry):
            with make_coordinator(two_agents) as coordinator:
                coordinator.register(CardinalityApp())
                two_agents["s1"].stop()
                coordinator.run_epoch()
        assert registry.counter("univmon_tree_retries_total").value == \
            FAST.max_attempts - 1
        assert registry.counter(
            "univmon_tree_transport_failures_total").value == 1
        assert registry.counter(
            "univmon_tree_switches_lost_total").value == 1
        assert registry.counter(
            "univmon_tree_switches_recovered_total").value == 0
        assert registry.get("univmon_app_seconds",
                            app="cardinality") is not None
        assert registry.get("univmon_level_heap_occupancy",
                            level="0") is not None


class _Capture(MonitoringApp):
    name = "capture"

    def __init__(self):
        self.sketches = []

    def on_sketch(self, sketch, epoch_index):
        self.sketches.append(sketch)
        return {}


class TestDeltaTransfer:
    def test_delta_transfer_matches_raw(self, tiny_trace):
        """Same traffic, same agents' geometry: both transfer modes
        reconstruct exactly the same sketches, epoch after epoch, and
        every frame either way is a full frame."""
        merged = {}
        for transfer in ("raw", "delta"):
            agents = {"s0": make_agent("s0"), "s1": make_agent("s1")}
            capture = _Capture()
            try:
                with make_coordinator(agents,
                                      transfer=transfer) as coordinator:
                    coordinator.register(capture)
                    for _ in range(2):
                        for agent in agents.values():
                            agent.switch.process_trace(tiny_trace)
                        coverage = coordinator.run_epoch()["coverage"]
                        assert coverage["switches_covered"] == 2
                        assert coverage["packets_covered"] == \
                            2 * len(tiny_trace)
            finally:
                for agent in agents.values():
                    agent.stop()
            assert (coverage["frames_full"], coverage["frames_delta"]) \
                == (2, 0)
            merged[transfer] = capture.sketches
        for raw, delta in zip(merged["raw"], merged["delta"]):
            for a, b in zip(raw.levels, delta.levels):
                assert np.array_equal(a.sketch.table, b.sketch.table)
                assert a.weight == b.weight
            assert sorted(raw.levels[0].topk.items()) == \
                sorted(delta.levels[0].topk.items())

    def test_transfer_mode_validated(self, two_agents):
        with pytest.raises(ConfigurationError):
            with make_coordinator(two_agents, transfer="carrier-pigeon"):
                pass


class TestHealthStates:
    def test_suspect_before_failed(self, two_agents):
        tracker = HealthTracker(two_agents, suspect_after=1, fail_after=2)
        with make_coordinator(two_agents, health=tracker) as coordinator:
            two_agents["s1"].stop()
            coordinator.run_epoch()
            assert tracker.state("s1") is HealthState.SUSPECT
            coordinator.run_epoch()
            assert tracker.state("s1") is HealthState.FAILED
