"""Chaos suite: epoch runs under injected transport faults.

The acceptance scenario: with every agent behind a :class:`FaultyProxy`
dropping 30% of connections and one agent killed and restarted mid-run,
a flat :class:`HierarchicalCoordinator` over :class:`AgentLink` links
completes every epoch, auto-marks and recovers the failed switch,
reports accurate coverage and retry counters, and — because backoff
jitter is seeded and sleeps are injected — the whole run is
deterministic (asserted by replaying it).
"""

import pytest

from repro.controlplane.rpc import (
    RemoteSwitchClient,
    RetryPolicy,
    SwitchAgent,
)
from repro.errors import TransportError
from repro.network.faults import FaultPlan, FaultyProxy
from repro.network.health import HealthTracker
from repro.network.hierarchy import AgentLink, HierarchicalCoordinator
from repro.dataplane.keys import src_ip_key
from repro.dataplane.switch import MonitoredSwitch
from repro.dataplane.trace import SyntheticTraceConfig, generate_trace
from repro.core.universal import UniversalSketch


def factory():
    return UniversalSketch(levels=5, rows=3, width=256, heap_size=16, seed=3)


def make_agent(name, port=0):
    switch = MonitoredSwitch(name)
    switch.attach("univmon", factory, src_ip_key)
    return SwitchAgent(switch, port=port).start()


def epoch_feed(seed):
    """A small per-epoch traffic slice (distinct per seed)."""
    return generate_trace(SyntheticTraceConfig(
        packets=300, flows=60, zipf_skew=1.2, duration=1.0, seed=seed))


NO_SLEEP = lambda seconds: None  # noqa: E731


class _Run:
    """One full chaos scenario; built twice to assert determinism."""

    EPOCHS = 6
    KILL_AFTER = 1     # stop s1 once this many epochs completed
    RESTART_AFTER = 3  # restart s1 once this many epochs completed

    def __init__(self, seed=1234):
        self.agents = {name: make_agent(name) for name in ("s0", "s1", "s2")}
        plan = FaultPlan(drop_accept=0.30)
        self.proxies = {
            name: FaultyProxy(agent.address, plan=plan,
                              seed=seed + i).start()
            for i, (name, agent) in enumerate(self.agents.items())
        }
        self.slept = []
        self.clients = {
            name: RemoteSwitchClient(
                *proxy.address, timeout=5.0,
                retry=RetryPolicy(max_attempts=8, base_delay=0.01,
                                  seed=seed + i),
                sleep=lambda s: self.slept.append(round(s, 9)))
            for i, (name, proxy) in enumerate(self.proxies.items())}
        self.coordinator = HierarchicalCoordinator(
            {name: AgentLink(client)
             for name, client in self.clients.items()},
            factory, fanout=len(self.agents), transfer="raw",
            health=HealthTracker(self.agents, suspect_after=1, fail_after=1,
                                 probe_every=1))

    def close(self):
        for client in self.clients.values():
            client.close()
        for proxy in self.proxies.values():
            proxy.stop()
        for agent in self.agents.values():
            agent.stop()

    def execute(self):
        """Drive the scenario; returns the reports."""
        reports = []
        s1_port = self.agents["s1"].address[1]
        fed = 0
        for epoch in range(self.EPOCHS):
            if epoch == self.RESTART_AFTER:
                self.agents["s1"] = make_agent("s1", port=s1_port)
            s1_alive = not (self.KILL_AFTER <= epoch < self.RESTART_AFTER)
            for name, agent in self.agents.items():
                if name == "s1" and not s1_alive:
                    continue
                agent.switch.process_trace(epoch_feed(seed=1000 + epoch))
                fed += 1
            reports.append(self.coordinator.run_epoch())
            if epoch + 1 == self.KILL_AFTER:
                self.agents["s1"].stop()
        self.total_fed_feeds = fed
        return reports


class TestAcceptanceScenario:
    def test_epochs_survive_drops_and_a_crash(self):
        run = _Run()
        try:
            reports = run.execute()
        finally:
            run.close()

        feed_packets = len(epoch_feed(seed=1000))
        # Every epoch completed and its accounting is exact: each
        # successful poll covers precisely the feeds since that switch's
        # last successful poll, so totals are conserved — switch loss
        # narrows coverage, it never silently drops or double-counts.
        assert len(reports) == _Run.EPOCHS
        total_covered = sum(r["coverage"]["packets_covered"]
                            for r in reports)
        covered_feeds = total_covered / feed_packets
        assert covered_feeds == int(covered_feeds)
        assert covered_feeds <= run.total_fed_feeds

        # Epoch 0: everything healthy (retries possible, failures not).
        first = reports[0]["coverage"]
        assert first["switches_covered"] == 3
        assert first["packets_covered"] == 3 * feed_packets

        # The killed switch was auto-marked failed while down...
        down = [r["coverage"] for r in reports[_Run.KILL_AFTER:
                                               _Run.RESTART_AFTER]]
        assert any("s1" in c["lost"] for c in down)
        assert all("s1" in c["failed"] for c in down)
        assert all(c["switches_covered"] == 2 for c in down)
        assert all(c["missing_switches"] == ["s1"] for c in down)
        assert all(c["packets_covered"] == 2 * feed_packets for c in down)

        # ...and recovered by a probe after the restart.
        recovered_at = next(i for i, r in enumerate(reports)
                            if "s1" in r["coverage"]["recovered"])
        assert recovered_at >= _Run.RESTART_AFTER
        last = reports[-1]["coverage"]
        assert last["failed"] == []
        assert last["switches_covered"] == 3

        # 30% connection drops burned retries, and they were reported
        # exactly: the per-epoch counts add up to the clients' totals.
        assert sum(r["coverage"]["retries"] for r in reports) == \
            sum(c.counters["retries"] for c in run.clients.values()) > 0
        assert sum(r["coverage"]["transport_failures"] for r in reports) \
            == sum(c.counters["failures"] for c in run.clients.values())
        for report in reports:
            coverage = report["coverage"]
            assert coverage["retries"] >= 0
            assert (coverage["switches_covered"]
                    + len(coverage["failed"]) == 3)

    def test_scenario_is_deterministic(self):
        """Same seeds -> identical coverage, retries, and backoff sleeps."""
        outcomes = []
        for _ in range(2):
            run = _Run()
            try:
                reports = run.execute()
            finally:
                run.close()
            outcomes.append((
                [r["coverage"]["packets_covered"] for r in reports],
                [r["coverage"]["retries"] for r in reports],
                [r["coverage"]["missing_switches"] for r in reports],
                [r["coverage"]["transport_failures"] for r in reports],
                run.slept,
            ))
        assert outcomes[0] == outcomes[1]


class TestCorruptionAndTruncation:
    @pytest.fixture()
    def agent(self):
        agent = make_agent("s0")
        yield agent
        agent.stop()

    def _poll_through(self, agent, plan, seed, polls=20):
        """Poll repeatedly through a faulty proxy; return the client."""
        with FaultyProxy(agent.address, plan=plan, seed=seed) as proxy:
            host, port = proxy.address
            client = RemoteSwitchClient(
                host, port, timeout=5.0,
                retry=RetryPolicy(max_attempts=12, base_delay=0.0,
                                  jitter=0.0),
                sleep=NO_SLEEP)
            with client:
                for _ in range(polls):
                    sketch = client.poll("univmon")
                    assert sketch.total_weight >= 0
            return client

    def test_survives_corrupted_frames(self, agent, tiny_trace):
        """Byte flips anywhere in the stream are caught by the CRC and
        retried — never surfaced as a bogus sketch or a numpy traceback."""
        agent.switch.process_trace(tiny_trace)
        client = self._poll_through(
            agent, FaultPlan(corrupt_chunk=0.10), seed=7)
        assert client.counters["retries"] > 0

    def test_survives_truncated_frames(self, agent, tiny_trace):
        """Frames cut mid-payload surface as short reads and are retried."""
        agent.switch.process_trace(tiny_trace)
        client = self._poll_through(
            agent, FaultPlan(truncate_chunk=0.15), seed=11)
        assert client.counters["retries"] > 0

    def test_survives_mid_stream_resets(self, agent, tiny_trace):
        agent.switch.process_trace(tiny_trace)
        client = self._poll_through(
            agent, FaultPlan(drop_chunk=0.15), seed=13)
        assert client.counters["retries"] > 0

    def test_fail_fast_policy_reports_transport_error(self, agent):
        """With retries disabled, a dropped connection surfaces cleanly."""
        with FaultyProxy(agent.address, plan=FaultPlan(drop_accept=1.0),
                         seed=3) as proxy:
            host, port = proxy.address
            with RemoteSwitchClient(
                    host, port, timeout=5.0,
                    retry=RetryPolicy(max_attempts=1),
                    sleep=NO_SLEEP) as client:
                with pytest.raises(TransportError):
                    client.ping()
