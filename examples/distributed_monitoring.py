#!/usr/bin/env python3
"""Network-wide monitoring across four switches (§5 "Distributed
monitoring").

A star topology's switches each sketch the traffic entering through
them (source-prefix ingress assignment); the controller polls every
switch once and merges the same-seed universal sketches — exact, by
linearity — into one network-wide sketch, then answers network-wide
queries no single switch could.  The merge is the one every fleet uses:
a flat (one-tier) ``HierarchicalCoordinator`` over in-process switches.

Run:  python examples/distributed_monitoring.py
"""

from repro import (
    CardinalityApp,
    EntropyApp,
    HeavyHitterApp,
    NetworkTopology,
    SyntheticTraceConfig,
    UniversalSketch,
    generate_trace,
)
from repro.dataplane.keys import src_ip_key
from repro.dataplane.packet import format_ipv4
from repro.eval.groundtruth import GroundTruth
from repro.network import HierarchicalCoordinator, SimLink, SimulatedSwitch


def main() -> None:
    trace = generate_trace(SyntheticTraceConfig(
        packets=60_000, flows=8_000, zipf_skew=1.1, duration=5.0, seed=17))

    def factory():
        return UniversalSketch(levels=9, rows=5, width=2048, heap_size=64,
                               seed=23)

    topology = NetworkTopology.star(leaves=4)
    switches = {name: SimulatedSwitch(name, factory)
                for name in topology.switches}
    for name, share in topology.ingress_assignment(trace, seed=7).items():
        switches[name].feed(share.key_array(src_ip_key))

    # A flat fleet is a one-tier tree: every switch reports to the root.
    coordinator = HierarchicalCoordinator(
        {name: SimLink(switch) for name, switch in switches.items()},
        factory, fanout=len(switches))
    coordinator.register(CardinalityApp()).register(EntropyApp()) \
               .register(HeavyHitterApp(alpha=0.005))
    report = coordinator.run_epoch()

    print("per-switch load (packets sketched at ingress):")
    for name, switch in sorted(switches.items()):
        print(f"  {name:6s} {switch.fed_total:7d}")

    truth = GroundTruth(trace, src_ip_key)
    print("\nnetwork-wide view from merged sketches:")
    print(f"  total packets     : "
          f"{report['coverage']['packets_covered']} (true {truth.total})")
    print(f"  distinct sources  : {report['cardinality']['distinct']:.0f} "
          f"(true {truth.distinct})")
    print(f"  source entropy    : {report['entropy']['entropy']:.3f} "
          f"(true {truth.entropy():.3f}) bits")

    print("\nnetwork-wide heavy hitters (> 0.5%):")
    true_keys = truth.heavy_hitter_keys(0.005)
    for key, estimate in report["heavy_hitters"]["hitters"]:
        flag = "ok" if key in true_keys else "??"
        print(f"  {format_ipv4(key):15s} est {estimate:8.0f} [{flag}]")


if __name__ == "__main__":
    main()
