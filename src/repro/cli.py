"""Command-line interface: ``univmon <subcommand>``.

Subcommands
-----------
- ``generate`` — write a synthetic trace (CSV or pcap); ``--scenario``
  writes a scenario from the workload library instead.
- ``run`` — monitor a trace with the UnivMon controller and print
  per-epoch reports for the selected tasks.  ``--scenario NAME`` runs a
  library scenario (DDoS ramp, flash crowd, port scan, heavy churn,
  key-space shift, websearch/data-mining mixes) instead of a trace file;
  ``--scenario help`` lists them.
- ``experiment`` — regenerate one of the paper's figures/tables
  (fig4 | fig5 | fig6 | fig7 | overhead | ablation-levels |
  ablation-heap) as a text table (``--plot`` adds an ASCII chart).
- ``agent`` — run a switch agent: replay a trace through a monitored
  switch and serve its sketches over TCP (Figure 2's data plane).
- ``poll`` — poll a running agent once and print the estimates
  (Figure 2's control plane).
- ``coordinate`` — fault-tolerant epoch loop over several running
  agents: retries with backoff, auto-marks unreachable switches failed,
  probes them back, and prints per-epoch coverage.
- ``metrics`` — run a (synthetic or given) trace through the fully
  instrumented stack and export the metrics registry as Prometheus-style
  text or JSON.  ``run`` and ``coordinate`` also take
  ``--metrics-json PATH`` to dump a registry snapshot after the run.
- ``query`` — evaluate an arbitrary batch of statistics
  (``hh:0.005,entropy,moment:1.5,...``) against one sealed sketch — from
  a local trace or polled off a running agent — in a single snapshot
  pass through the vectorised query engine.
- ``detect`` — run the programmable detection pipeline over a trace or
  library scenario: declarative rules (built-in set, or a TOML/JSON spec
  via ``--rules``) evaluated per sealed epoch, with per-rule state
  machines and zoom/key-recovery actions; ``--json`` emits the
  structured detection events.
- ``serve`` — the always-on monitoring service: cycle a trace (or
  scenario) through the epoch pipeline forever, sealing on a wall-clock
  timer, and serve ``/query``, ``/epochs``, ``/events`` (SSE),
  ``/metrics`` and ``/healthz`` over HTTP while ingest keeps running.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro._version import __version__


def _add_generate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("generate", help="generate a synthetic trace")
    p.add_argument("--out", required=True, help="output path (.csv or .pcap)")
    p.add_argument("--scenario", default=None, metavar="NAME",
                   help="generate a named workload scenario instead of "
                        "the plain Zipf trace (see `univmon run "
                        "--scenario help` for the list)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="scenario size multiplier (with --scenario)")
    p.add_argument("--packets", type=int, default=100_000)
    p.add_argument("--flows", type=int, default=10_000)
    p.add_argument("--skew", type=float, default=1.1,
                   help="Zipf exponent of flow sizes")
    p.add_argument("--duration", type=float, default=60.0,
                   help="trace length in seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ddos-at", type=float, default=None, metavar="T",
                   help="inject a DDoS burst starting at T seconds")
    p.add_argument("--ddos-sources", type=int, default=5000)


def _add_run(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="monitor a trace with UnivMon")
    p.add_argument("--trace", default=None,
                   help="input .csv or .pcap trace (or use --scenario)")
    p.add_argument("--scenario", default=None, metavar="NAME",
                   help="monitor a named workload scenario from the "
                        "scenario library instead of a trace file "
                        "(`--scenario help` lists the scenarios)")
    p.add_argument("--seed", type=int, default=0,
                   help="scenario seed (with --scenario)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="scenario size multiplier (with --scenario)")
    p.add_argument("--epoch", type=float, default=5.0,
                   help="polling interval in seconds")
    p.add_argument("--tasks", default="hh,ddos,change,entropy",
                   help="comma list of hh,ddos,change,entropy,cardinality")
    p.add_argument("--alpha", type=float, default=0.005,
                   help="heavy hitter threshold fraction")
    p.add_argument("--ddos-k", type=int, default=5000,
                   help="DDoS distinct-source threshold")
    p.add_argument("--phi", type=float, default=0.05,
                   help="heavy change threshold fraction")
    p.add_argument("--memory-kb", type=int, default=512,
                   help="sketch memory budget per epoch")
    p.add_argument("--key", default="src_ip",
                   choices=["src_ip", "dst_ip", "src_dst", "five_tuple"])
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="shard each epoch's ingest across N worker "
                        "processes (sketch linearity keeps the merge "
                        "exact; 1 = in-process)")
    p.add_argument("--metrics-json", default=None, metavar="PATH",
                   help="collect metrics during the run and write a JSON "
                        "registry snapshot to PATH")


def _add_metrics(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "metrics",
        help="run an instrumented workload and export the metrics registry")
    p.add_argument("--trace", default=None,
                   help="input .csv or .pcap trace (default: a seeded "
                        "synthetic Zipf trace)")
    p.add_argument("--packets", type=int, default=20_000,
                   help="synthetic trace size (ignored with --trace)")
    p.add_argument("--flows", type=int, default=3_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--epoch", type=float, default=5.0)
    p.add_argument("--memory-kb", type=int, default=256)
    p.add_argument("--key", default="src_ip",
                   choices=["src_ip", "dst_ip", "src_dst", "five_tuple"])
    p.add_argument("--format", default="text", choices=["text", "json"],
                   help="exposition format (Prometheus-style text or JSON)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the export to PATH instead of stdout")


def _add_experiment(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("experiment",
                       help="regenerate a figure/table from the paper")
    p.add_argument("name", choices=["fig4", "fig5", "fig6", "fig7",
                                    "overhead", "ablation-levels",
                                    "ablation-heap"])
    p.add_argument("--runs", type=int, default=20,
                   help="independent runs per point (paper: 20)")
    p.add_argument("--quick", action="store_true",
                   help="small workload + 5 runs, for a fast look")
    p.add_argument("--plot", action="store_true",
                   help="render the series as an ASCII chart too")


def _add_agent(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("agent", help="serve a switch's sketches over TCP")
    p.add_argument("--trace", required=True, help="trace to replay")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9099)
    p.add_argument("--epoch", type=float, default=5.0,
                   help="replay pacing: seconds of trace fed per epoch")
    p.add_argument("--memory-kb", type=int, default=512)
    p.add_argument("--speedup", type=float, default=0.0,
                   help="replay pacing: 1 = capture rate, 10 = 10x "
                        "faster, 0 = as fast as possible (default)")


def _add_retry_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--retries", type=int, default=4,
                   help="attempts per call (1 = fail fast)")
    p.add_argument("--retry-delay", type=float, default=0.05,
                   help="base backoff in seconds (doubles per retry)")
    p.add_argument("--retry-seed", type=int, default=0,
                   help="seed for deterministic backoff jitter")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="per-connection socket timeout in seconds")


def _add_poll(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("poll", help="poll a running agent once")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9099)
    p.add_argument("--program", default="univmon")
    p.add_argument("--alpha", type=float, default=0.005)
    _add_retry_options(p)


def _add_coordinate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "coordinate",
        help="fault-tolerant epoch loop over several running agents")
    p.add_argument("--agent", action="append", required=True,
                   dest="agents", metavar="NAME=HOST:PORT",
                   help="a switch agent to poll (repeatable)")
    p.add_argument("--program", default="univmon")
    p.add_argument("--epochs", type=int, default=0,
                   help="epochs to run (0 = until interrupted)")
    p.add_argument("--epoch", type=float, default=5.0,
                   help="seconds between polls")
    p.add_argument("--memory-kb", type=int, default=512,
                   help="sketch geometry (must match the agents')")
    p.add_argument("--alpha", type=float, default=0.005)
    p.add_argument("--fail-after", type=int, default=2,
                   help="consecutive failures before a switch is FAILED")
    p.add_argument("--probe-every", type=int, default=1,
                   help="probe FAILED switches every N epochs")
    p.add_argument("--topology", choices=["flat", "tree"], default="flat",
                   help="flat fan-in (default) or a rack/pod/root "
                        "aggregation tree with re-parenting")
    p.add_argument("--fanout", type=int, default=8,
                   help="children per tree aggregator (tree topology)")
    p.add_argument("--transfer", choices=["raw", "delta"], default="raw",
                   help="uncompressed (raw) or zlib-compressed (delta) "
                        "aggregator uplink frames; agents always send "
                        "compressed full frames")
    p.add_argument("--min-coverage", type=float, default=0.0,
                   help="fraction of switches an epoch must represent")
    p.add_argument("--quorum", type=float, default=0.0,
                   help="fraction of root subtrees that must contribute")
    p.add_argument("--fail-mode", choices=["open", "closed"],
                   default="open",
                   help="publish (open) or withhold (closed) epochs "
                        "violating --min-coverage/--quorum")
    p.add_argument("--metrics-json", default=None, metavar="PATH",
                   help="collect metrics during the run and write a JSON "
                        "registry snapshot to PATH")
    _add_retry_options(p)


def _add_query(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "query",
        help="evaluate a batch of statistics against one sealed sketch")
    p.add_argument("--stats", default="hh,cardinality,l1,entropy,f2",
                   help="comma list of name[:param] specs: hh[:frac], "
                        "cardinality|f0, l1, l2, f2, entropy[:base|e], "
                        "moment:p")
    p.add_argument("--trace", default=None,
                   help="build the sketch locally from this .csv/.pcap "
                        "trace (mutually exclusive with --host)")
    p.add_argument("--host", default=None,
                   help="poll a running switch agent instead")
    p.add_argument("--port", type=int, default=9099)
    p.add_argument("--program", default="univmon")
    p.add_argument("--memory-kb", type=int, default=512,
                   help="sketch memory budget (local --trace mode)")
    p.add_argument("--key", default="src_ip",
                   choices=["src_ip", "dst_ip", "src_dst", "five_tuple"])
    p.add_argument("--json", action="store_true",
                   help="print results as a JSON object")
    _add_retry_options(p)


def _add_detect(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "detect",
        help="run the programmable detection pipeline over a trace")
    p.add_argument("--trace", default=None,
                   help="input .csv or .pcap trace (or use --scenario)")
    p.add_argument("--scenario", default=None, metavar="NAME",
                   help="run a named workload scenario instead of a "
                        "trace file (`--scenario help` lists them)")
    p.add_argument("--seed", type=int, default=0,
                   help="scenario seed (with --scenario)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="scenario size multiplier (with --scenario)")
    p.add_argument("--rules", default=None, metavar="PATH",
                   help="rule spec (.toml or .json with a [[rules]] "
                        "list); default: the built-in rule set")
    p.add_argument("--epoch", type=float, default=5.0,
                   help="polling interval in seconds")
    p.add_argument("--memory-kb", type=int, default=256,
                   help="sketch memory budget per epoch")
    p.add_argument("--key", default="src_ip",
                   choices=["src_ip", "dst_ip", "src_dst", "five_tuple"])
    p.add_argument("--recover-fraction", type=float, default=0.08,
                   help="key-recovery threshold as a share of epoch "
                        "packets")
    p.add_argument("--json", action="store_true",
                   help="print the run as one JSON object (per-epoch "
                        "states + structured detection events)")
    p.add_argument("--metrics-json", default=None, metavar="PATH",
                   help="collect metrics during the run and write a JSON "
                        "registry snapshot to PATH")


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve",
        help="run the always-on monitoring service over HTTP")
    p.add_argument("--trace", default=None,
                   help="trace to cycle through the service (or use "
                        "--scenario)")
    p.add_argument("--scenario", default=None, metavar="NAME",
                   help="cycle a named workload scenario instead of a "
                        "trace file (`--scenario help` lists them)")
    p.add_argument("--seed", type=int, default=0,
                   help="scenario seed (with --scenario)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="scenario size multiplier (with --scenario)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9600,
                   help="HTTP port (0 = pick an ephemeral port)")
    p.add_argument("--epoch", type=float, default=1.0,
                   help="wall-clock sealing interval in seconds")
    p.add_argument("--epochs", type=int, default=0, metavar="N",
                   help="seal N epochs then exit (0 = run until "
                        "interrupted)")
    p.add_argument("--ring", type=int, default=8, metavar="DEPTH",
                   help="published epochs kept for /epochs and /query")
    p.add_argument("--memo", type=int, default=128, metavar="ENTRIES",
                   help="query-result memo capacity")
    p.add_argument("--memory-kb", type=int, default=512,
                   help="sketch memory budget per epoch")
    p.add_argument("--key", default="src_ip",
                   choices=["src_ip", "dst_ip", "src_dst", "five_tuple"])
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="shard ingest across N worker processes")
    p.add_argument("--chunk-size", type=int, default=4096,
                   help="packets per ingest chunk")
    p.add_argument("--pace", type=float, default=0.0, metavar="SECONDS",
                   help="sleep between chunks (0 = ingest at max rate)")
    p.add_argument("--detect", action="store_true",
                   help="run the detection pipeline (built-in rules) "
                        "and stream its events over /events")
    p.add_argument("--rules", default=None, metavar="PATH",
                   help="detection rule spec (.toml/.json); implies "
                        "--detect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="univmon",
        description="UnivMon universal-streaming monitoring (HotNets'15 "
                    "reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"univmon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_run(sub)
    _add_experiment(sub)
    _add_agent(sub)
    _add_poll(sub)
    _add_coordinate(sub)
    _add_metrics(sub)
    _add_query(sub)
    _add_detect(sub)
    _add_serve(sub)
    return parser


# --------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------- #

def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.dataplane.csvtrace import save_csv
    from repro.dataplane.pcap import save_pcap
    from repro.dataplane.trace import (DDoSEvent, SyntheticTraceConfig,
                                       generate_trace)

    if args.scenario is not None:
        scenario, code = _scenario_or_exit_code(args.scenario, args.seed,
                                                args.scale)
        if scenario is None:
            return code
        trace = scenario.trace
    else:
        events = ()
        if args.ddos_at is not None:
            events = (DDoSEvent(start=args.ddos_at,
                                end=min(args.ddos_at + 5.0, args.duration),
                                num_sources=args.ddos_sources),)
        config = SyntheticTraceConfig(
            packets=args.packets, flows=args.flows, zipf_skew=args.skew,
            duration=args.duration, seed=args.seed, ddos_events=events)
        trace = generate_trace(config)
    if args.out.endswith(".pcap"):
        save_pcap(trace, args.out)
    else:
        save_csv(trace, args.out)
    print(f"wrote {len(trace)} packets ({trace.duration:.1f}s) to {args.out}")
    return 0


def _load_trace(path: str):
    from repro.dataplane.csvtrace import load_csv
    from repro.dataplane.pcap import load_pcap
    if path.endswith(".pcap"):
        return load_pcap(path)
    return load_csv(path)


def _scenario_or_exit_code(name: str, seed: int, scale: float):
    """Build a library scenario; returns ``(scenario, exit_code)`` where
    the scenario is None for ``help`` listings (code 0) and unknown
    names (code 2)."""
    from repro.errors import ConfigurationError
    from repro.dataplane.scenarios import SCENARIOS, make_scenario

    if name in ("help", "list"):
        for spec in sorted(SCENARIOS.values(), key=lambda s: s.name):
            print(f"  {spec.name:16s} {spec.description}")
        return None, 0
    try:
        return make_scenario(name, seed=seed, scale=scale), 0
    except ConfigurationError as exc:
        print(f"{exc}", file=sys.stderr)
        return None, 2


def _input_trace(args: argparse.Namespace, command: str,
                 announce: bool = True):
    """The trace named by exactly one of ``--trace`` / ``--scenario``.

    Returns ``(trace, exit_code)``; the trace is None when the command
    should exit with ``exit_code`` instead (no or both inputs, a
    scenario listing, an unknown scenario).  ``announce`` prints the
    scenario's one-line summary.
    """
    if (args.trace is None) == (args.scenario is None):
        print(f"{command} needs exactly one input: --trace PATH or "
              "--scenario NAME", file=sys.stderr)
        return None, 2
    if args.scenario is None:
        return _load_trace(args.trace), 0
    scenario, code = _scenario_or_exit_code(args.scenario, args.seed,
                                            args.scale)
    if scenario is None:
        return None, code
    trace = scenario.trace
    if announce:
        print(f"scenario {scenario.name!r} (seed {scenario.seed}): "
              f"{len(trace)} packets over {scenario.n_epochs} "
              f"{scenario.epoch_seconds:.0f}s epochs — "
              f"{scenario.description}")
    return trace, 0


def _sketch_factory(memory_kb: int):
    """The CLI's universal-sketch geometry at a ``--memory-kb`` budget."""
    from repro.core.universal import UniversalSketch

    budget = memory_kb * 1024
    return lambda: UniversalSketch.for_memory_budget(
        budget, levels=12, rows=5, heap_size=64, seed=1)


def _with_metrics_json(path: Optional[str], command) -> int:
    """Run ``command()`` under a fresh global registry, dumping JSON.

    With no path the command runs against whatever registry is already
    installed (the no-op default: zero instrumentation cost).
    """
    if path is None:
        return command()
    from repro.obs import MetricsRegistry, to_json, use_registry
    with use_registry(MetricsRegistry()) as registry:
        code = command()
        with open(path, "w") as out:
            out.write(to_json(registry))
    print(f"wrote metrics snapshot to {path}")
    return code


def _cmd_run(args: argparse.Namespace) -> int:
    return _with_metrics_json(args.metrics_json, lambda: _run_monitor(args))


def _run_monitor(args: argparse.Namespace) -> int:
    from repro.controlplane import (CardinalityApp, ChangeDetectionApp,
                                    Controller, DDoSApp, EntropyApp,
                                    HeavyHitterApp)
    from repro.dataplane.keys import KEY_FUNCTIONS

    trace, code = _input_trace(args, "run")
    if trace is None:
        return code
    key_function = KEY_FUNCTIONS[args.key]
    controller = Controller(sketch_factory=_sketch_factory(args.memory_kb),
                            key_function=key_function,
                            epoch_seconds=args.epoch,
                            workers=args.workers)
    tasks = [t.strip() for t in args.tasks.split(",") if t.strip()]
    for task in tasks:
        if task == "hh":
            controller.register(HeavyHitterApp(alpha=args.alpha))
        elif task == "ddos":
            controller.register(DDoSApp(threshold_k=args.ddos_k))
        elif task == "change":
            controller.register(ChangeDetectionApp(phi=args.phi))
        elif task == "entropy":
            controller.register(EntropyApp())
        elif task == "cardinality":
            controller.register(CardinalityApp())
        else:
            print(f"unknown task {task!r}", file=sys.stderr)
            return 2

    show_ip = key_function.reversible and args.key in ("src_ip", "dst_ip")
    try:
        _print_reports(controller.run_trace(trace), show_ip)
    finally:
        controller.close()  # release the shard worker pool, if any
    return 0


def _print_reports(reports, show_ip: bool) -> None:
    from repro.dataplane.packet import format_ipv4
    for report in reports:
        print(f"epoch {report.epoch_index} "
              f"[{report.start_time:.1f}s, {report.end_time:.1f}s] "
              f"{report.packets} pkts")
        for name, result in report.results.items():
            if name == "heavy_hitters":
                rendered = ", ".join(
                    (format_ipv4(k) if show_ip else str(k))
                    + f"={w:.0f}" for k, w in result["hitters"][:8])
                print(f"  heavy_hitters(alpha={result['alpha']}): "
                      f"{rendered or '(none)'}")
            elif name == "ddos":
                print(f"  ddos: distinct={result['distinct_sources']:.0f} "
                      f"k={result['threshold_k']} "
                      f"victim={result['victim']}")
            elif name == "change":
                rendered = ", ".join(
                    (format_ipv4(k) if show_ip else str(k))
                    + f"={w:+.0f}" for k, w in result["changes"][:8])
                print(f"  change(phi={result.get('phi', '-')}): "
                      f"D={result['total_change']:.0f} "
                      f"{rendered or '(none)'}")
            elif name == "entropy":
                print(f"  entropy: {result['entropy']:.3f} bits")
            elif name == "cardinality":
                print(f"  cardinality: {result['distinct']:.0f}")


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.eval import experiments as exp
    from repro.eval.asciichart import chart_sweep
    from repro.eval.runner import format_table

    runs = 5 if args.quick else args.runs
    workload = exp.WorkloadSpec(packets=10_000, flows=2_000) if args.quick \
        else exp.DEFAULT_WORKLOAD
    memory = (32, 128, 1024) if args.quick else exp.DEFAULT_MEMORY_KB

    def emit(points, metrics, title, x_label="memory_kb", log_x=True):
        print(format_table(points, metrics, x_label=x_label, title=title))
        if args.plot:
            print()
            print(chart_sweep(points, metrics, x_label=x_label,
                              title=title, log_x=log_x))

    if args.name == "fig4":
        points = exp.fig4_heavy_hitters(memory, runs=runs, workload=workload)
        emit(points, ["univmon_fp", "univmon_fn",
                      "opensketch_fp", "opensketch_fn"],
             "Figure 4 — heavy hitters (alpha=0.5%)")
    elif args.name == "fig5":
        points = exp.fig5_ddos(memory, runs=runs, workload=workload)
        emit(points, ["univmon_err", "opensketch_err",
                      "univmon_detect_err", "opensketch_detect_err"],
             "Figure 5 — DDoS (distinct sources)")
    elif args.name == "fig6":
        points = exp.fig6_change_detection(memory, runs=runs,
                                           workload=workload)
        emit(points, ["univmon_fp", "univmon_fn",
                      "opensketch_fp", "opensketch_fn"],
             "Figure 6 — change detection")
    elif args.name == "fig7":
        points = exp.fig7_entropy(memory, runs=runs, workload=workload)
        emit(points, ["univmon_err", "sampling_err"],
             "Figure 7 — entropy estimation")
    elif args.name == "overhead":
        result = exp.overhead_cycles(workload=workload,
                                     epochs=3 if args.quick else 12)
        print("Overhead (modelled cycles, Intel-PCM substitute)")
        print(f"  packets processed:        {result.packets}")
        print(f"  UnivMon (all tasks):      {result.univmon_cycles:.3e}")
        print(f"  OpenSketch suite:         "
              f"{result.opensketch_suite_cycles:.3e}")
        for task, cycles in result.opensketch_per_task_cycles.items():
            print(f"    {task:8s}                {cycles:.3e}")
        print(f"  ratio (UnivMon/suite):    {result.ratio:.2f} "
              f"(paper: 1.407e9/2.941e9 = 0.48)")
    elif args.name == "ablation-levels":
        points = exp.ablation_levels(runs=runs, workload=workload)
        emit(points, ["f0_err", "entropy_err"],
             "Ablation — sampling levels", x_label="levels", log_x=False)
    elif args.name == "ablation-heap":
        points = exp.ablation_heap_size(runs=runs, workload=workload)
        emit(points, ["f0_err", "entropy_err"],
             "Ablation — per-level top-k size", x_label="heap_size",
             log_x=False)
    return 0


def _cmd_agent(args: argparse.Namespace) -> int:
    import time

    from repro.controlplane.rpc import SwitchAgent
    from repro.dataplane.keys import src_ip_key
    from repro.dataplane.switch import MonitoredSwitch

    trace = _load_trace(args.trace)
    switch = MonitoredSwitch("agent")
    switch.attach("univmon", _sketch_factory(args.memory_kb), src_ip_key)
    agent = SwitchAgent(switch, host=args.host, port=args.port).start()
    host, port = agent.address
    print(f"switch agent on {host}:{port}; replaying "
          f"{len(trace)} packets in {args.epoch:.0f}s epochs "
          f"(poll with: univmon poll --host {host} --port {port})")
    try:
        from repro.dataplane.replay import TraceReplayer
        replayer = TraceReplayer(trace, speedup=args.speedup,
                                 chunk_seconds=args.epoch)

        def feed(chunk):
            switch.process_trace(chunk)
            print(f"  fed {len(chunk)} packets "
                  f"(total {switch.packets_seen})")

        replayer.run(feed)
        if replayer.max_lag > 0:
            print(f"  (replay lagged the schedule by up to "
                  f"{replayer.max_lag:.2f}s)")
        print("trace exhausted; serving until interrupted (ctrl-c)")
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        agent.stop()
    return 0


def _retry_policy(args: argparse.Namespace):
    from repro.controlplane.rpc import RetryPolicy
    return RetryPolicy(max_attempts=args.retries,
                       base_delay=args.retry_delay, seed=args.retry_seed)


def _cmd_poll(args: argparse.Namespace) -> int:
    from repro.controlplane.rpc import RemoteSwitchClient
    from repro.core.gsum import estimate_cardinality, estimate_entropy, g_core
    from repro.dataplane.packet import format_ipv4

    with RemoteSwitchClient(args.host, args.port, timeout=args.timeout,
                            retry=_retry_policy(args)) as client:
        stats = client.stats()
        sketch = client.poll(args.program)
    print(f"agent stats: {stats}")
    print(f"sealed epoch: {sketch.total_weight} packets, "
          f"{sketch.memory_bytes() / 1024:.0f} KB sketch")
    print(f"  distinct sources : {estimate_cardinality(sketch):.0f}")
    print(f"  entropy          : {estimate_entropy(sketch):.3f} bits")
    hitters = g_core(sketch, args.alpha)
    rendered = ", ".join(f"{format_ipv4(int(k))}={w:.0f}"
                         for k, w in hitters[:8])
    print(f"  heavy hitters    : {rendered or '(none)'}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry, to_json, to_text, use_registry
    from repro.controlplane import (CardinalityApp, EntropyApp,
                                    HeavyHitterApp)
    from repro.controlplane.controller import Controller
    from repro.dataplane.keys import KEY_FUNCTIONS
    from repro.dataplane.trace import SyntheticTraceConfig, generate_trace

    if args.trace is not None:
        trace = _load_trace(args.trace)
    else:
        trace = generate_trace(SyntheticTraceConfig(
            packets=args.packets, flows=args.flows, duration=args.duration,
            seed=args.seed))
    registry = MetricsRegistry()
    with use_registry(registry):
        controller = Controller(sketch_factory=_sketch_factory(args.memory_kb),
                                key_function=KEY_FUNCTIONS[args.key],
                                epoch_seconds=args.epoch)
        controller.register(HeavyHitterApp(alpha=0.005)) \
                  .register(EntropyApp()).register(CardinalityApp())
        controller.run_trace(trace)
    rendered = to_json(registry) if args.format == "json" \
        else to_text(registry)
    if args.out:
        with open(args.out, "w") as out:
            out.write(rendered)
        print(f"wrote {args.format} metrics export to {args.out}")
    else:
        print(rendered, end="")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ReproError
    from repro.core.query import QueryEngine, Statistic
    from repro.dataplane.packet import format_ipv4

    if (args.trace is None) == (args.host is None):
        print("query needs exactly one sketch source: --trace PATH or "
              "--host HOST", file=sys.stderr)
        return 2
    try:
        stats = [Statistic.parse(spec)
                 for spec in args.stats.split(",") if spec.strip()]
    except ReproError as exc:
        print(f"bad --stats: {exc}", file=sys.stderr)
        return 2
    if not stats:
        print("bad --stats: no statistics given", file=sys.stderr)
        return 2

    if args.trace is not None:
        from repro.dataplane.keys import KEY_FUNCTIONS
        from repro.dataplane.switch import MonitoredSwitch

        trace = _load_trace(args.trace)
        switch = MonitoredSwitch("query")
        switch.attach("univmon", _sketch_factory(args.memory_kb),
                      KEY_FUNCTIONS[args.key])
        switch.process_trace(trace)
        sketch = switch.poll("univmon")
        show_ip = args.key in ("src_ip", "dst_ip")
    else:
        from repro.controlplane.rpc import RemoteSwitchClient

        with RemoteSwitchClient(args.host, args.port, timeout=args.timeout,
                                retry=_retry_policy(args)) as client:
            sketch = client.poll(args.program)
        show_ip = True

    try:
        results = QueryEngine(sketch).evaluate_many(stats)
    except ReproError as exc:  # e.g. a g outside Stream-PolyLog
        print(f"bad --stats: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = {
            "packets": sketch.total_weight,
            "memory_kb": sketch.memory_bytes() / 1024,
            "results": {name: value for name, value in results.items()},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(f"sealed sketch: {sketch.total_weight} packets, "
          f"{sketch.memory_bytes() / 1024:.0f} KB")
    for name, value in results.items():
        if isinstance(value, list):
            rendered = ", ".join(
                (format_ipv4(int(k)) if show_ip else str(int(k)))
                + f"={w:.0f}" for k, w in value[:8])
            print(f"  {name:14s}: {rendered or '(none)'}")
        else:
            print(f"  {name:14s}: {value:.4f}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    return _with_metrics_json(args.metrics_json,
                              lambda: _detect_monitor(args))


def _detect_monitor(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ConfigurationError
    from repro.controlplane.controller import Controller
    from repro.dataplane.keys import KEY_FUNCTIONS
    from repro.dataplane.packet import format_ipv4
    from repro.detect import DetectionPipeline, default_rules, load_rules

    trace, code = _input_trace(args, "detect", announce=not args.json)
    if trace is None:
        return code
    try:
        rules = load_rules(args.rules) if args.rules is not None \
            else default_rules()
        pipeline = DetectionPipeline(
            rules, recover_fraction=args.recover_fraction)
    except (ConfigurationError, OSError, ValueError) as exc:
        print(f"bad rules: {exc}", file=sys.stderr)
        return 2
    controller = Controller(sketch_factory=_sketch_factory(args.memory_kb),
                            key_function=KEY_FUNCTIONS[args.key],
                            epoch_seconds=args.epoch)
    controller.register(pipeline)
    try:
        reports = controller.run_trace(trace)
    finally:
        controller.close()

    if args.json:
        payload = {
            "rules": [{"name": r.name, "when": r.when,
                       "confirm_epochs": r.confirm_epochs,
                       "cooldown_epochs": r.cooldown_epochs,
                       "actions": list(r.actions)} for r in rules],
            "epochs": [{"epoch": rep.epoch_index,
                        "packets": rep.packets,
                        "states": rep["detect"]["states"],
                        "alerting": rep["detect"]["alerting"]}
                       for rep in reports],
            "events": [event.to_dict() for event in pipeline.events],
            "final_states": {name: state.value for name, state
                             in pipeline.states().items()},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    for rep in reports:
        result = rep["detect"]
        states = " ".join(f"{name}={state}" for name, state
                          in sorted(result["states"].items()))
        print(f"epoch {rep.epoch_index} ({rep.packets} pkts): {states}")
        for event in result["events"]:
            if event["from"] != event["to"]:
                print(f"  {event['rule']}: {event['from']} -> "
                      f"{event['to']} [{event['condition']}]")
            for rec in event["recovered_keys"][:8]:
                print(f"    recovered {rec['feature']}/{rec['stream']}: "
                      f"{format_ipv4(rec['key'])} "
                      f"(~{rec['estimate']:.0f} pkts)")
            if event["zoom_regions"]:
                regions = ", ".join(
                    f"{format_ipv4(value)}/{plen}"
                    for value, plen in event["zoom_regions"][:6])
                print(f"    zoomed: {regions}")
    alerted = sorted({event.rule for event in pipeline.events
                      if event.state_to == "confirmed"})
    print(f"rules confirmed during the run: "
          f"{', '.join(alerted) or '(none)'}")
    return 0


def _cmd_coordinate(args: argparse.Namespace) -> int:
    return _with_metrics_json(args.metrics_json,
                              lambda: _coordinate_loop(args))


def _coordinate_loop(args: argparse.Namespace) -> int:
    import dataclasses
    import time

    from repro.controlplane.apps.cardinality import CardinalityApp
    from repro.controlplane.apps.entropy import EntropyApp
    from repro.controlplane.apps.heavy_hitters import HeavyHitterApp
    from repro.controlplane.rpc import RemoteSwitchClient
    from repro.network.health import HealthTracker
    from repro.network.hierarchy import (
        AgentLink, HierarchicalCoordinator, ResiliencePolicy)

    agents = {}
    for spec in args.agents:
        name, sep, addr = spec.partition("=")
        host, sep2, port = addr.rpartition(":")
        if not sep or not sep2 or not name:
            print(f"bad --agent {spec!r} (want NAME=HOST:PORT)",
                  file=sys.stderr)
            return 2
        agents[name] = (host, int(port))

    retry = _retry_policy(args)
    health = HealthTracker(agents, suspect_after=1,
                           fail_after=args.fail_after,
                           probe_every=args.probe_every,
                           probe_policy=retry)
    clients = {
        name: RemoteSwitchClient(
            host, port, timeout=args.timeout,
            retry=dataclasses.replace(retry, seed=retry.seed + index))
        for index, (name, (host, port)) in enumerate(agents.items())}
    # A flat fleet is a one-tier tree: every agent reports to the root.
    fanout = args.fanout if args.topology == "tree" \
        else max(2, len(agents))
    coordinator = HierarchicalCoordinator(
        {name: AgentLink(client, program=args.program)
         for name, client in clients.items()},
        sketch_factory=_sketch_factory(args.memory_kb), fanout=fanout,
        health=health, transfer=args.transfer,
        policy=ResiliencePolicy(min_coverage=args.min_coverage,
                                quorum=args.quorum,
                                fail_open=args.fail_mode == "open"))
    print(f"coordinating {len(agents)} agent(s) over "
          f"{coordinator.plan.describe()}")
    coordinator.register(CardinalityApp()).register(EntropyApp()) \
               .register(HeavyHitterApp(alpha=args.alpha))
    try:
        epoch = 0
        while args.epochs <= 0 or epoch < args.epochs:
            report = coordinator.run_epoch()
            cov = report["coverage"]
            line = (f"epoch {report.epoch_index}: "
                    f"{cov['switches_covered']}/{cov['switches_total']} "
                    f"switches, {cov['packets_covered']} packets, "
                    f"status={cov['status']}")
            if cov["bytes_wire"]:
                line += f", wire={cov['bytes_wire']}B"
            if cov["failed"]:
                line += f", failed={','.join(cov['failed'])}"
            if cov["recovered"]:
                line += f", recovered={','.join(cov['recovered'])}"
            if cov["retries"]:
                line += f", retries={cov['retries']}"
            if "cardinality" in report.results:
                line += (f" | distinct="
                         f"{report['cardinality']['distinct']:.0f}"
                         f" entropy={report['entropy']['entropy']:.3f}")
            print(line)
            epoch += 1
            if args.epochs <= 0 or epoch < args.epochs:
                time.sleep(args.epoch)
    except KeyboardInterrupt:
        pass
    finally:
        for client in clients.values():
            client.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.errors import ConfigurationError
    from repro.obs import MetricsRegistry, use_registry
    from repro.dataplane.keys import KEY_FUNCTIONS
    from repro.service import MonitoringService, ServiceConfig

    trace, code = _input_trace(args, "serve", announce=False)
    if trace is None:
        return code

    apps = []
    if args.detect or args.rules is not None:
        from repro.detect import DetectionPipeline, default_rules, load_rules
        try:
            rules = load_rules(args.rules) if args.rules is not None \
                else default_rules()
            apps.append(DetectionPipeline(rules))
        except (ConfigurationError, OSError, ValueError) as exc:
            print(f"bad rules: {exc}", file=sys.stderr)
            return 2

    try:
        config = ServiceConfig(
            host=args.host, port=args.port, epoch_seconds=args.epoch,
            ring_depth=args.ring, memo_size=args.memo,
            chunk_size=args.chunk_size, chunk_sleep=args.pace,
            max_epochs=args.epochs if args.epochs > 0 else None)
    except ConfigurationError as exc:
        print(f"{exc}", file=sys.stderr)
        return 2

    # The service serves /metrics, so it always runs instrumented.
    with use_registry(MetricsRegistry()):
        service = MonitoringService.from_trace(
            trace, config, sketch_factory=_sketch_factory(args.memory_kb),
            key_function=KEY_FUNCTIONS[args.key], workers=args.workers,
            apps=apps)
        try:
            service.start()
        except OSError as exc:
            print(f"cannot bind {args.host}:{args.port}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"univmon service on http://{args.host}:{service.port} — "
              f"{args.epoch:g}s epochs, ring depth {args.ring}"
              + (f", {args.epochs} epochs then exit" if args.epochs
                 else " (ctrl-c to stop)"),
              flush=True)
        try:
            if config.max_epochs is not None:
                service.wait()
            else:
                while service.ingest.is_alive():
                    time.sleep(0.5)
        except KeyboardInterrupt:
            pass
        finally:
            service.stop()
        health = service.health()
        print(f"service stopped: {health['epochs_sealed']} epochs, "
              f"{health['packets_ingested']} packets ingested")
        return 0 if service.ingest.error is None else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "agent":
        return _cmd_agent(args)
    if args.command == "poll":
        return _cmd_poll(args)
    if args.command == "coordinate":
        return _cmd_coordinate(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "detect":
        return _cmd_detect(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
