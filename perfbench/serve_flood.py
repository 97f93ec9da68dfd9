"""Workload ``serve-flood``: the always-on service under an open query loop.

The benchmark writes a ``port_scan`` trace (a spoofed horizontal scan:
about half of every 4096-packet chunk is distinct sources) and runs
``univmon serve`` on it in a child process (``serve_child.py``) with
``--detect``, 1 s epochs and 4096-packet chunks.  The service cycles the
trace forever.  One SSE ``/events`` subscriber stays open throughout, and
a single-threaded generator sends an open loop of ``POST /query`` at a
fixed mean rate (seeded Poisson arrivals), one connection at a time.  Each request is timed from when
it was due; the generator records how late it sent each request beyond
waiting for the previous response, and a run whose generator fell
behind by more than ``MAX_GENERATOR_LAG_MS`` is rejected.

The request mix: repeated default batches (the memo answers them),
batches with a varying ``hh:phi`` and ``moment:p`` (memo misses), and
batches naming a recent past epoch.

Correctness: every response is a complete 200 holding every requested
statistic as a finite number; latest-epoch answers never go back in
epoch index; past-epoch answers are for the epoch asked and agree with
its SSE event.  At stop: the published epochs are 0..E-1, their packets
sum to ``packets_ingested``, and the SSE stream delivered every one of
them, with the same packet counts, except possibly the final epoch
sealed during shutdown.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from common import (WORK_DIR, Outcome, RunRejected, f1, median, percentile,
                    relerr, vm_hwm_mib)
from hostspeed import HostClock, speed_of

SCENARIO = "port_scan"
SCALE = 0.5
RATE = 50.0                  # mean requests per second, open loop
# Reported tail percentile of query latency.  Not p99: on a slow host a
# single stall of the whole machine delays ~15 requests, as many as lie
# beyond p99 at 1500 requests, and set p99 to 90 ms in one of ten runs
# (the others 6-11 ms).  p99 is still printed with every run.
TAIL_Q = 95.0
MAX_GENERATOR_LAG_MS = 50.0  # reject the run beyond this p99 own lag
REQUEST_TIMEOUT_S = 5.0
SETUP_REPEATS = 3
INGEST_ROOT = "controller.ingest"   # where a chunk enters the sketch
TRACED_IN_CHILD = True              # serve_child.py records the spans
#: Metric -> power of the host speed it is scaled by (hostspeed.py).
#: The query latencies and the peak RSS take the log-log slopes measured
#: against host speed across 53 runs at host speeds 0.53-1.51 (rounded):
#: median -1.18, p99 -0.50 (a request in the tail waits for the
#: interpreter lock, which the ingest thread hands over every 5 ms, the
#: switch interval, whatever the host's speed), peak RSS +0.24 (the
#: service seals on a 1 s timer, so a faster host ingests, buffers and
#: concatenates more packets per epoch).  ``ingest_pps``'s was +1.04.
#: The reported tail (p95) waits the same way and takes p99's power.
HOST_SCALED = {"setup_s": 1, "ingest_pps": -1, "latency_p50_ms": 1.2,
               "latency_tail_ms": 0.5, "peak_rss_mb": -0.25}
LABELS = {"latency_p50_ms": "query_p50_ms", "latency_tail_ms": "query_p95_ms",
          "ingest_pps": "ingest_pps (service, queries live)",
          "peak_rss_mb": "peak_rss_mb (service child VmHWM)"}
RING = 64                    # holds every epoch of a run for the ledger
MIX = (("default", 0.5), ("vary", 0.3), ("past", 0.2))
DEFAULT_SPECS = ["cardinality", "entropy", "l1", "f2"]
PAST_SPECS = ["cardinality", "entropy", "hh:0.005"]

HERE = os.path.dirname(os.path.abspath(__file__))
BANNER = re.compile(r"univmon service on http://([\d.]+):(\d+)")
STOPPED = re.compile(r"service stopped: (\d+) epochs, (\d+) packets")


class ResponseError(Exception):
    """A response that is not a complete, well-formed HTTP answer."""


# ---------------------------------------------------------------------- #
# HTTP client (one short connection per request, like the service)
# ---------------------------------------------------------------------- #

def http_exchange(host: str, port: int, method: str, path: str,
                  body: Optional[bytes] = None) -> bytes:
    """Send one request and return the raw response bytes."""
    head = [f"{method} {path} HTTP/1.1", f"Host: {host}",
            "Connection: close"]
    if body is not None:
        head += ["Content-Type: application/json",
                 f"Content-Length: {len(body)}"]
    data = ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + (body or b"")
    with socket.create_connection((host, port),
                                  timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall(data)
        parts = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            parts.append(chunk)
    return b"".join(parts)


def parse_response(raw: bytes):
    """``(status, payload)`` of a complete JSON response; raises
    :class:`ResponseError` on a truncated or malformed one."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        raise ResponseError("no header terminator")
    lines = head.decode("latin-1").split("\r\n")
    try:
        status = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ResponseError(f"bad status line {lines[0]!r}") from None
    length = None
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    if length is None or len(body) != length:
        raise ResponseError(f"body is {len(body)} bytes, "
                            f"Content-Length {length}")
    try:
        return status, json.loads(body.decode("utf-8"))
    except ValueError:
        raise ResponseError("body is not JSON") from None


def _finite(value) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, list):  # heavy hitters: [[key, weight], ...]
        return all(isinstance(pair, list) and len(pair) == 2
                   and _finite(pair[1]) for pair in value)
    return False


def check_response(out: Outcome, raw: bytes, request: dict,
                   state: dict) -> Optional[dict]:
    """Check one /query answer; one checked operation.  ``state`` keeps
    the last latest-epoch index and the SSE events seen so far."""
    try:
        status, payload = parse_response(raw)
    except ResponseError as exc:
        out.check(False, f"request {request['id']}: {exc}")
        return None
    problems = []
    if status != 200:
        problems.append(f"status {status}: {payload}")
    else:
        results = payload.get("results", {})
        if len(results) != len(request["specs"]) \
                or not all(_finite(v) for v in results.values()):
            problems.append(f"results {sorted(results)} for "
                            f"{request['specs']}")
        epoch = payload.get("epoch")
        if request["epoch"] is None:
            if epoch is None or epoch < state["latest"]:
                problems.append(f"latest epoch went {state['latest']} -> "
                                f"{epoch}")
            else:
                state["latest"] = epoch
        else:
            event = state["events"].get(request["epoch"])
            if epoch != request["epoch"]:
                problems.append(f"asked epoch {request['epoch']}, got "
                                f"{epoch}")
            elif event is not None and event["packets"] != \
                    payload.get("packets"):
                problems.append(f"epoch {epoch} packets "
                                f"{payload.get('packets')} vs SSE "
                                f"{event['packets']}")
    out.check(not problems, f"request {request['id']}: "
              + "; ".join(problems))
    return payload if not problems else None


# ---------------------------------------------------------------------- #
# the SSE subscriber (the generator's second thread and connection)
# ---------------------------------------------------------------------- #

class EventStream(threading.Thread):
    """Reads ``GET /events`` until the service closes it."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(name="bench-sse", daemon=True)
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.sock.sendall(f"GET /events HTTP/1.1\r\nHost: {host}\r\n\r\n"
                          .encode("ascii"))
        self.epochs: Dict[int, dict] = {}
        self.order: List[int] = []
        self.latest = 0  # index of the newest epoch event
        self.detections = 0
        self.first_epoch = threading.Event()
        self.error: Optional[str] = None

    def run(self) -> None:
        buffer = b""
        try:
            while True:
                chunk = self.sock.recv(65536)
                if not chunk:
                    break
                buffer += chunk
                while b"\n\n" in buffer:
                    block, buffer = buffer.split(b"\n\n", 1)
                    self._handle(block.decode("utf-8", "replace"))
        except OSError as exc:
            self.error = repr(exc)
        finally:
            self.first_epoch.set()
            self.sock.close()

    def _handle(self, block: str) -> None:
        for line in block.splitlines():
            if not line.startswith("data: "):
                continue
            event = json.loads(line[len("data: "):])
            if event.get("type") == "epoch":
                index = event["epoch"]
                self.epochs[index] = event
                self.order.append(index)
                self.latest = max(self.latest, index)
                self.first_epoch.set()
            elif event.get("type") == "detection":
                self.detections += 1


# ---------------------------------------------------------------------- #
# the child service
# ---------------------------------------------------------------------- #

def write_trace(seed: int, path: str) -> None:
    from repro.dataplane.csvtrace import save_csv
    from repro.dataplane.scenarios import make_scenario
    save_csv(make_scenario(SCENARIO, seed=seed, scale=SCALE).trace, path)


class Child:
    """``univmon serve`` in a child process, plus its event stream."""

    def __init__(self, trace_path: str, spans_path: Optional[str],
                 log_path: str) -> None:
        cmd = [sys.executable, os.path.join(HERE, "serve_child.py")]
        if spans_path:
            cmd += ["--spans", spans_path]
        cmd += ["--", "serve", "--trace", trace_path, "--port", "0",
                "--epoch", "1", "--chunk-size", "4096", "--detect",
                "--ring", str(RING), "--workers", "1"]
        self.log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        self.stream: Optional[EventStream] = None
        self.host = "127.0.0.1"
        self.port = 0
        try:
            line = self.proc.stdout.readline()
            match = BANNER.search(line)
            if match is None:
                raise RuntimeError(f"service did not start: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            self.stream = EventStream(self.host, self.port)
            self.stream.start()
        except BaseException:
            self.kill()
            raise

    def wait_first_epoch(self) -> None:
        if not self.stream.first_epoch.wait(60.0) or not self.stream.epochs:
            self.kill()
            raise RuntimeError("no epoch published within 60 s")

    def stop(self) -> str:
        """SIGINT (graceful stop) and wait; returns the child's stdout."""
        self.proc.send_signal(signal.SIGINT)
        try:
            stdout, _ = self.proc.communicate(timeout=60.0)
        except BaseException:  # includes the run's watchdog
            self.kill()
            raise
        if self.stream is not None:
            self.stream.join(10.0)
        self.log.close()
        return stdout

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
        if self.stream is not None:
            self.stream.join(10.0)
        self.log.close()


def start(seed: int, trace_path: str, spans_path: Optional[str],
          log_path: str) -> tuple:
    """One set-up: write the trace, start the service and subscribe to
    its events.  Returns ``(child, seconds)`` once the service has
    published its first epoch.  That wait is not set-up time: it is the
    1 s epoch interval of the command line whatever the host's speed."""
    t0 = time.perf_counter()
    write_trace(seed, trace_path)
    child = Child(trace_path, spans_path, log_path)
    took = time.perf_counter() - t0
    child.wait_first_epoch()
    return child, took


# ---------------------------------------------------------------------- #
# the open loop
# ---------------------------------------------------------------------- #

def plan_requests(seed: int, seconds: float) -> List[dict]:
    """The seeded request schedule: Poisson arrivals at ``RATE`` per
    second (fixed-period arrivals can phase-lock with the ingest loop's
    chunk cadence and sample only one phase of it), each with its kind
    and statistics."""
    rng = random.Random(seed * 7919 + 17)
    kinds, weights = zip(*MIX)
    plan = []
    due = 0.0
    while True:
        due += rng.expovariate(RATE)
        if due >= seconds:
            return plan
        kind = rng.choices(kinds, weights)[0]
        if kind == "default":
            specs, back = DEFAULT_SPECS, None
        elif kind == "vary":
            specs = [f"hh:{rng.uniform(0.001, 0.05):.5f}",
                     f"moment:{rng.uniform(0.5, 2.0):.4f}"]
            back = None
        else:
            specs, back = PAST_SPECS, rng.randint(1, 5)
        plan.append({"id": len(plan), "due": due, "kind": kind,
                     "specs": specs, "back": back})


def run_loop(child: Child, seed: int, seconds: float, out: Outcome,
             state: dict) -> dict:
    """Open loop for ``seconds``; returns the per-request records."""
    host, port = child.host, child.port
    plan = plan_requests(seed, seconds)
    wall0 = time.time()
    records = []
    start = time.perf_counter()
    prev_end = start
    for request in plan:
        due = start + request["due"]
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        latest = child.stream.latest
        if request["back"] is None:
            request["epoch"] = None
            body = {"statistics": request["specs"]}
        else:
            request["epoch"] = max(0, latest - request["back"])
            body = {"statistics": request["specs"],
                    "epoch": request["epoch"]}
        sent = time.perf_counter()
        try:
            raw = http_exchange(host, port, "POST", "/query",
                                json.dumps(body).encode("utf-8"))
        except OSError as exc:
            raw = f"transport error: {exc!r}".encode("utf-8")
        end = time.perf_counter()
        state["events"] = child.stream.epochs
        payload = check_response(out, raw, request, state)
        if payload is not None and request["epoch"] is not None:
            state["past_answers"].append((request["epoch"], payload))
        records.append({"due": due, "sent": sent, "end": end,
                        "lag": sent - max(due, prev_end)})
        prev_end = end
    stop = time.perf_counter()
    metrics = parse_response(http_exchange(host, port, "GET",
                                           "/metrics.json"))[1]
    return {"records": records, "metrics": metrics,
            # a copy: the SSE thread is still adding epochs
            "ingest_pps": epoch_rate(dict(child.stream.epochs), wall0,
                                     time.time()),
            "window_ns": (int(start * 1e9), int(stop * 1e9))}


def epoch_rate(events: Dict[int, dict], lo: float, hi: float) -> float:
    """Median ingest rate of the epochs sealed inside ``[lo, hi]``
    (wall clock): each epoch's packets over the time since the previous
    seal.  A median over epochs is steadier than one total on a host
    whose speed drifts."""
    rates = [event["packets"] / (event["sealed_at"]
                                 - events[index - 1]["sealed_at"])
             for index, event in events.items()
             if index - 1 in events and lo <= event["sealed_at"] <= hi]
    if not rates:
        raise RunRejected("no epoch was sealed in the measured window")
    return median(rates)


def check_stop(out: Outcome, stdout: str, stream: EventStream) -> tuple:
    """The at-stop checks; returns the published ledger and the host
    clock samples of the service's ingest thread."""
    ledger_line = next((line for line in stdout.splitlines()
                        if line.startswith("BENCH-LEDGER ")), None)
    stopped = STOPPED.search(stdout)
    if ledger_line is None or stopped is None:
        out.check(False, f"no stop report from the service: {stdout!r}")
        return [], []
    ledger = json.loads(ledger_line[len("BENCH-LEDGER "):])
    epochs = ledger["epochs"]
    sealed, packets = int(stopped.group(1)), int(stopped.group(2))
    indices = [e["epoch"] for e in epochs]
    out.check(indices == list(range(sealed)),
              f"published epochs {indices[:3]}..{indices[-3:]} vs "
              f"{sealed} sealed")
    out.check(sum(e["packets"] for e in epochs) == packets
              == ledger["packets_ingested"],
              f"published packets {sum(e['packets'] for e in epochs)} vs "
              f"packets_ingested {packets}")
    order = stream.order
    problems = [f"stream error {stream.error}"] if stream.error else []
    if order != sorted(order) or len(set(order)) != len(order):
        problems.append(f"SSE epoch order {order}")
    first = order[0] if order else 0
    missing = [i for i in range(first, sealed - 1) if i not in stream.epochs]
    if missing:
        problems.append(f"SSE missed epochs {missing}")
    for entry in epochs:
        event = stream.epochs.get(entry["epoch"])
        if event is not None and event["packets"] != entry["packets"]:
            problems.append(f"epoch {entry['epoch']} SSE packets "
                            f"{event['packets']} vs {entry['packets']}")
    out.check(not problems, "SSE: " + "; ".join(problems))
    return epochs, ledger["clock_ms"]


def quality(trace_path: str, ledger: list, stream: EventStream,
            past_answers: list) -> dict:
    """Served estimates against exact per-epoch truth.

    The service cuts epochs on a timer, but in whole chunks of the
    time-sorted trace, cycled: epoch ``e`` holds stream offsets
    ``[C(e-1), C(e))`` of the endless replay, where ``C`` sums the
    published packet counts — so its exact key multiset is known.
    """
    import numpy as np
    from repro.dataplane.keys import src_ip_key
    from repro.dataplane.csvtrace import load_csv
    from repro.dataplane.scenarios import EpochTruth

    keys = load_csv(trace_path).sorted_by_time().key_array(src_ip_key)
    n = len(keys)
    truths = {}
    offset = 0
    for entry in ledger:
        idx = (offset + np.arange(entry["packets"])) % n
        offset += entry["packets"]
        truths[entry["epoch"]] = EpochTruth(
            keys[idx], np.ones(len(idx), dtype=np.int64))
    card, ent, hh = [], [], []
    for index, event in stream.epochs.items():
        truth = truths.get(index)
        if truth is None or not truth.packets:
            continue
        stats = event.get("statistics", {})
        card.append(relerr(stats["cardinality"], truth.distinct))
        ent.append(relerr(stats["entropy"], truth.entropy()))
    for index, payload in past_answers:
        truth = truths.get(index)
        if truth is not None:
            hh.append(f1(truth.heavy_hitter_keys(0.005),
                         {int(k) for k, _ in
                          payload["results"]["heavy_hitters"]}))
    return {"card_relerr": median(card) if card else 0.0,
            "entropy_relerr": median(ent) if ent else 0.0,
            "hh_f1": median(hh) if hh else 0.0}


def run(seed: int, seconds: float, tracer, out: Outcome) -> dict:
    """Measure the service for ``seconds``.  In the traced run
    (``tracer`` is not a :class:`NullTracer`) the child process records
    the spans, not this one."""
    from tracing import NullTracer
    traced = not isinstance(tracer, NullTracer)
    os.makedirs(WORK_DIR, exist_ok=True)
    stem = os.path.join(WORK_DIR, f"serve-{seed}")
    trace_path = stem + ".csv"
    spans_path = stem + ".spans.jsonl" if traced else None
    setups = []
    setup_clock = HostClock()
    child = None
    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        setup_clock.sample(5)  # no service is running
        child, took = start(seed, trace_path, spans_path if last else None,
                            stem + ".log")
        setups.append(took)
        if not last:
            child.stop()
    state = {"latest": -1, "events": {}, "past_answers": []}
    try:
        loop = run_loop(child, seed, seconds, out, state)
        rss = vm_hwm_mib(child.proc.pid)
    except BaseException:
        child.kill()
        raise
    stdout = child.stop()
    ledger, clock_ms = check_stop(out, stdout, child.stream)

    records = loop["records"]
    lags_ms = [1e3 * r["lag"] for r in records]
    lag_p99 = percentile(lags_ms, 99)
    if lag_p99 > MAX_GENERATOR_LAG_MS:
        raise RunRejected(
            f"generator p99 own lag {lag_p99:.1f} ms > "
            f"{MAX_GENERATOR_LAG_MS} ms")
    latency_ms = [1e3 * (r["end"] - r["due"]) for r in records]
    counters = loop["metrics"].get("counters", {})
    hits = counters.get("univmon_query_memo_hits_total", 0.0)
    misses = counters.get("univmon_query_memo_misses_total", 0.0)
    result = {
        "setup_s": median(setups),
        "setup_speed": setup_clock.speed(),
        # the host clock runs on the service's ingest thread; a service
        # that reported none has already failed a check
        "speed": speed_of(clock_ms) if clock_ms else 1.0,
        "ingest_pps": loop["ingest_pps"],
        "latency_p50_ms": percentile(latency_ms, 50),
        "latency_tail_ms": percentile(latency_ms, TAIL_Q),
        "query_p99_ms": percentile(latency_ms, 99),
        "peak_rss_mb": rss,
        "requests": len(records),
        "generator_lag_p99_ms": lag_p99,
        "generator_lag_max_ms": max(lags_ms),
        "memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "epochs": len(ledger),
        "detections": child.stream.detections,
        "records": records,
        "window_ns": loop["window_ns"],
        "spans_path": spans_path,
        "eviction_ratio": (sum(e["evictions"] for e in ledger)
                           / max(1, sum(e["offers"] for e in ledger))),
    }
    if traced:
        result.update(quality(trace_path, ledger, child.stream,
                              state["past_answers"]))
    os.remove(trace_path)  # regenerated from the seed by every run
    return result


def queue_wait_ms(spans, records: list) -> tuple:
    """``(mean handle ms, median queue wait ms)`` of the /query requests.

    The generator uses one connection at a time, so the service accepts
    its connections in the order they were sent: after the SSE stream
    (the first connection), handle span ``k`` answers the ``k``-th of
    [queries..., metrics].  Queue wait is the client's
    send-to-last-byte time minus the service's handle time.
    """
    handles = sorted(spans.named("service.http_handle"),
                     key=lambda r: r["start_ns"])[1:]
    queries = handles[:len(records)]
    if len(handles) != len(records) + 1 or not queries:
        return 0.0, 0.0
    waits = [1e3 * (r["end"] - r["sent"]) - h["dur_ns"] / 1e6
             for r, h in zip(records, queries)]
    handle = sum(h["dur_ns"] for h in queries) / len(queries) / 1e6
    return handle, median(waits)


def coverage(spans, raw: dict) -> float:
    """Share of the measured window the ingest thread spent inside the
    named layers (ingest, seal, publication)."""
    window_ns = raw["window_ns"]
    ingest = spans.named("controller.ingest")
    if not ingest:
        return 0.0
    thread = ingest[0]["thread"]
    names = {"controller.ingest", "controller.seal_epoch",
             "service.make_record", "service.ring_publish",
             "query.evaluate_many", "trace.concat"}
    covered = spans.covered_ms(names, window_ns, thread)
    return covered / ((window_ns[1] - window_ns[0]) / 1e6)
