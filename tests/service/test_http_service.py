"""End-to-end service tests over real HTTP: queries, epochs, SSE,
memoisation, and graceful shutdown."""

import json
import socket
import threading
import time

import pytest

from repro.dataplane.parallel import shared_memory_available
from repro.service import ServiceConfig
from repro.service.service import _STREAM_DRAIN_SECONDS

from tests.service.conftest import http_get, http_post


def wait_for_epochs(service, n, timeout=30.0):
    deadline = time.monotonic() + timeout
    while service.ingest.epochs_sealed < n:
        assert time.monotonic() < deadline, \
            f"only {service.ingest.epochs_sealed}/{n} epochs in {timeout}s"
        time.sleep(0.01)


class TestEndpoints:
    def test_bounded_run_serves_everything(self, make_service, registry):
        service = make_service(ServiceConfig(
            port=0, epoch_seconds=0.1, ring_depth=4, max_epochs=3))
        assert service.wait(timeout=30)
        port = service.port

        status, health = http_get(port, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["epochs_sealed"] == 3
        assert health["packets_ingested"] > 0

        status, listing = http_get(port, "/epochs")
        assert status == 200
        indices = [e["epoch"] for e in listing["epochs"]]
        assert indices == [0, 1, 2]

        status, detail = http_get(port, f"/epochs/{indices[-1]}")
        assert status == 200
        assert detail["statistics"]["cardinality"] > 0
        assert "entropy" in detail["statistics"]

        status, result = http_post(port, "/query",
                                   {"statistics": ["cardinality",
                                                   "entropy",
                                                   "hh:0.01"]})
        assert status == 200
        assert result["epoch"] == 2
        assert result["results"]["cardinality"] > 0
        assert isinstance(result["results"]["heavy_hitters"], list)

        status, text = http_get(port, "/metrics")
        assert status == 200
        assert "univmon_epochs_total 3" in text
        assert "univmon_service_request_seconds" in text

        # The acceptance invariant: exactly one snapshot build per
        # sealed epoch, no matter how many queries were served.
        builds = registry.counter(
            "univmon_query_snapshot_builds_total").value
        assert builds == 3

    def test_error_paths(self, make_service):
        service = make_service(ServiceConfig(
            port=0, epoch_seconds=0.1, max_epochs=2))
        assert service.wait(timeout=30)
        port = service.port

        status, body = http_get(port, "/nope")
        assert status == 404
        status, body = http_get(port, "/epochs/999")
        assert status == 404
        status, body = http_get(port, "/epochs/abc")
        assert status == 400
        status, body = http_post(port, "/query",
                                 {"statistics": ["bogus_stat"]})
        assert status == 400
        assert "bogus_stat" in body["error"]
        status, body = http_post(port, "/query", {"statistics": []})
        assert status == 400
        status, body = http_post(port, "/query", {"epoch": 999})
        assert status == 404
        status, body = http_get(port, "/query")  # GET on a POST route
        assert status == 405

    @pytest.mark.parametrize("spec", ["hh:abc", "entropy:x", "moment:-1",
                                      "moment:3", "hh:0", "hh:1.5",
                                      "entropy:1"])
    def test_hostile_query_specs_answer_400(self, make_service, spec):
        """Regression: a spec that fails to parse or to evaluate used to
        drop the connection with no response."""
        service = make_service(ServiceConfig(
            port=0, epoch_seconds=0.1, max_epochs=1))
        assert service.wait(timeout=30)
        port = service.port
        status, body = http_post(port, "/query",
                                 {"statistics": ["cardinality", spec]})
        assert status == 400
        assert body["error"]
        # ...and the service keeps serving.
        status, body = http_post(port, "/query",
                                 {"statistics": ["hh:0.05", "moment:2.0"]})
        assert status == 200
        assert body["epoch"] == 0

    def test_query_before_first_epoch_is_404(self, make_service):
        service = make_service(ServiceConfig(
            port=0, epoch_seconds=3600.0, chunk_sleep=0.05))
        status, body = http_post(service.port, "/query", {})
        assert status == 404
        assert "no epoch" in body["error"]


class TestQueryMemo:
    def test_concurrent_identical_queries_collapse(self, make_service,
                                                   registry):
        service = make_service(ServiceConfig(
            port=0, epoch_seconds=0.1, max_epochs=2))
        assert service.wait(timeout=30)
        port = service.port
        # A statistic set nothing else (epoch events, other tests)
        # evaluates, so its memo entry is provably ours.
        payload = {"statistics": ["entropy:e", "moment:1.5"]}

        misses_before = registry.counter(
            "univmon_query_memo_misses_total").value
        hits_before = registry.counter(
            "univmon_query_memo_hits_total").value

        results, errors = [], []

        def client():
            try:
                results.append(http_post(port, "/query", payload))
            except Exception as exc:  # noqa: BLE001 - surface in assert
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(results) == 8
        assert all(status == 200 for status, _ in results)
        values = [json.dumps(body["results"], sort_keys=True)
                  for _, body in results]
        assert len(set(values)) == 1          # identical answers

        misses = registry.counter(
            "univmon_query_memo_misses_total").value - misses_before
        hits = registry.counter(
            "univmon_query_memo_hits_total").value - hits_before
        assert misses == 1                    # evaluated exactly once
        assert hits == 7                      # everyone else collapsed


class TestServerSentEvents:
    def read_sse_events(self, port, n, timeout=30.0):
        """Collect ``n`` data events from a raw /events stream."""
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=timeout) as sock:
            sock.sendall(b"GET /events HTTP/1.1\r\n"
                         b"Host: localhost\r\n\r\n")
            sock.settimeout(timeout)
            buffer = b""
            events = []
            deadline = time.monotonic() + timeout
            while len(events) < n and time.monotonic() < deadline:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                buffer += chunk
                while b"\n\n" in buffer:
                    frame, buffer = buffer.split(b"\n\n", 1)
                    for line in frame.splitlines():
                        if line.startswith(b"data: "):
                            events.append(json.loads(line[6:]))
            return events

    def test_epoch_events_stream(self, make_service):
        service = make_service(ServiceConfig(
            port=0, epoch_seconds=0.15, ring_depth=4))
        events = self.read_sse_events(service.port, 2)
        service.stop()
        assert len(events) >= 2
        assert all(e["type"] == "epoch" for e in events)
        assert events[1]["epoch"] > events[0]["epoch"]
        assert "cardinality" in events[0]["statistics"]


class TestGracefulShutdown:
    def test_sse_delivers_epoch_sealed_during_shutdown(self, make_service):
        """Regression: streams used to exit on the first keepalive tick
        after stop() began, racing the ingest thread's drain seal.  The
        chunk sleep holds that seal back past the tick."""
        service = make_service(ServiceConfig(
            port=0, epoch_seconds=0.5, ring_depth=8, chunk_sleep=0.4))
        with socket.create_connection(("127.0.0.1", service.port),
                                      timeout=30) as sock:
            sock.sendall(b"GET /events HTTP/1.1\r\n"
                         b"Host: localhost\r\n\r\n")
            buffer = b""
            while b"data: " not in buffer:  # subscribed, one epoch seen
                chunk = sock.recv(4096)
                assert chunk, "stream closed before the first epoch"
                buffer += chunk
            time.sleep(0.05)  # mid-epoch, ingest mid chunk sleep
            started = time.monotonic()
            service.stop()
            # The stream ended at the end-of-stream marker, not by
            # outliving the shutdown's drain bound.
            assert time.monotonic() - started < _STREAM_DRAIN_SECONDS
            while True:  # the stream ends by itself once drained
                chunk = sock.recv(4096)
                if not chunk:
                    break
                buffer += chunk
        events = [json.loads(line[6:]) for line in buffer.splitlines()
                  if line.startswith(b"data: ")]
        epochs = [e["epoch"] for e in events if e["type"] == "epoch"]
        assert epochs == sorted(epochs)
        assert epochs[-1] == service.ring.latest().epoch_index
        assert service.ingest.epochs_sealed == epochs[-1] + 1

    def test_stop_drains_everything(self, make_service):
        service = make_service(ServiceConfig(
            port=0, epoch_seconds=0.1, ring_depth=4))
        wait_for_epochs(service, 2)
        port = service.port
        service.stop()
        assert not service.ingest.is_alive()
        assert service.ingest.error is None
        assert not service._loop_thread.is_alive()
        # The listener is gone: a fresh connection must be refused.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1.0)
        service.stop()  # idempotent

    @pytest.mark.skipif(not shared_memory_available(),
                        reason="no shared memory for worker pool")
    def test_stop_closes_worker_pool(self, small_trace, registry):
        from repro.service import MonitoringService
        from tests.service.conftest import small_sketch_factory

        service = MonitoringService.from_trace(
            small_trace,
            ServiceConfig(port=0, epoch_seconds=0.2, max_epochs=2),
            sketch_factory=small_sketch_factory, workers=2)
        with service:
            assert service.wait(timeout=60)
            assert service.controller.switch._shard_pool is not None
        assert service.controller.switch._shard_pool is None
        assert not service.ingest.is_alive()
