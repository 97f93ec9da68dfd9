"""Event fan-out from the ingest thread to SSE subscribers.

One producer (the ingest thread, at epoch seal) and N consumers (one
asyncio task per connected ``/events`` client).  The contract the
service's latency story depends on:

- **Publishing never blocks ingest.**  The ingest thread hands the
  event to the asyncio loop with ``call_soon_threadsafe`` and moves on;
  fan-out runs on the loop.
- **A slow client never grows unbounded state.**  Every subscriber owns
  a bounded queue; when it is full the *oldest* event is dropped to
  admit the new one (fresh telemetry beats stale telemetry for
  monitoring streams), and the drop is counted in
  ``univmon_service_events_dropped_total``.
- **Slow clients do not penalise fast ones.**  Queues are per-client;
  a full queue affects only its owner.
- **Shutdown loses no sealed epoch.**  Closing the broker queues
  :data:`END_OF_STREAM` behind every event already published, so a
  stream ends only after delivering them.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.metrics import get_registry

#: Queued after the last event of a closed broker; streams end on it.
END_OF_STREAM = None


class Subscription:
    """One client's bounded event queue (created via
    :meth:`EventBroker.subscribe`, loop thread only)."""

    __slots__ = ("queue", "dropped")

    def __init__(self, maxsize: int) -> None:
        self.queue: "asyncio.Queue[Dict[str, Any]]" = \
            asyncio.Queue(maxsize=maxsize)
        self.dropped = 0

    def offer(self, event: Dict[str, Any]) -> bool:
        """Enqueue, dropping the oldest event if full.  Returns True if
        an old event was dropped (loop thread only)."""
        dropped = False
        while True:
            try:
                self.queue.put_nowait(event)
                return dropped
            except asyncio.QueueFull:
                try:
                    self.queue.get_nowait()
                    self.dropped += 1
                    dropped = True
                except asyncio.QueueEmpty:  # pragma: no cover - race-free
                    pass                    # on one loop, but stay safe


class EventBroker:
    """Bounded per-client fan-out of per-epoch events.

    ``bind(loop)`` must run before cross-thread publishing; subscriber
    management and delivery happen exclusively on that loop, so the
    subscriber list needs no lock for delivery — only ``publish_from_
    thread`` crosses threads, and it does so by scheduling onto the
    loop.
    """

    def __init__(self, queue_size: int = 64) -> None:
        if queue_size < 1:
            raise ConfigurationError(
                f"queue_size must be >= 1, got {queue_size}")
        self.queue_size = queue_size
        self._subs: List[Subscription] = []
        self._closed = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._lock = threading.Lock()  # guards _loop hand-off only

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        with self._lock:
            self._loop = loop

    # ------------------------------------------------------------------ #
    # loop-side: subscribers and delivery
    # ------------------------------------------------------------------ #

    def subscribe(self) -> Subscription:
        sub = Subscription(self.queue_size)
        if self._closed:
            sub.offer(END_OF_STREAM)
        self._subs.append(sub)
        get_registry().gauge(
            "univmon_service_event_subscribers",
            help="currently connected /events clients").set(len(self._subs))
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        try:
            self._subs.remove(sub)
        except ValueError:
            return
        get_registry().gauge(
            "univmon_service_event_subscribers",
            help="currently connected /events clients").set(len(self._subs))

    @property
    def subscribers(self) -> int:
        return len(self._subs)

    def deliver(self, event: Dict[str, Any]) -> None:
        """Fan one event out to every subscriber (loop thread only)."""
        reg = get_registry()
        reg.counter("univmon_service_events_total",
                    help="events published to the SSE broker").inc()
        dropped = 0
        for sub in self._subs:
            if sub.offer(event):
                dropped += 1
        if dropped:
            reg.counter("univmon_service_events_dropped_total",
                        help="events dropped at full subscriber queues "
                             "(drop-oldest backpressure)").inc(dropped)

    def _close(self) -> None:
        self._closed = True
        for sub in self._subs:
            sub.offer(END_OF_STREAM)

    # ------------------------------------------------------------------ #
    # producer-side: called from the ingest thread
    # ------------------------------------------------------------------ #

    def publish_from_thread(self, event: Dict[str, Any]) -> bool:
        """Schedule delivery onto the bound loop; never blocks.

        Returns False (event discarded) when no loop is bound or the
        loop is already closed — both normal during startup/shutdown.
        """
        return self._call_soon(self.deliver, event)

    def close_from_thread(self) -> bool:
        """End every stream once the events published so far (the loop
        runs callbacks in order) are delivered; later subscribers end
        at once.  Call after the producer has stopped."""
        return self._call_soon(self._close)

    def _call_soon(self, callback, *args) -> bool:
        with self._lock:
            loop = self._loop
        if loop is None or loop.is_closed():
            return False
        try:
            loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:  # loop closed between check and call
            return False
        return True


__all__ = ["END_OF_STREAM", "EventBroker", "Subscription"]
