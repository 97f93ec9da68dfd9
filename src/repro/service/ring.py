"""Lock-free publication ring of sealed epochs.

The always-on service has exactly one writer — the ingest thread, which
seals an epoch and *publishes* it — and arbitrarily many readers: HTTP
query handlers on the asyncio loop, SSE fan-out, scrapers, benchmarks.
The design that keeps readers latency-flat is immutability plus a single
reference swap:

- An :class:`EpochRecord` is frozen at publish time.  It carries the
  sealed sketch (never mutated again — the switch installed a fresh one
  at poll), its pre-built :class:`~repro.core.query.QuerySnapshot`, and
  the controller's :class:`~repro.controlplane.controller.EpochReport`.
- The ring holds the last ``depth`` records as an immutable **tuple**.
  ``publish`` builds a new tuple and stores it with one attribute
  assignment — atomic under the GIL, so a reader loading ``_records``
  sees either the old tuple or the new one, never a torn state.
- Readers take no lock, ever.  They load the tuple reference once and
  work on that consistent view; a concurrent publish cannot mutate it
  out from under them.

This is the memory model documented in DESIGN.md §14: publication is a
release (the record and everything reachable from it is fully built
before the swap), and the GIL gives readers the acquire.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.metrics import get_registry


@dataclass(frozen=True)
class EpochRecord:
    """One sealed epoch, frozen for concurrent readers.

    Attributes
    ----------
    epoch_index:
        Monotonic epoch number since service start.
    sealed_at:
        Wall-clock seconds (``time.time()``) at seal.
    packets:
        Packets ingested during the epoch.
    sketch:
        The sealed :class:`~repro.core.universal.UniversalSketch`.
        Immutable from here on — the data plane swapped in a fresh
        sketch at poll time, so queries against this one are safe from
        any thread.
    snapshot:
        The epoch's :class:`~repro.core.query.QuerySnapshot`, built once
        by the ingest thread before publication; every reader query
        reuses it through the sketch's version-guarded cache.
    report:
        The controller's per-epoch app results (detection states, ...).
    """

    epoch_index: int
    sealed_at: float
    packets: int
    sketch: Any
    snapshot: Any
    report: Any
    statistics: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> Dict[str, Any]:
        """JSON-able header (no heavy-hitter lists, no sketch state)."""
        return {
            "epoch": self.epoch_index,
            "sealed_at": self.sealed_at,
            "packets": self.packets,
            "start_time": getattr(self.report, "start_time", 0.0),
            "end_time": getattr(self.report, "end_time", 0.0),
        }


class EpochRing:
    """The last ``depth`` published epochs, single-writer / lock-free
    readers (see the module docstring for the memory model)."""

    __slots__ = ("depth", "_records")

    def __init__(self, depth: int = 8) -> None:
        if depth < 1:
            raise ConfigurationError(
                f"ring depth must be >= 1, got {depth}")
        self.depth = depth
        self._records: Tuple[EpochRecord, ...] = ()

    def __len__(self) -> int:
        return len(self._records)

    def publish(self, record: EpochRecord) -> None:
        """Append ``record``, evicting past ``depth`` (writer only).

        The new tuple is fully constructed before the single reference
        store — the only mutation readers can observe.
        """
        records = self._records + (record,)
        evicted = len(records) - self.depth
        if evicted > 0:
            records = records[evicted:]
        self._records = records  # atomic publish
        reg = get_registry()
        reg.gauge("univmon_service_ring_epochs",
                  help="epochs currently held in the publication "
                       "ring").set(len(records))
        reg.gauge("univmon_service_epoch",
                  help="index of the most recently published "
                       "epoch").set(record.epoch_index)
        if evicted > 0:
            reg.counter("univmon_service_ring_evictions_total",
                        help="epochs evicted from the publication "
                             "ring").inc(evicted)

    # ------------------------------------------------------------------ #
    # readers (no locks; load the tuple once, then use that view)
    # ------------------------------------------------------------------ #

    def latest(self) -> Optional[EpochRecord]:
        records = self._records
        return records[-1] if records else None

    def get(self, epoch_index: int) -> Optional[EpochRecord]:
        """The record for ``epoch_index`` if still resident."""
        records = self._records
        if not records:
            return None
        # Records are contiguous by construction; index arithmetic
        # beats a scan and stays correct if that ever changes rarely.
        offset = epoch_index - records[0].epoch_index
        if 0 <= offset < len(records) \
                and records[offset].epoch_index == epoch_index:
            return records[offset]
        for record in records:  # pragma: no cover - non-contiguous guard
            if record.epoch_index == epoch_index:
                return record
        return None

    def records(self) -> Tuple[EpochRecord, ...]:
        """A consistent view of the resident epochs, oldest first."""
        return self._records


def make_record(epoch_index: int, sealed, report,
                statistics: Optional[Dict[str, Any]] = None,
                sealed_at: Optional[float] = None) -> EpochRecord:
    """Build a publication record from one sealed epoch.

    Materialises the query snapshot *before* the record escapes to
    readers — the one snapshot build per epoch that
    ``univmon_query_snapshot_builds_total`` counts.
    """
    snapshot = sealed.query_snapshot()
    return EpochRecord(
        epoch_index=epoch_index,
        sealed_at=time.time() if sealed_at is None else sealed_at,
        packets=report.packets,
        sketch=sealed,
        snapshot=snapshot,
        report=report,
        statistics=dict(statistics or {}),
    )


__all__ = ["EpochRecord", "EpochRing", "make_record"]
