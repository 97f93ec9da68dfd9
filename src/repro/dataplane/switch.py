"""The monitored switch: sketches attached to a packet stream.

A :class:`MonitoredSwitch` hosts named :class:`SwitchProgram`s (a sketch
plus the key function it monitors).  Processing a trace drives every
program, bulk-vectorised when the sketch supports ``update_array``; the
switch accounts total memory and the op-cost the Intel-PCM substitute
(``repro.eval.cost``) converts to cycles.

The controller (``repro.controlplane``) polls programs at epoch
boundaries — "the controller periodically polls the switch for the sketch
every 5 seconds" — swapping in a fresh sketch per epoch via each
program's factory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.sketches.base import Sketch, UpdateCost
from repro.dataplane.keys import KeyFunction
from repro.dataplane.trace import Trace


@dataclass
class SwitchProgram:
    """One measurement program: a sketch factory bound to a key function.

    Attributes
    ----------
    name:
        Program identifier (unique per switch).
    factory:
        Zero-argument callable producing a fresh sketch for each epoch.
    key_function:
        The flow feature the sketch monitors (e.g. source IP).
    by_bytes:
        Weight updates by packet size instead of packet count — the
        paper's heavy hitter definition ("a fraction of the link
        *capacity*") is byte-denominated.
    """

    name: str
    factory: Callable[[], Sketch]
    key_function: KeyFunction
    by_bytes: bool = False
    sketch: Sketch = field(init=False)
    packets_processed: int = field(init=False, default=0)
    total_cost: UpdateCost = field(init=False,
                                   default_factory=UpdateCost)

    def __post_init__(self) -> None:
        self.sketch = self.factory()

    def reset(self) -> Sketch:
        """Swap in a fresh sketch; return the sealed one (epoch poll)."""
        sealed = self.sketch
        self.sketch = self.factory()
        return sealed


class MonitoredSwitch:
    """A switch running one or more measurement programs."""

    def __init__(self, name: str = "switch") -> None:
        self.name = name
        self._programs: Dict[str, SwitchProgram] = {}
        self.packets_seen = 0
        self._shard_pool = None  # lazy ShardWorkerPool, hot across epochs

    # ------------------------------------------------------------------ #
    # program management
    # ------------------------------------------------------------------ #

    def attach(self, name: str, factory: Callable[[], Sketch],
               key_function: KeyFunction,
               by_bytes: bool = False) -> SwitchProgram:
        """Install a measurement program; returns it."""
        if name in self._programs:
            raise ConfigurationError(
                f"switch {self.name!r} already has a program {name!r}")
        program = SwitchProgram(name=name, factory=factory,
                                key_function=key_function,
                                by_bytes=by_bytes)
        self._programs[name] = program
        return program

    def detach(self, name: str) -> None:
        if name not in self._programs:
            raise ConfigurationError(
                f"switch {self.name!r} has no program {name!r}")
        del self._programs[name]

    def program(self, name: str) -> SwitchProgram:
        try:
            return self._programs[name]
        except KeyError:
            raise ConfigurationError(
                f"switch {self.name!r} has no program {name!r}") from None

    def programs(self) -> List[SwitchProgram]:
        return list(self._programs.values())

    # ------------------------------------------------------------------ #
    # data plane
    # ------------------------------------------------------------------ #

    def process_packet(self, packet) -> None:
        """Per-packet path (used by the network simulator)."""
        self.packets_seen += 1
        for program in self._programs.values():
            key = program.key_function(packet)
            weight = packet.size if program.by_bytes else 1
            program.sketch.update(key, weight)
            program.packets_processed += 1
            program.total_cost = program.total_cost \
                + program.sketch.update_cost()

    def process_trace(self, trace: Trace, workers: int = 1) -> None:
        """Bulk path: vectorised when the sketch supports it.

        With ``workers > 1``, programs whose sketch is a seeded
        :class:`~repro.core.universal.UniversalSketch` are fed through
        :class:`~repro.dataplane.parallel.ShardedIngest` — the trace is
        sharded across a switch-held persistent
        :class:`~repro.dataplane.parallel.ShardWorkerPool` (workers stay
        hot across epochs and traces; the pool is geometry-agnostic, so
        one pool serves every program) and the merged result (exact, by
        linearity) is folded into the program's live sketch.  Other
        programs, and platforms without shared memory, silently take the
        in-process path.  :meth:`close` releases the pool.
        """
        import numpy as np
        n = len(trace)
        if n == 0:
            return
        self.packets_seen += n
        for program in self._programs.values():
            keys = trace.key_array(program.key_function)
            weights = trace.size.astype(np.int64) if program.by_bytes \
                else None
            sketch = program.sketch
            if workers > 1 and self._shardable(sketch):
                from repro.dataplane.parallel import ShardedIngest
                result = ShardedIngest.like(
                    sketch, workers=workers,
                    pool=self._ingest_pool(workers)).ingest_keys(
                        keys, weights)
                program.sketch = sketch.merge(result.sketch)
            elif hasattr(sketch, "update_array"):
                if weights is None:
                    sketch.update_array(keys)
                else:
                    sketch.update_array(keys, weights)
            else:
                if weights is None:
                    for key in keys.tolist():
                        sketch.update(int(key))
                else:
                    for key, weight in zip(keys.tolist(), weights.tolist()):
                        sketch.update(int(key), int(weight))
            program.packets_processed += n
            program.total_cost = program.total_cost \
                + sketch.update_cost().scaled(n)

    @staticmethod
    def _shardable(sketch) -> bool:
        """Only seeded universal sketches can shard: the merge that
        reassembles the shards needs equal-seed instances."""
        from repro.core.universal import UniversalSketch
        return isinstance(sketch, UniversalSketch) and sketch.seed is not None

    def _ingest_pool(self, workers: int):
        """The switch's persistent worker pool, rebuilt only when the
        requested worker count changes."""
        from repro.dataplane.parallel import ShardWorkerPool
        pool = self._shard_pool
        if pool is None or pool.workers != workers:
            if pool is not None:
                pool.close()
            pool = self._shard_pool = ShardWorkerPool(workers=workers)
        return pool

    def close(self) -> None:
        """Release the shard worker pool (workers + shared-memory
        slabs).  The switch stays usable; the next sharded
        ``process_trace`` starts a fresh pool."""
        if self._shard_pool is not None:
            self._shard_pool.close()
            self._shard_pool = None

    def __enter__(self) -> "MonitoredSwitch":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # control-plane interface
    # ------------------------------------------------------------------ #

    def poll(self, name: str) -> Sketch:
        """Retrieve-and-reset one program's sketch (epoch boundary)."""
        return self.program(name).reset()

    def poll_all(self) -> Dict[str, Sketch]:
        return {name: prog.reset() for name, prog in self._programs.items()}

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        """Total data-plane memory across programs."""
        return sum(p.sketch.memory_bytes() for p in self._programs.values())

    def total_cost(self) -> UpdateCost:
        """Accumulated op counts across programs (the PCM substitute)."""
        total = UpdateCost()
        for program in self._programs.values():
            total = total + program.total_cost
        return total
