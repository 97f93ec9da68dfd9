"""Shared pieces of the benchmark: outcomes, percentiles, host facts."""

from __future__ import annotations

import os
import platform
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Where runs keep their scratch files (traces, spans, result records).
#: Relative to the checkout root; listed in the root ``.gitignore``.
WORK_DIR = ".perfbench_work"


class RunRejected(Exception):
    """The run cannot stand for the program (e.g. the load generator fell
    behind its schedule); it reports no result."""


@dataclass
class Outcome:
    """The correctness record of one run: operations checked, failed,
    and the first failures."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; record it as failed if not ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def service_sketch():
    """A fresh sketch with the service's geometry (``univmon serve``
    defaults: 512 KB, 12 levels, 5 rows, heap 64, seed 1)."""
    from repro.core.universal import UniversalSketch
    return UniversalSketch.for_memory_budget(
        512 * 1024, levels=12, rows=5, heap_size=64, seed=1)


def relerr(estimate: float, truth: float) -> float:
    return abs(estimate - truth) / truth


def f1(true: set, got: set) -> float:
    """F1 of a reported heavy-hitter set (1.0 when both are empty)."""
    return 2 * len(true & got) / (len(true) + len(got)) \
        if true or got else 1.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def vm_hwm_mib(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii", errors="replace") as src:
        for line in src:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def cpu_ticks() -> tuple:
    """``(steal, total)`` CPU ticks of the host so far (``/proc/stat``).

    Steal is time the hypervisor gave this machine's CPUs to someone
    else; on a shared host it is what makes two runs of the same code
    disagree, so every run reports its share.
    """
    with open("/proc/stat", encoding="ascii") as src:
        fields = [int(v) for v in src.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def _git_commit(root: str) -> str:
    """HEAD's commit read straight from ``.git`` (no subprocess); a
    checkout without git history reports ``unknown``."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as src:
            head = src.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as src:
                return src.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as src:
            for line in src:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint(root: str) -> Dict[str, str]:
    """The facts a result needs to be compared with another host's."""
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii",
                  errors="replace") as src:
            for line in src:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": str(os.cpu_count()), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": _git_commit(root)}
