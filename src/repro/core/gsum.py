"""UnivMon's control plane — the Recursive Sum estimator (Algorithm 2).

Given the per-level heavy hitter sets ``Q_j`` (key, ``w_j(key)`` pairs)
collected by :class:`~repro.core.universal.UniversalSketch`, the estimator
computes, for any Stream-PolyLog g,

    Y_L     = sum_{i in Q'_L} g(w_L(i))
    Y_j     = 2 * Y_{j+1} + sum_{i in Q'_j} (1 - 2*h_{j+1}(i)) * g(w_j(i))
    G-sum  ~= Y_0

where ``h_{j+1}(i)`` is the sampling bit that decides whether key ``i``
advances from substream ``D_j`` to ``D_{j+1}``.  Intuition: ``2*Y_{j+1}``
scales the sampled half back up; the correction term replaces the doubled
contribution of keys that *did* advance (bit = 1, factor ``1-2 = -1``) with
the directly-observed contribution of keys that did not (bit = 0, factor
``+1``).  This is the Recursive Sum of Braverman & Ostrovsky 2013.

All estimators apply ``g`` to the *magnitude* of the Count Sketch
estimate: on insert-only streams estimates are already ≈ positive, and on
difference streams the "frequency" of a key is the magnitude of its delta.

Every estimator runs Recursive Sum as array reductions over the
sketch's :class:`~repro.core.query.QuerySnapshot`
(``sketch.query_snapshot()``): the per-level heaps and sampling bits
materialised once per sketch state and cached behind a mutation version
counter, so all apps polling the same sealed sketch share one build.
:func:`estimate_gsum_scalar` keeps the original scalar loop as the
reference the vectorised path is tested against.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import List, Optional, Tuple

import numpy as np

from repro.obs.metrics import get_registry
from repro.core.gfunctions import (
    ABS,
    CARDINALITY,
    ENTROPY_NATS,
    ENTROPY_SUM,
    IDENTITY,
    GFunction,
    make_moment,
    require_stream_polylog,
)
from repro.core.query import QuerySnapshot

_SPAN_STATE = threading.local()


@contextmanager
def _query_span(op: str):
    """Latency span for one control-plane estimate (no-op by default).

    Spans live here — on the public estimators — rather than on the
    :class:`~repro.core.universal.UniversalSketch` wrapper methods, so
    the apps (which call these functions directly) and the sketch
    methods record into the same ``op=`` series exactly once.

    Nested estimates are guarded: :func:`estimate_gsum` records its own
    ``op="gsum"`` span when called directly, but when it runs inside a
    named wrapper (``estimate_entropy``, ``heavy_changes``, …) only the
    outermost span observes, keeping "one span per estimate" true on
    every path.
    """
    if getattr(_SPAN_STATE, "depth", 0):
        yield
        return
    _SPAN_STATE.depth = 1
    try:
        with get_registry().span("univmon_sketch_query_seconds",
                                 help="control-plane estimate latency",
                                 op=op):
            yield
    finally:
        _SPAN_STATE.depth = 0


# Validation cache keyed by g-function *identity* (id -> weakref).  Keying
# by name let a user-defined GFunction reuse a stock name (e.g.
# "identity") and silently skip validation; the weakref guards against a
# recycled id() after the original object is collected, and its callback
# drops the entry as soon as the g-function dies.  The LRU bound is a
# backstop for the pathological case of many *live* transient g-functions:
# the cache can then forget (and later re-validate) the oldest, but it can
# never grow past ``_VALIDATED_MAX`` entries.
_VALIDATED: "OrderedDict[int, weakref.ref]" = OrderedDict()
_VALIDATED_MAX = 256


def _check(g: GFunction) -> None:
    """Validate Stream-PolyLog membership once per g-function object."""
    ref = _VALIDATED.get(id(g))
    if ref is not None and ref() is g:
        _VALIDATED.move_to_end(id(g))
        return
    require_stream_polylog(g)
    _VALIDATED[id(g)] = weakref.ref(
        g, lambda _ref, _key=id(g): _VALIDATED.pop(_key, None))
    while len(_VALIDATED) > _VALIDATED_MAX:
        _VALIDATED.popitem(last=False)


def estimate_gsum(sketch, g: GFunction,
                  min_weight: float = 0.5) -> float:
    """Algorithm 2: unbiased estimate of ``G-sum = sum_i g(f_i)``.

    Runs the Recursive Sum as array reductions over the sketch state's
    snapshot; numerically equivalent to the scalar reference
    (:func:`estimate_gsum_scalar`), which walks the heaps one key at a
    time.

    Parameters
    ----------
    sketch:
        A :class:`~repro.core.universal.UniversalSketch`.
    g:
        The statistic's g-function; must be in Stream-PolyLog.
    min_weight:
        Heap entries with ``|w| < min_weight`` are treated as noise and
        skipped (a key actually present has true frequency >= 1).
    """
    _check(g)
    with _query_span("gsum"):
        return sketch.query_snapshot().gsum(g, min_weight=min_weight)


def estimate_gsum_scalar(sketch, g: GFunction,
                         min_weight: float = 0.5) -> float:
    """The original scalar Recursive Sum — the reference implementation.

    One ``g`` call and one sampling-bit hash per heavy hitter per level.
    Kept (and property-tested against :func:`estimate_gsum`) as the
    ground truth the vectorised path must match; also the baseline the
    query-latency benchmark measures speedups against.
    """
    _check(g)
    levels = sketch.levels
    sampler = sketch.sampler
    deepest = len(levels) - 1

    def gval(w: float) -> float:
        mag = abs(w)
        if mag < min_weight:
            return 0.0
        return g(mag)

    y = sum(gval(w) for _, w in levels[deepest].heavy_hitters())
    for j in range(deepest - 1, -1, -1):
        correction = 0.0
        for key, w in levels[j].heavy_hitters():
            bit = sampler.bit(j + 1, key)
            correction += (1 - 2 * bit) * gval(w)
        y = 2.0 * y + correction
    return y


def g_core(sketch, fraction: float,
           total: Optional[float] = None) -> List[Tuple[int, float]]:
    """G-core for g(x)=x: the keys estimated above ``fraction * total``.

    ``total`` defaults to the stream weight the sketch observed (heavy
    hitters); pass the estimated total change when ``sketch`` is a
    difference sketch (heavy changes).
    """
    with _query_span("heavy_hitters"):
        snapshot = sketch.query_snapshot()
        if total is None:
            total = snapshot.total_weight
        return snapshot.gcore(fraction, total=total)


def estimate_cardinality(sketch) -> float:
    """F0 (# distinct keys) via ``g(x) = x**0`` — the DDoS primitive."""
    with _query_span("cardinality"):
        return max(0.0, estimate_gsum(sketch, CARDINALITY))


def estimate_l1(sketch) -> float:
    """L1 norm via ``g(x) = |x|``.

    On an insert-only sketch this re-derives the stream weight (a useful
    self-check); on a difference sketch it estimates the total change D.
    """
    with _query_span("l1"):
        return max(0.0, estimate_gsum(sketch, ABS))


def estimate_l2(sketch) -> float:
    """L2 norm straight off the level-0 Count Sketch (no recursion needed;
    F2 is what Count Sketch natively estimates)."""
    with _query_span("l2"):
        return sketch.levels[0].sketch.l2_estimate()


def estimate_f2(sketch) -> float:
    """Second frequency moment from the level-0 Count Sketch."""
    with _query_span("f2"):
        return sketch.levels[0].sketch.f2_estimate()


# One GFunction per entropy log-base: rebuilding the lambda per call both
# wasted work and (with an identity-keyed validation cache) re-validated
# the same g on every estimate.  Bounded LRU: a workload cycling through
# many distinct bases (or sweeping bases programmatically) recycles the
# oldest entry instead of growing the cache forever.
_ENTROPY_BASE: "OrderedDict[float, GFunction]" = OrderedDict()
_ENTROPY_BASE_MAX = 8


def _entropy_gfunction(base: float) -> GFunction:
    g = _ENTROPY_BASE.get(base)
    if g is None:
        log_base = math.log(base)

        def vec(xs: np.ndarray, _lb: float = log_base) -> np.ndarray:
            out = np.zeros_like(xs)
            mask = xs > 0
            vals = xs[mask]
            out[mask] = vals * np.log(vals) / _lb
            return out

        g = GFunction(
            f"entropy_sum_base{base:g}",
            lambda x, _lb=log_base: 0.0 if x <= 0 else x * math.log(x) / _lb,
            stream_polylog=True, vec=vec)
        _ENTROPY_BASE[base] = g
        while len(_ENTROPY_BASE) > _ENTROPY_BASE_MAX:
            _ENTROPY_BASE.popitem(last=False)
    else:
        _ENTROPY_BASE.move_to_end(base)
    return g


def _entropy_g_and_log_m(base: float, m: float) -> Tuple[GFunction, float]:
    if base == 2.0:
        return ENTROPY_SUM, math.log2(m)
    log_m = math.log(m) / math.log(base)
    return (ENTROPY_NATS if base == math.e
            else _entropy_gfunction(base)), log_m


def entropy_from_snapshot(snapshot: QuerySnapshot,
                          base: float = 2.0) -> float:
    """``H = log m - S/m`` over an already-built snapshot (batch path)."""
    m = float(snapshot.total_weight)
    if m <= 0:
        return 0.0
    g, log_m = _entropy_g_and_log_m(base, m)
    _check(g)
    s = snapshot.gsum(g)
    h = log_m - s / m
    return min(max(h, 0.0), log_m)


def estimate_entropy(sketch, base: float = 2.0) -> float:
    """Shannon entropy ``H = log m - S/m`` with ``S = sum f log f`` (§3.4).

    The result is clamped to the feasible range ``[0, log m]`` (entropy
    is maximised by the uniform stream, whose ``m`` elements cannot
    spread over more than ``m`` distinct keys).
    """
    with _query_span("entropy"):
        return entropy_from_snapshot(sketch.query_snapshot(), base=base)


def estimate_moment(sketch, p: float) -> float:
    """Frequency moment ``F_p = sum f_i**p`` for ``0 <= p <= 2``."""
    with _query_span("moment"):
        return max(0.0, estimate_gsum(sketch, make_moment(p)))


def heavy_changes(sketch_a, sketch_b, phi: float,
                  min_change: float = 1.0) -> Tuple[List[Tuple[int, float]], float]:
    """Change detection between two epochs (§3.4).

    Subtracts the epoch sketches (Count Sketch linearity), snapshots the
    difference sketch *once*, estimates the total change ``D`` with
    ``g(x)=|x|``, and returns the candidate keys whose estimated |delta|
    is at least ``phi * D``, plus D itself.

    Returns
    -------
    (changes, total_change):
        ``changes`` is a list of ``(key, signed_delta_estimate)`` sorted
        by magnitude; ``total_change`` is the estimated D.
    """
    with _query_span("heavy_changes"):
        diff = sketch_a.subtract(sketch_b)
        # One snapshot serves both the D estimate and the G-core listing.
        snapshot = diff.query_snapshot()
        _check(ABS)
        total = max(0.0, snapshot.gsum(ABS))
        if total <= 0:
            return [], 0.0
        threshold = max(phi * total, min_change)
        changes = snapshot.gcore(1.0, total=threshold)
        return changes, total


__all__ = [
    "estimate_gsum",
    "estimate_gsum_scalar",
    "g_core",
    "estimate_cardinality",
    "estimate_l1",
    "estimate_l2",
    "estimate_f2",
    "estimate_entropy",
    "entropy_from_snapshot",
    "estimate_moment",
    "heavy_changes",
    "IDENTITY",
]
