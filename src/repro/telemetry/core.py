"""Process-wide metrics registry and span tracing.

Design goals, in priority order:

1. **Near-zero overhead when disabled.** Every public hook
   (:func:`count`, :func:`observe`, :func:`gauge_set`, :func:`span`)
   first reads a single module global; when telemetry is off that read
   plus one ``is None`` branch is the entire cost, and :func:`span`
   returns a shared no-op singleton so the disabled path allocates
   nothing.
2. **Exact percentiles that merge across processes.** Every histogram
   shares one fixed, log-spaced bucket-bound table, so merging two
   snapshots is element-wise summation of bucket counts and a
   cross-process merge is *exactly* equivalent to having streamed all
   observations into a single histogram. Quantile extraction is
   exact-rank over the cumulative counts (the reported value is the
   bucket upper bound clamped to the observed ``[min, max]``), so a
   one-sample histogram reports that sample exactly at every quantile.
3. **Stdlib only.** The telemetry package must be importable from every
   layer (engine, interp, service, rl, deploy) without creating import
   cycles, so it depends on nothing inside ``repro``.

Gating: ``REPRO_TELEMETRY=off|on|trace`` (default ``off``). ``trace``
additionally records per-span begin/end events with parent/child ids,
retrievable via :func:`trace_events`.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from collections import deque as _deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "BUCKET_BOUNDS",
    "FLIGHT_SPANS",
    "Histogram",
    "MetricsRegistry",
    "READABLE_SCHEMAS",
    "SCHEMA_VERSION",
    "attach_trace",
    "configure",
    "configure_from_env",
    "count",
    "current_trace",
    "drain_trace_events",
    "enabled",
    "flight_spans",
    "gauge_set",
    "get_registry",
    "merge_snapshots",
    "mode",
    "observe",
    "quantile_from_snapshot",
    "reset_for_child",
    "set_flight_sink",
    "span",
    "trace_enabled",
    "trace_events",
]

# Version stamped onto every exported JSONL line (metrics snapshots and
# trace batches alike); readers skip lines whose schema they cannot
# parse, mirroring the persistent store's READABLE_VERSIONS gate, so the
# log format can evolve without breaking older `repro stats`/`repro
# trace` binaries reading a shared log.
SCHEMA_VERSION = 1
READABLE_SCHEMAS = frozenset({1})

# Completed spans kept in the per-process flight-recorder ring buffer
# (trace mode only); dumped into the trace log on VerificationError or
# worker death so the failing wave is reconstructable post-mortem.
FLIGHT_SPANS = 64

# --------------------------------------------------------------------------
# Shared histogram bucket geometry
# --------------------------------------------------------------------------

def _build_bounds() -> Tuple[float, ...]:
    """Fixed log-spaced bounds: 8 buckets per decade from 1e-7 to 1e4.

    One global table (rather than per-histogram bounds) is what makes
    snapshot merging a plain vector sum and keeps every exported record
    self-describing with a single shared schema. The range covers
    sub-microsecond span timings up to multi-hour wall clocks; counts
    such as batch sizes or interpreter steps also land comfortably
    inside it.
    """
    per_decade = 8
    lo_exp, hi_exp = -7, 4
    bounds = [
        10.0 ** (exp + i / per_decade)
        for exp in range(lo_exp, hi_exp)
        for i in range(per_decade)
    ]
    bounds.append(10.0 ** hi_exp)
    return tuple(bounds)


BUCKET_BOUNDS: Tuple[float, ...] = _build_bounds()
_NBUCKETS = len(BUCKET_BOUNDS) + 1  # +1 overflow bucket


def _bucket_index(value: float) -> int:
    """Index of the first bound >= value (bisect over the fixed table)."""
    lo, hi = 0, len(BUCKET_BOUNDS)
    while lo < hi:
        mid = (lo + hi) // 2
        if BUCKET_BOUNDS[mid] < value:
            lo = mid + 1
        else:
            hi = mid
    return lo


# --------------------------------------------------------------------------
# Histogram
# --------------------------------------------------------------------------

class Histogram:
    """Fixed-bucket histogram with exact-rank quantiles.

    Not internally locked; the registry serializes mutation. ``min``/
    ``max``/``sum`` are tracked exactly so single-sample and clamped
    quantiles stay exact.
    """

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * _NBUCKETS
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[_bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> Optional[float]:
        return _quantile(self.counts, self.count, self.min, self.max, q)

    def snapshot(self) -> Dict[str, Any]:
        """Sparse, merge-ready dict: only non-empty buckets are listed."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "buckets": {str(i): c for i, c in enumerate(self.counts) if c},
        }


def _quantile(counts: List[int], total: int, lo: float, hi: float,
              q: float) -> Optional[float]:
    """Exact-rank quantile: value at rank ``max(1, ceil(q * total))``.

    The reported value is the upper bound of the bucket holding that
    rank, clamped to the observed ``[lo, hi]`` — so ``q=1.0`` returns
    the true maximum and a single-sample histogram returns its sample
    at every quantile.
    """
    if total <= 0:
        return None
    rank = max(1, math.ceil(q * total))
    seen = 0
    for i, c in enumerate(counts):
        seen += c
        if seen >= rank:
            upper = BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else hi
            return min(max(upper, lo), hi)
    return hi  # unreachable when counts sum to total


def quantile_from_snapshot(snap: Dict[str, Any], q: float) -> Optional[float]:
    """Exact-rank quantile over a (possibly merged) snapshot dict."""
    total = int(snap.get("count") or 0)
    if total <= 0:
        return None
    counts = [0] * _NBUCKETS
    for idx, c in (snap.get("buckets") or {}).items():
        counts[int(idx)] = int(c)
    return _quantile(counts, total, float(snap["min"]), float(snap["max"]), q)


def merge_snapshots(snaps: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge histogram snapshots; exactly equals a single-process stream
    of the union of observations (shared bucket table => vector sum)."""
    counts = [0] * _NBUCKETS
    total = 0
    acc = 0.0
    lo, hi = math.inf, -math.inf
    for snap in snaps:
        c = int(snap.get("count") or 0)
        if c == 0:
            continue
        total += c
        acc += float(snap.get("sum") or 0.0)
        lo = min(lo, float(snap["min"]))
        hi = max(hi, float(snap["max"]))
        for idx, n in (snap.get("buckets") or {}).items():
            counts[int(idx)] += int(n)
    return {
        "count": total,
        "sum": acc,
        "min": None if total == 0 else lo,
        "max": None if total == 0 else hi,
        "buckets": {str(i): c for i, c in enumerate(counts) if c},
    }


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

class MetricsRegistry:
    """Thread-safe home for every counter/gauge/histogram in a process."""

    def __init__(self, trace: bool = False,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._trace = trace
        self._events: List[Dict[str, Any]] = []
        self._span_ids = itertools.count(1)
        self._span_stack = threading.local()
        # Span/trace ids carry a per-registry random seed so they stay
        # globally unique across processes (and across reset_for_child
        # within one process) — a worker's span can cite a client span
        # as parent without coordination. Allocated only under trace
        # mode; the metrics-only path never touches any of this.
        if trace:
            self._id_seed = os.urandom(4).hex()
            self._trace_ids = itertools.count(1)
            self._flight = _deque(maxlen=FLIGHT_SPANS)
            self._flight_last_exc: Optional[int] = None
        self.attrs = dict(attrs or {})
        self.created = time.time()

    # -- metric mutation ---------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge_set(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def gauge_add(self, name: str, delta: float) -> None:
        with self._lock:
            self._gauges[name] = self._gauges.get(name, 0.0) + delta

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> "_Span":
        return _Span(self, name, attrs)

    def _new_span_id(self) -> str:
        return f"{self._id_seed}.{next(self._span_ids)}"

    def _new_trace_id(self) -> str:
        return f"T{self._id_seed}.{next(self._trace_ids)}"

    def _span_begin(self) -> Tuple[str, str, Optional[str]]:
        """Allocate a span id and resolve (span, trace, parent) for a
        span opening on the calling thread: nested spans inherit the
        thread's open trace, root spans inherit an attached remote
        context when one is set, and otherwise mint a fresh trace id.
        Trace mode only."""
        tl = self._span_stack
        stack = getattr(tl, "stack", None)
        if stack is None:
            stack = tl.stack = []
        if stack:
            parent: Optional[str] = stack[-1]
            trace_id = tl.trace
        else:
            remote = getattr(tl, "remote", None)
            if remote is not None:
                trace_id, parent = remote
            else:
                trace_id, parent = self._new_trace_id(), None
            tl.trace = trace_id
        span_id = self._new_span_id()
        stack.append(span_id)
        return span_id, trace_id, parent

    def _span_end(self) -> None:
        tl = self._span_stack
        stack = getattr(tl, "stack", None)
        if stack:
            stack.pop()
            if not stack:
                tl.trace = None

    def current_trace(self) -> Optional[Tuple[str, Optional[str]]]:
        """(trace id, innermost open span id) on the calling thread, the
        attached remote context when no span is open, else None."""
        tl = self._span_stack
        stack = getattr(tl, "stack", None)
        if stack:
            return (tl.trace, stack[-1])
        remote = getattr(tl, "remote", None)
        return (remote[0], remote[1]) if remote is not None else None

    def attach(self, ctx) -> "_TraceAttach":
        return _TraceAttach(self, (str(ctx[0]),
                                   None if ctx[1] is None else str(ctx[1])))

    def _trace_event(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append(event)

    @property
    def trace(self) -> bool:
        return self._trace

    def trace_events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def drain_trace_events(self) -> List[Dict[str, Any]]:
        """Return accumulated trace events and clear the buffer — the
        exporter's read side, so periodic flushes never duplicate."""
        with self._lock:
            events, self._events = self._events, []
        return events

    def flight_spans(self) -> List[Dict[str, Any]]:
        """The last-N completed spans (trace mode only; [] otherwise)."""
        if not self._trace:
            return []
        with self._lock:
            return list(self._flight)

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "attrs": dict(self.attrs),
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: h.snapshot()
                    for name, h in self._histograms.items()
                },
            }



class _Span:
    """Timing context manager; records a ``<name>.seconds`` histogram
    sample on exit and, under ``trace`` mode, begin/end events carrying
    trace/span/parent ids and attributes."""

    __slots__ = ("_registry", "name", "attrs", "_start", "span_id",
                 "parent_id", "trace_id")

    def __init__(self, registry: MetricsRegistry, name: str,
                 attrs: Dict[str, Any]) -> None:
        self._registry = registry
        self.name = name
        self.attrs = attrs
        self._start = 0.0
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self.trace_id: Optional[str] = None

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "_Span":
        reg = self._registry
        if reg.trace:
            self.span_id, self.trace_id, self.parent_id = reg._span_begin()
            reg._trace_event({
                "event": "begin", "span": self.span_id,
                "parent": self.parent_id, "trace": self.trace_id,
                "name": self.name, "ts": time.time(),
                "tid": threading.get_ident(), "attrs": dict(self.attrs),
            })
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        reg = self._registry
        reg.observe(self.name + ".seconds", elapsed)
        if exc_type is not None:
            reg.count(self.name + ".errors")
        if reg.trace:
            reg._span_end()
            record = {
                "event": "end", "span": self.span_id,
                "parent": self.parent_id, "trace": self.trace_id,
                "name": self.name, "ts": time.time(), "seconds": elapsed,
                "tid": threading.get_ident(),
                "error": exc_type.__name__ if exc_type else None,
                "attrs": dict(self.attrs),
            }
            with reg._lock:
                reg._events.append(record)
                reg._flight.append(record)
            # Flight-recorder dump: a VerificationError anywhere in the
            # stack (REPRO_SIM_KERNELS=verify) snapshots the last-N
            # spans into the trace log for post-mortems. Matched by name
            # because telemetry stays stdlib-only (no repro imports);
            # deduped per exception instance so one error unwinding
            # through nested spans dumps once.
            if (exc_type is not None and _flight_sink is not None
                    and exc_type.__name__ == "VerificationError"
                    and reg._flight_last_exc != id(exc)):
                reg._flight_last_exc = id(exc)
                try:
                    _flight_sink(f"VerificationError in span {self.name}")
                except Exception:
                    pass


class _TraceAttach:
    """Thread-local remote trace context for the duration of a block:
    root spans opened inside parent to ``ctx = (trace_id, span_id)``
    instead of minting a fresh trace — the receive side of cross-process
    (and cross-thread) propagation."""

    __slots__ = ("_registry", "_ctx", "_prev")

    def __init__(self, registry: MetricsRegistry,
                 ctx: Tuple[str, Optional[str]]) -> None:
        self._registry = registry
        self._ctx = ctx
        self._prev: Any = None

    def __enter__(self) -> "_TraceAttach":
        tl = self._registry._span_stack
        self._prev = getattr(tl, "remote", None)
        tl.remote = self._ctx
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._registry._span_stack.remote = self._prev


class _NoopSpan:
    """Shared do-nothing span; the entire disabled-mode span cost is one
    global read and returning this singleton (zero allocation)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set_attr(self, key: str, value: Any) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


# --------------------------------------------------------------------------
# Module-level gate + hooks
# --------------------------------------------------------------------------

_registry: Optional[MetricsRegistry] = None


def configure(mode: str = "on",
              attrs: Optional[Dict[str, Any]] = None) -> Optional[MetricsRegistry]:
    """Install (or tear down, with ``mode='off'``) the global registry."""
    global _registry
    if mode not in ("off", "on", "trace"):
        raise ValueError(f"unknown telemetry mode {mode!r}; "
                         "expected off|on|trace")
    if mode == "off":
        _registry = None
    else:
        _registry = MetricsRegistry(trace=(mode == "trace"), attrs=attrs)
    return _registry


def configure_from_env(attrs: Optional[Dict[str, Any]] = None) -> Optional[MetricsRegistry]:
    return configure(os.environ.get("REPRO_TELEMETRY", "off").strip().lower()
                     or "off", attrs=attrs)


def reset_for_child(attrs: Optional[Dict[str, Any]] = None) -> Optional[MetricsRegistry]:
    """Replace a fork-inherited registry with a fresh one (same mode).

    Forked workers inherit the parent's counters; without this reset a
    worker snapshot would double-count everything the parent had already
    recorded at fork time.
    """
    global _registry
    if _registry is None:
        return None
    merged = dict(_registry.attrs)
    merged.update(attrs or {})
    _registry = MetricsRegistry(trace=_registry.trace, attrs=merged)
    return _registry


def get_registry() -> Optional[MetricsRegistry]:
    return _registry


def enabled() -> bool:
    return _registry is not None


def trace_enabled() -> bool:
    return _registry is not None and _registry.trace


def mode() -> str:
    if _registry is None:
        return "off"
    return "trace" if _registry.trace else "on"


def count(name: str, value: float = 1.0) -> None:
    reg = _registry
    if reg is not None:
        reg.count(name, value)


def gauge_set(name: str, value: float) -> None:
    reg = _registry
    if reg is not None:
        reg.gauge_set(name, value)


def gauge_add(name: str, delta: float) -> None:
    reg = _registry
    if reg is not None:
        reg.gauge_add(name, delta)


def observe(name: str, value: float) -> None:
    reg = _registry
    if reg is not None:
        reg.observe(name, value)


def span(name: str, **attrs: Any):
    reg = _registry
    if reg is None:
        return _NOOP_SPAN
    return reg.span(name, **attrs)


def trace_events() -> List[Dict[str, Any]]:
    reg = _registry
    return reg.trace_events() if reg is not None else []


def drain_trace_events() -> List[Dict[str, Any]]:
    reg = _registry
    if reg is None or not reg.trace:
        return []
    return reg.drain_trace_events()


def current_trace() -> Optional[Tuple[str, Optional[str]]]:
    """Context to propagate across a process/thread boundary, or None.
    Always None outside trace mode — the near-free off/on path never
    allocates trace context."""
    reg = _registry
    if reg is None or not reg.trace:
        return None
    return reg.current_trace()


def attach_trace(ctx):
    """Context manager adopting a remote ``(trace_id, parent_span_id)``
    pair (e.g. decoded from a request tuple) as the parent of root spans
    opened inside. No-op (shared singleton, zero allocation) when trace
    mode is off, ``ctx`` is None, or ``ctx`` is malformed — old peers
    sending nothing keep working."""
    reg = _registry
    if reg is None or not reg.trace or not ctx:
        return _NOOP_SPAN
    try:
        trace_id, parent = ctx[0], ctx[1]
    except (TypeError, IndexError, KeyError):
        return _NOOP_SPAN
    if not trace_id:
        return _NOOP_SPAN
    return reg.attach((trace_id, parent))


def flight_spans() -> List[Dict[str, Any]]:
    reg = _registry
    return reg.flight_spans() if reg is not None else []


# Installed by repro.telemetry.export at import time; writes the flight
# ring buffer into the trace log. A hook (rather than an import) keeps
# core free of any dependency on the exporter.
_flight_sink: Optional[Callable[[str], Any]] = None


def set_flight_sink(fn: Optional[Callable[[str], Any]]) -> None:
    global _flight_sink
    _flight_sink = fn


def snapshot() -> Optional[Dict[str, Any]]:
    reg = _registry
    return reg.snapshot() if reg is not None else None


# Configure from the environment at import time so instrumented modules
# need no explicit setup; tests and the CLI may re-call configure().
configure_from_env()
