"""The metrics registry: counters, gauges, and fixed-bucket histograms.

One process-wide registry holds the repo's telemetry — per-stage wall
time, simulation counts per kernel, service counters, and per-job
latency histograms — behind a single snapshot API:

* :func:`registry` returns the registry writes go to: the innermost
  open :func:`scope`, else the process-wide one;
* ``registry().snapshot()`` is a JSON-serializable view of everything,
  embedded verbatim in run manifests and served at ``/v1/metrics``;
* :func:`scope` gives a batch, a worker job, or a bench its own
  registry, folded into the enclosing one on exit; workers relay a job
  scope's snapshot for the coordinator to :meth:`~MetricsRegistry.absorb`;
* :func:`timed` and :func:`timed_iterator` charge wall time to
  ``stage_seconds.<stage>`` counters, which :func:`stage_seconds` reads.

Histograms use fixed bucket boundaries (cumulative-free, plain
per-bucket counts) so cross-process merges are exact; quantiles are
estimated by linear interpolation inside the bucket that crosses the
requested rank — the standard Prometheus-style estimate, plenty for
p50/p99 latency reporting.

Everything here is observability only: metrics never feed results,
cache keys, or control flow.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, TypeVar

from repro.obs import tracer

_T = TypeVar("_T")

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "JOB_SECONDS",
    "STAGES",
    "STAGE_PREFIX",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_quantiles",
    "format_stages",
    "histogram_quantile",
    "quantiles",
    "registry",
    "reset",
    "scope",
    "stage_seconds",
    "timed",
    "timed_iterator",
]

#: Log-ish spaced latency boundaries in seconds: 1 ms .. 5 min. A job
#: faster than 1 ms lands in the first bucket, slower than 300 s in the
#: overflow bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: The per-job wall-time histogram every backend observes into.
JOB_SECONDS = "job_seconds"

#: Simulation stages in pipeline order (trace chunk pulls, the cycle
#: loop, statistics and pricing); other names print after these.
STAGES = ("generate", "kernel", "pricing")

#: Stage ``generate`` is the counter ``stage_seconds.generate``.
STAGE_PREFIX = "stage_seconds."


class Counter:
    """A monotonically increasing float total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.add(amount)

    def add(self, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max sidecars.

    ``counts`` has ``len(boundaries) + 1`` slots: observation ``v`` lands
    in the first bucket whose upper boundary satisfies ``v <= bound``,
    or the final overflow bucket.
    """

    __slots__ = ("name", "boundaries", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(float(b) for b in boundaries)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name!r} boundaries must be strictly increasing, got {boundaries!r}"
            )
        self.name = name
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> dict:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def quantile(self, q: float) -> float:
        return histogram_quantile(self.snapshot(), q)


def histogram_quantile(snapshot: dict, q: float) -> float:
    """Estimate the ``q``-quantile (0..1) from a histogram snapshot.

    Linear interpolation inside the bucket that crosses the rank,
    clamped to the observed ``min``/``max`` when tracked — interpolation
    must never report a quantile outside the range of what was actually
    seen. Returns 0.0 for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    boundaries = snapshot.get("boundaries") or []
    counts = snapshot.get("counts") or []
    total = snapshot.get("count") or 0
    if total <= 0 or len(counts) != len(boundaries) + 1:
        return 0.0

    def clamp_observed(value: float) -> float:
        observed_max = snapshot.get("max")
        if observed_max is not None:
            value = min(value, float(observed_max))
        observed_min = snapshot.get("min")
        if observed_min is not None:
            value = max(value, float(observed_min))
        return value

    rank = q * total
    seen = 0
    for index, bucket_count in enumerate(counts):
        if bucket_count <= 0:
            continue
        if seen + bucket_count >= rank:
            lo = boundaries[index - 1] if index > 0 else 0.0
            if index < len(boundaries):
                hi = boundaries[index]
            else:
                observed_max = snapshot.get("max")
                hi = observed_max if observed_max is not None else boundaries[-1]
                hi = max(hi, lo)
            fraction = (rank - seen) / bucket_count
            return clamp_observed(lo + (hi - lo) * min(1.0, max(0.0, fraction)))
        seen += bucket_count
    observed_max = snapshot.get("max")
    return float(observed_max) if observed_max is not None else float(boundaries[-1])


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Thread-safe at the registration level; individual float bumps ride
    CPython's atomic dict/float semantics, and concurrent batches each
    write to their own :func:`scope`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (create on first use) --------------------

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(
        self, name: str, boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.histograms.setdefault(name, Histogram(name, boundaries))
        return instrument

    # -- snapshots and merges ------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serializable copy of every instrument's current state."""
        with self._lock:
            return {
                "counters": {name: c.value for name, c in self.counters.items()},
                "gauges": {name: g.value for name, g in self.gauges.items()},
                "histograms": {
                    name: h.snapshot() for name, h in self.histograms.items()
                },
            }

    def absorb(self, other: dict) -> None:
        """Merge a :meth:`snapshot` (possibly another process's) into this one."""
        if not isinstance(other, dict):
            return
        for name, gained in (other.get("counters") or {}).items():
            if isinstance(gained, (int, float)) and gained > 0:
                self.counter(name).add(float(gained))
        for name, value in (other.get("gauges") or {}).items():
            if isinstance(value, (int, float)):
                self.gauge(name).set(float(value))
        for name, snap in (other.get("histograms") or {}).items():
            if not isinstance(snap, dict):
                continue
            boundaries = snap.get("boundaries") or DEFAULT_LATENCY_BUCKETS
            try:
                instrument = self.histogram(name, boundaries)
            except ValueError:
                continue
            counts = snap.get("counts") or []
            if list(instrument.boundaries) != list(boundaries) or len(counts) != len(
                instrument.counts
            ):
                # Boundary skew across versions: fold the merged mass
                # into count/sum only, never into mismatched buckets.
                counts = []
            for index, bucket_count in enumerate(counts):
                if isinstance(bucket_count, int) and bucket_count > 0:
                    instrument.counts[index] += bucket_count
            instrument.count += int(snap.get("count") or 0)
            instrument.sum += float(snap.get("sum") or 0.0)
            for side, better in (("min", min), ("max", max)):
                value = snap.get(side)
                if isinstance(value, (int, float)):
                    current = getattr(instrument, side)
                    setattr(
                        instrument,
                        side,
                        value if current is None else better(current, value),
                    )

    def reset(self) -> None:
        """Drop every instrument (tests, embedding applications)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()


_registry = MetricsRegistry()

#: The innermost open :func:`scope` of the current execution context.
_scoped: ContextVar[MetricsRegistry] = ContextVar("repro_metrics_scope")


def registry() -> MetricsRegistry:
    """The registry writes go to: the innermost open :func:`scope`, else
    the process-wide one."""
    return _scoped.get(_registry)


def reset() -> None:
    """Clear the process-wide registry (tests, embedding applications)."""
    _registry.reset()


@contextmanager
def scope() -> Iterator[MetricsRegistry]:
    """Collect the enclosed block's metrics in a fresh registry.

    Inside the block :func:`registry` returns the yielded registry, so
    its snapshot holds exactly what the block recorded (histogram
    min/max included). On exit, exception or not, it folds into the
    registry that was current when the scope opened: concurrent scopes
    never see each other's writes. Scopes follow :mod:`contextvars`: a
    plain thread starts outside them; ``asyncio.to_thread`` inherits.
    """
    parent = registry()
    child = MetricsRegistry()
    token = _scoped.set(child)
    try:
        yield child
    finally:
        _scoped.reset(token)
        parent.absorb(child.snapshot())


def quantiles(
    snapshot: dict, qs: Iterable[float] = (0.5, 0.9, 0.99)
) -> Dict[str, float]:
    """``{"p50": ..., "p90": ..., "p99": ...}`` from a histogram snapshot."""
    out: Dict[str, float] = {}
    for q in qs:
        label = f"p{q * 100:g}"
        out[label] = histogram_quantile(snapshot, q)
    return out


def format_quantiles(marks: Dict[str, float]) -> str:
    """``p50=0.0123s p90=... p99=...``, in quantile order."""
    return " ".join(
        f"{label}={marks[label]:.4f}s"
        for label in sorted(marks, key=lambda k: float(k[1:]))
    )


# -- stage timing ---------------------------------------------------------------


@contextmanager
def timed(stage: str) -> Iterator[None]:
    """Charge the enclosed block's wall time to ``stage``, exception or not.

    Also a ``stage.<name>`` span when tracing is enabled (the disabled
    path costs one shared no-op context manager).
    """
    with tracer.span("stage." + stage, category="stage"):
        start = time.perf_counter()
        try:
            yield
        finally:
            registry().counter(STAGE_PREFIX + stage).add(time.perf_counter() - start)


def timed_iterator(stage: str, iterable: Iterable[_T]) -> Iterator[_T]:
    """Yield from ``iterable``, charging each ``next()`` to ``stage``.

    This is how lazy trace generation gets attributed: the chunk
    iterator does its work inside ``next()``, which this wrapper times,
    while the consumer's own time between pulls is charged elsewhere.
    """
    iterator = iter(iterable)
    done = object()
    while True:
        with timed(stage):
            item = next(iterator, done)
        if item is done:
            return
        yield item


def stage_seconds(snapshot: dict) -> Dict[str, float]:
    """The ``stage -> seconds`` map of a registry snapshot."""
    return {
        name[len(STAGE_PREFIX):]: value
        for name, value in snapshot["counters"].items()
        if name.startswith(STAGE_PREFIX)
    }


def format_stages(stages: Dict[str, float]) -> str:
    """One ``stage=1.234s`` token per stage, canonical stages first."""
    ordered = [s for s in STAGES if s in stages] + sorted(
        s for s in stages if s not in STAGES
    )
    return " ".join(f"{s}={stages[s]:.3f}s" for s in ordered)
