"""The batch scheduler and the one owner of result caching.

:func:`run_jobs` is the single entry point the experiments submit their
simulation batches through. It

1. deduplicates the batch by canonical cache key (Figure 7's 12-cycle-L2
   batch and Figure 8's default batch are the same nine jobs);
2. resolves whatever it can through :func:`lookup`: the bounded
   in-process memo, then the persistent result store (local, shared, or
   layered, see :mod:`repro.exec.stores`);
3. hands the remaining jobs to an :class:`~repro.exec.backends.ExecutionBackend`
   — in-process serial, the local process pool, or SSH fan-out across
   hosts (:mod:`repro.exec.backends`) — after stamping an explicit
   process-wide ``--kernel`` into them;
4. publishes fresh results into both tiers;
5. returns results in the submission order of the *original* batch, so
   every backend is observationally identical (the backend-equivalence
   CI gate asserts byte-identity across serial, pool, and
   ssh-localhost).

Both tiers share one key per job, :meth:`SimulationJob.cache_key`. The
memo is an LRU of :data:`MEMO_ENTRIES` results, so a long-lived
``repro serve`` stays bounded; ``cache.memo_evictions`` counts what it
drops.

The default worker count is process-wide state set by the CLIs'
``--jobs`` flag (or ``$REPRO_JOBS``); the default backend by
``--backend`` (or ``$REPRO_BACKEND``). Library callers can override
both per batch.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.cpu.simulator import SimulationResult
from repro.exec import cache as result_cache
from repro.exec.backends import (
    ExecutionBackend,
    resolve_backend,
    set_default_backend,
)
from repro.exec.jobs import SimulationJob
from repro.obs import metrics as obs_metrics
from repro.obs import tracer

__all__ = [
    "ENV_JOBS",
    "MEMO_ENTRIES",
    "BatchReport",
    "backend_metrics",
    "backend_tallies",
    "clear_memo",
    "get_default_workers",
    "lookup",
    "reset_telemetry",
    "resolve_workers",
    "run_jobs",
    "set_default_backend",
    "set_default_workers",
    "telemetry_lines",
]

ENV_JOBS = "REPRO_JOBS"

_default_workers: Optional[int] = None


def resolve_workers(workers: Optional[int] = None) -> int:
    """Normalize a worker-count request to a concrete positive integer.

    ``None`` falls back to the process-wide default (itself defaulting to
    ``$REPRO_JOBS`` or 1); ``0`` means "all cores".
    """
    if workers is None:
        workers = _default_workers
    if workers is None:
        env = os.environ.get(ENV_JOBS, "")
        text = env.strip()
        # isdigit() admits 0, which means "all cores" exactly like
        # --jobs 0. Malformed values fall back to serial — loudly, so a
        # typo'd REPRO_JOBS=-2 cannot silently run single-worker.
        if text.isdigit():
            workers = int(text)
        else:
            if text:
                print(
                    f"[repro] ignoring {ENV_JOBS}={env!r}: expected a "
                    "non-negative integer; running serial",
                    file=sys.stderr,
                )
            workers = 1
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def set_default_workers(workers: Optional[int]) -> None:
    """Set the process-wide worker count used when callers pass ``None``."""
    global _default_workers
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    _default_workers = workers


def get_default_workers() -> int:
    """The resolved process-wide worker count."""
    return resolve_workers(None)


@dataclass
class BatchReport:
    """What :func:`run_jobs` did with one batch (for logging and tests).

    ``cache_hits``/``cache_misses`` partition the *unique* jobs by
    whether a cache layer answered them; ``executed`` counts jobs a
    backend completed and ``failed`` those that aborted the batch, so
    on success ``executed == cache_misses`` and a warm batch shows
    ``executed == 0``.
    """

    submitted: int = 0
    unique: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    failed: int = 0
    workers_used: int = 1
    #: Which backend ran the pending jobs ("" for an all-warm batch —
    #: no backend was consulted at all).
    backend: str = ""
    #: Per-stage wall time (generate/kernel/pricing seconds) of this
    #: batch alone, from its metrics scope, into which pool and SSH
    #: workers relay each job's stages. Observability only: never
    #: results or cache keys.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Per-job wall-time quantiles (``{"p50": ..., "p90": ..., "p99":
    #: ...}`` seconds) of the jobs this batch executed, from its metrics
    #: scope. Empty for an all-warm batch. Observability only.
    latency_quantiles: Dict[str, float] = field(default_factory=dict)


# -- per-backend telemetry -----------------------------------------------------

#: One registry per backend name ("(warm)" for batches the caches fully
#: answered), fed at batch end with the batch's scope, ``batch.<field>``
#: counters, and a ``batch.workers`` histogram. ``--verbose`` prints
#: them; the backend-equivalence CI gate greps that output.
_BACKENDS: Dict[str, obs_metrics.MetricsRegistry] = {}

_COUNTER_FIELDS = ("submitted", "unique", "cache_hits", "cache_misses", "executed", "failed")


def _record_batch(batch: BatchReport, batch_metrics: dict) -> None:
    registry = _BACKENDS.setdefault(batch.backend or "(warm)", obs_metrics.MetricsRegistry())
    registry.absorb(batch_metrics)
    for name in _COUNTER_FIELDS:
        registry.counter("batch." + name).add(getattr(batch, name))
    registry.histogram("batch.workers").observe(batch.workers_used)


def backend_metrics() -> Dict[str, dict]:
    """A snapshot of each backend's registry, sorted by backend name."""
    return {name: registry.snapshot() for name, registry in sorted(_BACKENDS.items())}


def backend_tallies() -> Dict[str, dict]:
    """Per-backend totals, sorted by name (the manifest's ``backends``).

    Each holds the :class:`BatchReport` counters summed, the largest
    batch's ``workers_used``, ``stage_seconds``, and the quantiles of
    the merged latency histogram (never sums of quantiles).
    """
    tallies: Dict[str, dict] = {}
    for name, snap in backend_metrics().items():
        counters, histograms = snap["counters"], snap["histograms"]
        tally = {field_: int(counters["batch." + field_]) for field_ in _COUNTER_FIELDS}
        tally["workers_used"] = int(histograms["batch.workers"]["max"])
        tally["stage_seconds"] = obs_metrics.stage_seconds(snap)
        jobs = histograms.get(obs_metrics.JOB_SECONDS)
        tally["latency_quantiles"] = obs_metrics.quantiles(jobs) if jobs else {}
        tallies[name] = tally
    return tallies


def reset_telemetry() -> None:
    """Zero the per-backend totals (tests, embedding applications)."""
    _BACKENDS.clear()


def telemetry_lines() -> List[str]:
    """The ``--verbose`` per-backend counter lines, sorted by backend.

    Backends that accrued simulation stage time get a second line with
    the generate/kernel/pricing wall-time split, and backends that
    executed jobs a third with the per-job latency quantiles.
    """
    lines: List[str] = []
    for name, t in backend_tallies().items():
        lines.append(
            f"[repro] backend {name}: submitted={t['submitted']} unique={t['unique']} "
            f"hits={t['cache_hits']} misses={t['cache_misses']} executed={t['executed']} "
            f"failed={t['failed']} workers={t['workers_used']}"
        )
        if t["stage_seconds"]:
            lines.append(f"[repro] stages {name}: {obs_metrics.format_stages(t['stage_seconds'])}")
        if t["latency_quantiles"]:
            marks = obs_metrics.format_quantiles(t["latency_quantiles"])
            lines.append(f"[repro] latency {name}: {marks}")
    return lines


# -- result caching ------------------------------------------------------------

#: Results the in-process memo holds. The largest benchmark workload needs
#: 105 distinct simulations and the full suite 81, so none evicts.
MEMO_ENTRIES = 256

#: Cache key -> result, least recently used first. Locked: serve probes it
#: from worker threads while batches run on others.
_MEMO: "OrderedDict[str, SimulationResult]" = OrderedDict()
_MEMO_LOCK = threading.Lock()


def _remember(key: str, result: SimulationResult) -> None:
    with _MEMO_LOCK:
        _MEMO[key] = result
        _MEMO.move_to_end(key)
        evicted = max(0, len(_MEMO) - MEMO_ENTRIES)
        for _ in range(evicted):
            _MEMO.popitem(last=False)
    if evicted:
        obs_metrics.registry().counter("cache.memo_evictions").add(evicted)


def lookup(key: str) -> Optional[SimulationResult]:
    """The cached result for ``key``, or ``None``; never runs anything.

    Checks the memo, then the store, promoting a store hit into the memo.
    """
    with _MEMO_LOCK:
        if key in _MEMO:
            _MEMO.move_to_end(key)
            return _MEMO[key]
    store = result_cache.active()
    stored = store.get(key) if store is not None else None
    if not isinstance(stored, SimulationResult):
        return None
    _remember(key, stored)
    return stored


def _publish(key: str, result: SimulationResult) -> None:
    _remember(key, result)
    store = result_cache.active()
    if store is None:
        return
    try:
        store.put(key, result)
    except OSError as error:
        # A misconfigured or read-only store must not discard a completed
        # simulation: warn once and fall back to memo-only.
        print(
            f"[repro] warning: cannot write result cache "
            f"({store.describe()}): {error}; persistent caching disabled",
            file=sys.stderr,
        )
        result_cache.configure(enabled=False)


def clear_memo() -> None:
    """Drop every memoized result (tests, embedders); the store is untouched."""
    with _MEMO_LOCK:
        _MEMO.clear()


# -- batch execution -----------------------------------------------------------


def run_jobs(
    jobs: Iterable[SimulationJob],
    workers: Optional[int] = None,
    use_cache: bool = True,
    report: Optional[BatchReport] = None,
    backend: Union[None, str, ExecutionBackend] = None,
) -> List[SimulationResult]:
    """Execute a batch of simulation jobs, returning results in order.

    Duplicate jobs (by canonical key) are simulated once; results are
    deterministic and independent of the worker count *and* of the
    backend (``None`` uses the process-wide default, a string is a
    ``--backend`` spec, anything else an
    :class:`~repro.exec.backends.ExecutionBackend` instance). A failed
    job aborts the batch: the exception propagates after the counters
    are recorded, and no partial result list is returned.
    """
    ordered = list(jobs)
    backend_obj = resolve_backend(backend, workers=workers)
    keys = [job.cache_key() for job in ordered]
    unique: Dict[str, SimulationJob] = {}
    for key, job in zip(keys, ordered):
        unique.setdefault(key, job)
    results: Dict[str, SimulationResult] = {}
    pending: List[Tuple[str, SimulationJob]] = []

    with tracer.span(
        "engine.run_jobs", category="engine", submitted=len(ordered)
    ) as run_span, obs_metrics.scope() as batch_metrics:
        for key, job in unique.items():
            hit = lookup(key) if use_cache else None
            if hit is not None:
                results[key] = hit
            else:
                pending.append((key, job))
        run_span.set(
            unique=len(unique),
            cache_hits=len(unique) - len(pending),
            pending=len(pending),
        )

        workers_used = 1
        executed = 0
        failed = 0
        try:
            if pending:
                workers_used = backend_obj.workers_for(len(pending))
                stamped = [job.with_stamped_defaults() for _, job in pending]
                with tracer.span(
                    "backend.submit",
                    category="backend",
                    backend=backend_obj.name,
                    jobs=len(stamped),
                    workers=workers_used,
                ):
                    for index, result in backend_obj.submit_batch(stamped):
                        key = pending[index][0]
                        results[key] = result
                        executed += 1
                        if use_cache:
                            _publish(key, result)
        except BaseException:
            failed = 1
            raise
        finally:
            snap = batch_metrics.snapshot()
            jobs_timed = snap["histograms"].get(obs_metrics.JOB_SECONDS)
            batch = BatchReport(
                submitted=len(ordered),
                unique=len(unique),
                cache_hits=len(unique) - len(pending),
                cache_misses=len(pending),
                executed=executed,
                failed=failed,
                workers_used=workers_used,
                backend=backend_obj.name if pending else "",
                stage_seconds=obs_metrics.stage_seconds(snap),
                latency_quantiles=obs_metrics.quantiles(jobs_timed) if jobs_timed else {},
            )
            _record_batch(batch, snap)
            if report is not None:
                for field_ in fields(BatchReport):
                    setattr(report, field_.name, getattr(batch, field_.name))

    return [results[key] for key in keys]
