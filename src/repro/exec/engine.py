"""The batch scheduler: deduplicate, resolve from the store, fan out.

:func:`run_jobs` is the single entry point the experiments submit their
simulation batches through. It

1. deduplicates the batch by canonical cache key (Figure 7's 12-cycle-L2
   batch and Figure 8's default batch are the same nine jobs);
2. resolves whatever it can from the cache layers (in-process memo, then
   the persistent result store — local, shared, or layered, see
   :mod:`repro.exec.stores`);
3. hands the remaining jobs to an :class:`~repro.exec.backends.ExecutionBackend`
   — in-process serial, the local process pool, or SSH fan-out across
   hosts (:mod:`repro.exec.backends`) — after stamping process-wide
   streaming/kernel defaults into them;
4. stores fresh results back into every cache layer;
5. returns results in the submission order of the *original* batch, so
   every backend is observationally identical (the backend-equivalence
   CI gate asserts byte-identity across serial, pool, and
   ssh-localhost).

The default worker count is process-wide state set by the CLIs'
``--jobs`` flag (or ``$REPRO_JOBS``); the default backend by
``--backend`` (or ``$REPRO_BACKEND``). Library callers can override
both per batch.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.cpu.simulator import SimulationResult, cached_result, store_result
from repro.exec.backends import (
    ExecutionBackend,
    resolve_backend,
    set_default_backend,
)
from repro.exec.jobs import SimulationJob
from repro.obs import metrics as obs_metrics
from repro.obs import tracer
from repro.util import stagetime

__all__ = [
    "ENV_JOBS",
    "BatchReport",
    "get_default_workers",
    "reset_telemetry",
    "resolve_workers",
    "run_jobs",
    "set_default_backend",
    "set_default_workers",
    "telemetry",
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
    #: Per-stage wall time (generate/decode/kernel/pricing seconds)
    #: accrued while this batch executed — the simulation stages of
    #: :mod:`repro.util.stagetime`. Serial and inline-pool runs measure
    #: directly; pool workers return their deltas with each result; SSH
    #: workers relay theirs over the wire protocol's negotiated
    #: ``metrics`` frame. Observability only: never results or cache keys.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: Per-job wall-time quantiles (``{"p50": ..., "p90": ..., "p99":
    #: ...}`` seconds) over the jobs this batch actually executed,
    #: sourced from the :data:`repro.obs.metrics.JOB_SECONDS` histogram
    #: delta. Empty for an all-warm batch. Observability only.
    latency_quantiles: Dict[str, float] = field(default_factory=dict)


# -- per-backend telemetry -----------------------------------------------------

#: Process-wide counters, one aggregate per backend name (plus "(warm)"
#: for batches fully answered by the caches). The CLIs print these
#: under ``--verbose``; the backend-equivalence CI gate greps them to
#: prove a warm fleet run executed zero jobs.
_TELEMETRY: Dict[str, BatchReport] = {}

#: Per-backend accumulated ``job_seconds`` histogram deltas: one tiny
#: private registry per backend name, merged batch by batch, so the
#: cumulative per-backend latency quantiles stay exact across batches
#: (quantiles of sums, never sums of quantiles).
_LATENCY: Dict[str, obs_metrics.MetricsRegistry] = {}

_COUNTER_FIELDS = ("submitted", "unique", "cache_hits", "cache_misses", "executed", "failed")


def _record_telemetry(report: BatchReport, latency_delta: Optional[dict]) -> None:
    name = report.backend or "(warm)"
    tally = _TELEMETRY.setdefault(name, BatchReport(backend=name))
    for name_ in _COUNTER_FIELDS:
        setattr(tally, name_, getattr(tally, name_) + getattr(report, name_))
    tally.workers_used = max(tally.workers_used, report.workers_used)
    stagetime.absorb_into(tally.stage_seconds, report.stage_seconds)
    if latency_delta and latency_delta.get("count"):
        _LATENCY.setdefault(name, obs_metrics.MetricsRegistry()).absorb(
            {"histograms": {obs_metrics.JOB_SECONDS: latency_delta}}
        )


def _tally_latency_quantiles(name: str) -> Dict[str, float]:
    """Cumulative per-backend p50/p90/p99 from the merged histograms."""
    registry = _LATENCY.get(name)
    if registry is None:
        return {}
    snap = registry.snapshot()["histograms"].get(obs_metrics.JOB_SECONDS)
    if not snap or not snap.get("count"):
        return {}
    return obs_metrics.quantiles(snap)


def _copy_report(tally: BatchReport) -> BatchReport:
    values = {f.name: getattr(tally, f.name) for f in fields(BatchReport)}
    values["stage_seconds"] = dict(tally.stage_seconds)
    values["latency_quantiles"] = _tally_latency_quantiles(tally.backend or "(warm)")
    return BatchReport(**values)


def telemetry() -> Dict[str, BatchReport]:
    """A copy of the process-wide per-backend counters."""
    return {name: _copy_report(tally) for name, tally in _TELEMETRY.items()}


def reset_telemetry() -> None:
    """Zero the process-wide counters (tests, embedding applications)."""
    _TELEMETRY.clear()
    _LATENCY.clear()


def telemetry_lines() -> List[str]:
    """The ``--verbose`` per-backend counter lines, sorted by backend.

    Backends that accrued simulation stage time get a second line with
    the generate/decode/kernel/pricing wall-time split, and backends
    that executed jobs a third with the per-job latency quantiles.
    """
    lines: List[str] = []
    for name, t in sorted(_TELEMETRY.items()):
        lines.append(
            f"[repro] backend {name}: submitted={t.submitted} unique={t.unique} "
            f"hits={t.cache_hits} misses={t.cache_misses} executed={t.executed} "
            f"failed={t.failed} workers={t.workers_used}"
        )
        if t.stage_seconds:
            lines.append(
                f"[repro] stages {name}: "
                f"{stagetime.format_stages(t.stage_seconds)}"
            )
        marks = _tally_latency_quantiles(name)
        if marks:
            lines.append(
                f"[repro] latency {name}: "
                + " ".join(
                    f"{label}={marks[label]:.4f}s"
                    for label in sorted(marks, key=lambda k: float(k[1:]))
                )
            )
    return lines


# -- batch execution -----------------------------------------------------------


@dataclass
class _BatchState:
    """Bookkeeping shared by the phases of one :func:`run_jobs` call."""

    key_order: List[str] = field(default_factory=list)
    unique: Dict[str, SimulationJob] = field(default_factory=dict)
    results: Dict[str, SimulationResult] = field(default_factory=dict)
    pending: List[Tuple[str, SimulationJob]] = field(default_factory=list)


def _resolve_from_cache(state: _BatchState, use_cache: bool) -> None:
    for key, job in state.unique.items():
        hit = (
            cached_result(
                job.profile,
                job.num_instructions,
                config=job.config,
                seed=job.seed,
                warmup_instructions=job.warmup_instructions,
                sleep=job.sleep,
                record_sequences=job.record_sequences,
            )
            if use_cache
            else None
        )
        if hit is not None:
            state.results[key] = hit
        else:
            state.pending.append((key, job))


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
    state = _BatchState()
    for job in ordered:
        key = job.cache_key()
        state.key_order.append(key)
        if key not in state.unique:
            state.unique[key] = job

    with tracer.span(
        "engine.run_jobs", category="engine", submitted=len(ordered)
    ) as run_span:
        _resolve_from_cache(state, use_cache)
        run_span.set(
            unique=len(state.unique),
            cache_hits=len(state.unique) - len(state.pending),
            pending=len(state.pending),
        )

        workers_used = 1
        executed = 0
        failed = 0
        stages_before = stagetime.snapshot()
        obs_before = obs_metrics.registry().snapshot()
        latency_delta: Optional[dict] = None
        try:
            if state.pending:
                workers_used = backend_obj.workers_for(len(state.pending))
                stamped = [job.with_stamped_defaults() for _, job in state.pending]
                with tracer.span(
                    "backend.submit",
                    category="backend",
                    backend=backend_obj.name,
                    jobs=len(stamped),
                    workers=workers_used,
                ):
                    for index, result in backend_obj.submit_batch(stamped):
                        key, job = state.pending[index]
                        state.results[key] = result
                        executed += 1
                        if use_cache:
                            store_result(job.profile, result)
        except BaseException:
            failed = 1
            raise
        finally:
            obs_delta = obs_metrics.registry().delta_since(obs_before)
            latency_delta = obs_delta.get("histograms", {}).get(
                obs_metrics.JOB_SECONDS
            )
            batch = BatchReport(
                submitted=len(ordered),
                unique=len(state.unique),
                cache_hits=len(state.unique) - len(state.pending),
                cache_misses=len(state.pending),
                executed=executed,
                failed=failed,
                workers_used=workers_used,
                backend=backend_obj.name if state.pending else "",
                stage_seconds=stagetime.delta_since(stages_before),
                latency_quantiles=(
                    obs_metrics.quantiles(latency_delta)
                    if latency_delta and latency_delta.get("count")
                    else {}
                ),
            )
            _record_telemetry(batch, latency_delta)
            if report is not None:
                for field_ in fields(BatchReport):
                    setattr(report, field_.name, getattr(batch, field_.name))

    return [state.results[key] for key in state.key_order]
