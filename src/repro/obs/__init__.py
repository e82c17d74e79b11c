"""Unified observability: span tracing, metrics, and run manifests.

Three cooperating modules, all observability-only (they never feed
results, cache keys, or control flow):

* :mod:`repro.obs.tracer` — contextvar-based span tracer exporting
  Chrome trace-event JSON (``--trace-out`` / ``$REPRO_TRACE_OUT``),
  free when disabled;
* :mod:`repro.obs.metrics` — the registry of counters, gauges, and
  fixed-bucket histograms that holds all telemetry (stage seconds,
  kernel counts, service counters, per-job latency), with per-batch
  and per-job scopes;
* :mod:`repro.obs.manifest` — ``--run-manifest run.json`` provenance
  artifacts and the ``repro report`` renderer.

Worker processes relay their spans and per-job metric scopes back to the
coordinator through the execution backends (a version-negotiated
``metrics`` frame on the SSH wire protocol; piggybacked return values
in the process pool), so one merged view covers the whole fleet.
"""

from repro.obs import manifest, metrics, tracer

__all__ = ["manifest", "metrics", "tracer"]
