"""Machine-readable benchmark results: one JSON file, one entry per bench.

The bench suite's assertions (throughput floors, speedup ratios) are
pass/fail; CI also wants the measured numbers as an artifact so trends
are visible across runs without scraping pytest output. When
``$REPRO_BENCH_JSON`` names a file, :func:`record_benchmark` merges
``bench name -> {ops_per_sec, speedup, ...}`` entries into it
(load-modify-write with an atomic replace, so partially-failed bench
sessions still leave a valid artifact with every bench that ran).
Without the variable set, recording is a no-op — local bench runs need
no ceremony.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional

__all__ = ["ENV_BENCH_JSON", "peak_rss_bytes", "record_benchmark"]

ENV_BENCH_JSON = "REPRO_BENCH_JSON"


def peak_rss_bytes() -> Optional[int]:
    """This process's peak resident set size in bytes, if measurable.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalized here to
    bytes. Returns ``None`` on platforms without :mod:`resource`.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:
        return None
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def record_benchmark(
    name: str,
    ops_per_sec: Optional[float] = None,
    speedup: Optional[float] = None,
    **extra: object,
) -> Optional[Path]:
    """Merge one bench's numbers into the ``$REPRO_BENCH_JSON`` artifact.

    Returns the artifact path, or ``None`` when recording is disabled.
    ``None``-valued fields are omitted; extra keyword fields (trace
    lengths, floor values) are stored verbatim. Two observability fields
    are stamped automatically: ``peak_rss_bytes`` (the process's peak
    resident set at record time) and ``stage_seconds`` (the per-stage
    wall-time split in :func:`repro.obs.metrics.registry`, when any
    stage time was accrued). Inside a :func:`repro.obs.metrics.scope`
    (the bench suite opens one per bench) that split is the scope's own,
    so each entry shows where its bench's time went.
    """
    target = os.environ.get(ENV_BENCH_JSON, "").strip()
    if not target:
        return None
    path = Path(target)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        data = {}
    if not isinstance(data, dict):
        data = {}
    entry: Dict[str, object] = {}
    if ops_per_sec is not None:
        entry["ops_per_sec"] = ops_per_sec
    if speedup is not None:
        entry["speedup"] = speedup
    peak = peak_rss_bytes()
    if peak is not None:
        entry["peak_rss_bytes"] = peak
    from repro.obs import metrics

    stages = {
        k: round(v, 6)
        for k, v in metrics.stage_seconds(metrics.registry().snapshot()).items()
        if v > 0.0
    }
    if stages:
        entry["stage_seconds"] = stages
    for key, value in extra.items():
        if value is not None:
            entry[key] = value
    data[name] = entry
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, scratch = tempfile.mkstemp(
        dir=str(path.parent), prefix=".bench-", suffix=".json"
    )
    try:
        with os.fdopen(handle, "w") as stream:
            json.dump(data, stream, indent=2, sort_keys=True)
            stream.write("\n")
        os.replace(scratch, path)
    except OSError:
        try:
            os.unlink(scratch)
        except OSError:
            pass
        raise
    return path
