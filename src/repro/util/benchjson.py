"""Machine-readable benchmark results: bench artifacts and the perf ledger.

The bench suite's assertions (throughput floors, speedup ratios) are
pass/fail; CI also wants the measured numbers as an artifact so trends
are visible across runs without scraping pytest output. When
``$REPRO_BENCH_JSON`` names a file, :func:`record_benchmark` merges
``bench name -> {ops_per_sec, speedup, ...}`` entries into it
(load-modify-write with an atomic replace, so partially-failed bench
sessions still leave a valid artifact with every bench that ran).
Without the variable set, recording is a no-op — local bench runs need
no ceremony.

The perf ledger is the ``BENCH_<n>.json`` files at the checkout root.
Each holds, per perfbench workload, the final JSON line
(``perfbench/run.py``'s result) of the parent commit under ``parent``
and of the change under ``change``, and under ``runs`` the end-to-end
metrics of every run of every pair, per side. Run from a checkout
root::

    python -m repro.util.benchjson compare OLD NEW

prints each end-to-end metric of ``BENCHMARK.json`` per workload, from
OLD's ``parent`` side to NEW's ``change`` side, with its ratio, and
flags each move beyond the metric's bound; it exits 1 when any metric
got worse by more than its bound or any workload lost correctness or
failed more operations. A side with ``runs`` reads as their medians,
since one run is too noisy to judge a bound by; the final lines serve
only where a workload has no runs. ``compare BENCH_22.json
BENCH_22.json`` reads one change.

Two different ledgers read the trajectory between them as a chain: the
ratio judged is OLD's change/parent ratio times NEW's, because each
ledger's pairs ran in one session while the two sessions ran on a
machine whose speed drifts between them. The chain assumes NEW's parent
is OLD's change, the same commit; the ``drift`` column prints NEW's
parent over OLD's change, that commit's speed in the second session
against the first, which the chain leaves out. A plain
``{workload: line}`` file serves as either side, compared directly.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ENV_BENCH_JSON",
    "compare",
    "load_side",
    "peak_rss_bytes",
    "record_benchmark",
]

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


# -- the perf ledger -----------------------------------------------------------


def _median_line(runs: List[dict]) -> dict:
    """One perfbench line for many runs: each metric's median, correct
    only if every run was, and the most operations any run failed."""
    names = sorted({name for run in runs for name in run} - {"correct", "failed"})
    return {
        "correct": all(run.get("correct", False) for run in runs),
        "failed": max(run.get("failed", 0) for run in runs),
        "metrics": {
            name: {"value": statistics.median(run[name] for run in runs if name in run)}
            for name in names
        },
    }


def _is_ledger(data: object) -> bool:
    return (
        isinstance(data, dict)
        and isinstance(data.get("parent"), dict)
        and isinstance(data.get("change"), dict)
    )


def load_side(path: Path, side: str) -> Dict[str, dict]:
    """The ``{workload: perfbench line}`` map of ``side`` in a ledger, or
    the whole file when it is such a map already.

    A workload with ``runs`` on ``side`` reads as their median
    (:func:`_median_line`) in place of the side's final line.
    """
    data = json.loads(Path(path).read_text())
    if not _is_ledger(data):
        return data
    lines = dict(data[side])
    for workload, sides in (data.get("runs") or {}).items():
        if sides.get(side):
            lines[workload] = _median_line(sides[side])
    return lines


def _value(line: dict, name: str) -> Optional[float]:
    return line["metrics"].get(name, {}).get("value")


def compare(
    old: Dict[str, dict],
    new: Dict[str, dict],
    end_to_end: List[dict],
    via: Optional[Tuple[Dict[str, dict], Dict[str, dict]]] = None,
) -> Tuple[List[str], int]:
    """Rows comparing ``old`` and ``new`` per workload and metric, and
    the number of regressions among them.

    ``end_to_end`` is ``BENCHMARK.json``'s list of ``{name, better,
    bound}``. A metric moved beyond its bound when its ratio differs
    from 1 by more than ``bound``; that is a regression when the move is
    in the worse direction. The ratio is new/old; with ``via``, the pair
    (OLD's change, NEW's parent) of a chain of two ledgers, it is
    (OLD's change/old) times (new/NEW's parent), and a ``drift`` column
    shows NEW's parent/OLD's change. A workload that lost correctness
    or failed more operations is a regression too.
    """
    drift_head = f"{'drift':>8}" if via else ""
    rows = [
        f"{'workload':<18}{'metric':<13}{'old':>10}{'new':>10}{'ratio':>8}"
        f"{drift_head}  bound"
    ]
    regressions = 0
    workloads = set(old) & set(new)
    if via:
        workloads &= set(via[0]) & set(via[1])
    for workload in sorted(workloads):
        before, after = old[workload], new[workload]
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            was, now = _value(before, name), _value(after, name)
            if not was or now is None:
                continue
            ratio, drift = now / was, ""
            if via:
                old_change = _value(via[0][workload], name)
                new_parent = _value(via[1][workload], name)
                if not old_change or not new_parent:
                    continue
                ratio = old_change / was * (now / new_parent)
                drift = f"{new_parent / old_change:>8.3f}"
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            flag = ""
            if worse > bound:
                flag = "  WORSE beyond bound"
                regressions += 1
            elif -worse > bound:
                flag = "  better beyond bound"
            rows.append(
                f"{workload:<18}{name:<13}{was:>10.4g}{now:>10.4g}{ratio:>8.3f}"
                f"{drift}  {bound:g}{flag}"
            )
        if not after.get("correct", False) or after.get("failed", 0) > before.get("failed", 0):
            rows.append(
                f"{workload:<18}correct={after.get('correct')} "
                f"failed {before.get('failed')} -> {after.get('failed')}  WORSE"
            )
            regressions += 1
    return rows, regressions


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 3 or args[0] != "compare":
        print("usage: python -m repro.util.benchjson compare OLD NEW", file=sys.stderr)
        return 2
    try:
        end_to_end = json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]
    except OSError as error:
        print(f"benchjson: run from a checkout root: {error}", file=sys.stderr)
        return 2
    old_path, new_path = Path(args[1]), Path(args[2])
    via = None
    if old_path.resolve() != new_path.resolve() and all(
        _is_ledger(json.loads(path.read_text())) for path in (old_path, new_path)
    ):
        via = (load_side(old_path, "change"), load_side(new_path, "parent"))
    rows, regressions = compare(
        load_side(old_path, "parent"), load_side(new_path, "change"), end_to_end, via
    )
    print("\n".join(rows))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
