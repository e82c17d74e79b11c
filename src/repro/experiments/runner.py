"""Run every experiment and print the paper's tables and figures.

Usage::

    python -m repro.experiments.runner                 # full scale, serial
    python -m repro.experiments.runner --quick         # reduced windows
    python -m repro.experiments.runner --jobs 4        # fan out across cores
    python -m repro.experiments.runner --no-cache      # ignore the disk cache

Before rendering, the runner enumerates every simulation any experiment
will need at the requested scale and submits them to the execution
engine as one deduplicated batch (:func:`enumerate_jobs`), so jobs that
share a trace share its generation. With ``--jobs N`` that batch fans
out across N worker processes; either way the rendering pass then runs
entirely against warm caches, so stdout is byte-identical regardless of
the worker count (progress and timing go to stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, List, Optional, Tuple

from repro.cpu import kernel as kernel_mod
from repro.exec import cache as result_cache
from repro.exec import engine
from repro.obs import tracer
from repro.exec.engine import (
    BatchReport,
    resolve_workers,
    run_jobs,
    set_default_workers,
)
from repro.exec.jobs import SimulationJob
from repro.experiments import ablations, figure3, figure4, figure5, figure7
from repro.experiments import figure8, figure9, sweep, table1, table3
from repro.experiments.common import (
    DEFAULT_SCALE,
    QUICK_SCALE,
    ExperimentScale,
    benchmark_jobs,
)


def _experiments(scale: ExperimentScale) -> List[Tuple[str, Callable[[], str]]]:
    return [
        ("Table 1", lambda: table1.render(table1.run())),
        ("Figure 3", lambda: figure3.render(figure3.run())),
        ("Figure 4", lambda: figure4.render(figure4.run())),
        ("Figure 5", lambda: figure5.render(figure5.run())),
        ("Table 3", lambda: table3.render(table3.run(scale=scale))),
        ("Figure 7", lambda: figure7.render(figure7.run(scale=scale))),
        ("Figure 8", lambda: figure8.render(figure8.run(scale=scale))),
        ("Figure 9", lambda: figure9.render(figure9.run(scale=scale))),
        ("Ablations", lambda: ablations.render_all(scale=scale)),
    ]


def enumerate_jobs(scale: ExperimentScale) -> List[SimulationJob]:
    """Every simulation the full experiment suite needs at ``scale``.

    Overlapping batches (Figure 7's 12-cycle-L2 run equals the default
    configuration Figures 8/9 use) are submitted as-is; the engine
    deduplicates them by canonical key.
    """
    jobs: List[SimulationJob] = []
    # Table 3: the (benchmark x FU count) sweep.
    jobs.extend(table3.sweep_jobs(scale=scale))
    # Figures 8/9 and most ablations: the suite at reference FU counts.
    jobs.extend(benchmark_jobs(scale=scale))
    # The predictive-policy ablation replays ordered interval streams, so
    # it needs the reference suite with sequences recorded (a separate
    # cache entry from the histogram-only batch above).
    jobs.extend(benchmark_jobs(scale=scale, record_sequences=True))
    # Figure 7 and the L2-latency ablation: L2 hit-latency variants.
    latencies = set(figure7.L2_LATENCIES) | set(ablations.ABLATION_L2_LATENCIES)
    for latency in sorted(latencies):
        jobs.extend(benchmark_jobs(scale=scale, l2_latency=latency))
    # The FU-count ablation's always-4-FUs counterpoint.
    jobs.extend(
        benchmark_jobs(
            scale=scale, benchmarks=[ablations.FU_COUNT_BENCHMARK], fu_override=4
        )
    )
    # Policy-grid sweeps price the same reference-FU suite, so a prewarmed
    # cache serves ``repro sweep`` too (dedups to nothing extra today).
    jobs.extend(sweep.sweep_jobs(scale=scale))
    return jobs


def prewarm(
    scale: ExperimentScale, jobs: Optional[int] = None, use_cache: bool = True
) -> BatchReport:
    """Run the full simulation batch up front, reporting what happened."""
    report = BatchReport()
    run_jobs(enumerate_jobs(scale), workers=jobs, use_cache=use_cache, report=report)
    return report


def run_all(
    scale: ExperimentScale = DEFAULT_SCALE,
    stream=None,
    jobs: Optional[int] = None,
) -> None:
    """Execute every experiment, printing each result as it completes.

    Results go to ``stream`` (stdout by default); progress and timing go
    to stderr so the rendered output is deterministic. Whether results
    persist across runs is governed by the process-wide cache
    configuration (``--no-cache`` / :func:`repro.exec.cache.configure`);
    the in-process memo always applies.
    """
    out = stream if stream is not None else sys.stdout
    # One batch for the whole suite, whatever the worker count: the
    # engine then sees every job that shares a trace at once, and the
    # render pass below runs entirely against warm caches.
    start = time.time()
    report = prewarm(scale, jobs=jobs)
    print(
        f"[repro] simulations: {report.unique} unique "
        f"({report.cache_hits} cached, {report.executed} run on "
        f"{report.workers_used} worker{'s' if report.workers_used != 1 else ''}) "
        f"in {time.time() - start:.1f}s",
        file=sys.stderr,
    )
    for name, runner in _experiments(scale):
        started = time.time()
        text = runner()
        print(f"[repro] {name} rendered in {time.time() - started:.1f}s",
              file=sys.stderr)
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}", file=out)
        print(text, file=out)


def _jobs_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = all cores), got {value}"
        )
    return value


def add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """The execution-engine flags shared by this runner and the main CLI."""
    parser.add_argument(
        "--jobs",
        type=_jobs_count,
        default=None,
        metavar="N",
        help="worker processes for simulation batches (0 = all cores; "
        "default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent result-cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache for this run",
    )
    parser.add_argument(
        "--kernel",
        choices=kernel_mod.KERNELS,
        default=None,
        help="simulation engine: 'walk' is the per-instruction reference "
        "pipeline, 'batch' the array-batched C kernel (compiled on first "
        "use; needs a C compiler, and fails with the build error without "
        "one). The kernels are float-for-float identical — the choice "
        "affects speed only, never results or cache keys (default: "
        "batch when it builds, else walk; -v reports which ran and why)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="SPEC",
        help="execution backend for simulation batches: 'serial' "
        "(in-process, for debugging), 'pool[:N]' (local worker "
        "processes — today's --jobs fan-out), or 'ssh:host1,host2,...' "
        "(remote workers over SSH; the pseudo-host 'localhost' spawns "
        "a local worker without sshd). Results are byte-identical "
        "across backends (default: $REPRO_BACKEND or pool)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="SPEC",
        help="persistent result store: 'local' (per-host --cache-dir), "
        "'shared:DIR' (write-once shared-filesystem store), or "
        "'layered:DIR' (read-through/write-back: local tier backed by "
        "the shared DIR, so a fleet deduplicates globally; default: "
        "$REPRO_STORE or local)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="collect spans across the run (CLI dispatch, batch "
        "scheduling, backend submission, per-job and per-stage work — "
        "including spans relayed back from pool and SSH workers) and "
        "write them as Chrome trace-event JSON, loadable in Perfetto "
        "(https://ui.perfetto.dev) or chrome://tracing "
        "(default: $REPRO_TRACE_OUT or disabled — disabled tracing "
        "costs nothing)",
    )
    parser.add_argument(
        "--run-manifest",
        default=None,
        metavar="FILE",
        help="write a JSON run manifest (argv, model fingerprint, "
        "backend/store configuration, cache tier stats, per-backend "
        "counters, stage times, metrics snapshot) after the run; render "
        "it later with 'repro report FILE'",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print per-backend execution counters "
        "(submitted/hits/misses/executed/failed) and the simulations run "
        "per kernel to stderr after the run",
    )


def apply_execution_arguments(args: argparse.Namespace) -> None:
    """Configure the process-wide engine state from parsed CLI flags."""
    result_cache.configure(
        cache_dir=args.cache_dir,
        enabled=not args.no_cache,
        store=getattr(args, "store", None),
    )
    if args.jobs is not None:
        set_default_workers(resolve_workers(args.jobs))
    engine.set_default_backend(getattr(args, "backend", None))
    kernel_mod.set_default_kernel(args.kernel)
    tracer.configure(
        getattr(args, "trace_out", None)
        or os.environ.get(tracer.ENV_TRACE_OUT)
        or None
    )


def finalize_observability(
    args: argparse.Namespace,
    argv: Optional[List[str]],
    exit_code: int,
    started: float,
) -> None:
    """Export the observability artifacts a run asked for.

    Writes the Chrome trace when ``--trace-out``/``$REPRO_TRACE_OUT``
    configured a path, and the run manifest when ``--run-manifest`` did.
    Shared by this runner's ``main`` and the repro CLI.
    """
    if tracer.output_path():
        tracer.export_chrome_trace()
    manifest_path = getattr(args, "run_manifest", None)
    if manifest_path:
        from repro.obs import manifest as manifest_mod

        manifest_mod.write_run_manifest(
            manifest_path, argv=argv, exit_code=exit_code, started=started
        )


def print_telemetry(file=None) -> None:
    """Print the per-backend execution counters (the ``--verbose`` report).

    Followed by the per-kernel simulation counts when anything was
    simulated. Goes to stderr by default so rendered experiment output
    on stdout stays byte-identical with and without ``--verbose``.
    """
    out = file if file is not None else sys.stderr
    lines = engine.telemetry_lines()
    if not lines:
        print("[repro] no simulation batches were submitted", file=out)
    kernel_line = kernel_mod.telemetry_line()
    if kernel_line is not None:
        lines.append(kernel_line)
    for line in lines:
        print(line, file=out)


def main(argv=None) -> int:
    started = time.time()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced simulation windows (for smoke testing)",
    )
    add_execution_arguments(parser)
    args = parser.parse_args(argv)
    apply_execution_arguments(args)
    with tracer.span("cli.run_all", category="cli"):
        run_all(QUICK_SCALE if args.quick else DEFAULT_SCALE, jobs=args.jobs)
    if args.verbose:
        print_telemetry()
    finalize_observability(
        args, list(argv) if argv is not None else sys.argv[1:], 0, started
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
